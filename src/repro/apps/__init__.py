"""Multi-application scheduling: specs, fairness metrics, and the
shared-platform engine.

See :mod:`repro.apps.engine` for the execution model and
``docs/architecture.md`` ("Multi-application scheduling") for the
design rationale.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".spec": ("Application", "AppResult", "Workload"),
    ".engine": ("MultiAppEngine",),
    ".metrics": ("jain_index", "price_of_anarchy", "steady_window_rate",
                 "fault_fairness"),
})
