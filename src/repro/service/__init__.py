"""Service mode: open-loop streaming arrivals, admission control, and
latency SLOs.

The closed-bag engines answer "how fast does this platform drain N
tasks?"; this package answers the production question — "what latency
and drop rate does this platform deliver under sustained traffic?".
See ``docs/architecture.md`` (Service mode) for the design tour.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".admission": ("AdmissionPolicy", "AlwaysAdmit", "QueueDepthBound",
                   "TokenBucket", "parse_admission"),
    ".arrivals": ("ArrivalProcess", "PoissonArrivals", "BurstArrivals",
                  "DiurnalArrivals", "PeriodicArrivals", "parse_arrivals"),
    ".driver": ("OpenLoopDriver",),
    ".slo": ("LatencySketch", "ServiceStats"),
})
