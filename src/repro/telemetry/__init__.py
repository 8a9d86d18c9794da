"""Telemetry subsystem: run probes, exporters, ensembles.

Disabled by default everywhere — a run only carries probes when a
:class:`~repro.telemetry.config.TelemetryConfig` is attached to its
:class:`~repro.protocols.config.ProtocolConfig`.  See
``docs/architecture.md`` ("Observability") for the data-flow and
overhead model, and ``EXPERIMENTS.md`` for the Perfetto walkthrough.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".config": ("TelemetryConfig",),
    ".probes": ("TelemetryProbe", "TelemetrySnapshot", "TimeSeries"),
    ".export": ("dump_jsonl", "iter_jsonl", "load_jsonl", "dump_csv",
                "chrome_trace", "write_chrome_trace", "multi_app_trace",
                "write_multi_app_trace", "export_auto"),
    ".aggregate": ("aggregate_snapshots", "summarize", "percentile",
                   "format_telemetry_summary"),
})
