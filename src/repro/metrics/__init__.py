"""Measurement layer: windowed throughput, onset detection, buffer and
used-subtree statistics, ensemble aggregation (§4.1 methodology)."""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".windows": ("window_rate", "window_rates", "normalized_window_rates",
                 "num_windows", "steady_state_rate"),
    ".onset": ("detect_onset", "reached_optimal", "default_threshold",
               "PAPER_THRESHOLD_WINDOW", "PAPER_NUM_TASKS"),
    ".buffers": ("buffers_at_completions", "reached_within_buffers"),
    ".usage": ("UsageStats", "usage_stats", "histogram_pdf",
               "node_utilization"),
    ".ensemble": ("median_or_none", "onset_cdf", "percentage_reached",
                  "summarize"),
    ".phases": ("PhaseBreakdown", "phase_breakdown"),
    ".faults": ("RecoveryReport", "recovery_latencies", "post_recovery_rate",
                "degraded_windows", "recovery_report"),
})
