"""Crash-safe sweep harness: checkpoint/resume, supervised pools, retry.

The ensemble experiments of :mod:`repro.experiments` are hours-long at paper
scale and embarrassingly parallel by seed.  This package makes them survive
the death of any of their parts, the way checkpoint/restart does for the
long-running volunteer-computing campaigns the paper targets:

* :mod:`repro.harness.checkpoint` — an append-only JSONL journal of per-seed
  results keyed by ``(experiment, seed, config digest)``, created atomically
  (tmp file + fsync + rename) and fsynced per record, so a killed run resumes
  by replaying the journal and scheduling only the missing seeds;
* :mod:`repro.harness.pool` — a supervised replacement for the bare
  ``ProcessPoolExecutor``: detects ``BrokenProcessPool``/worker death,
  respawns the pool, retries each failed seed with exponential backoff and
  deterministic jitter, enforces a per-seed wall-clock timeout via a
  watchdog, and turns exhausted retries into structured
  :class:`~repro.harness.pool.SeedFailure` records instead of aborting;
* :mod:`repro.harness.runner` — :func:`~repro.harness.runner.run_seeds`, the
  entry point the experiments call: journal replay + supervised execution +
  a :class:`~repro.harness.pool.RunCoverage` report
  (``completed/failed/skipped``, per-seed attempts) attached to every
  experiment ``*Result``.

The harness preserves the PR 2 guarantee: ``workers=1`` and ``workers=N`` —
and now fresh vs. resumed runs — produce identical, seed-ordered results.
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".checkpoint": ("CheckpointStore", "SeedJournal", "config_digest"),
    ".pool": ("RetryPolicy", "RunCoverage", "SeedFailure", "run_supervised"),
    ".runner": ("HarnessConfig", "SeedSweepOutcome", "run_seeds"),
})
