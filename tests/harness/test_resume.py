"""Resume equivalence: journalled runs pick up exactly where they stopped."""

import os
import re
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.harness import HarnessConfig, run_seeds
from repro.harness.runner import SeedSweepOutcome

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")


def _cube(seed):
    return seed ** 3


def _cube_unless_marked(seed, poison_dir):
    if os.path.exists(os.path.join(poison_dir, f"poison-{seed}")):
        raise RuntimeError(f"seed {seed} poisoned")
    return seed ** 3


class TestHarnessConfig:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ExperimentError, match="checkpoint_dir"):
            HarnessConfig(resume=True)

    def test_policy_carries_knobs(self):
        config = HarnessConfig(max_retries=5, seed_timeout=9.0, jitter=0.0)
        policy = config.policy()
        assert policy.max_retries == 5
        assert policy.seed_timeout == 9.0
        assert policy.jitter == 0.0


class TestRunSeeds:
    def test_no_harness_is_failfast(self, tmp_path):
        poison_dir = str(tmp_path)
        open(os.path.join(poison_dir, "poison-3"), "w").close()
        worker = partial(_cube_unless_marked, poison_dir=poison_dir)
        with pytest.raises(RuntimeError, match="poisoned"):
            run_seeds(worker, range(5), experiment="t")

    def test_no_harness_outcome_has_full_coverage(self):
        outcome = run_seeds(_cube, range(4), experiment="t")
        assert isinstance(outcome, SeedSweepOutcome)
        assert outcome.values == (0, 1, 8, 27)
        assert outcome.coverage.ok

    def test_failed_seed_is_structured_not_raised(self, tmp_path):
        poison_dir = str(tmp_path)
        open(os.path.join(poison_dir, "poison-2"), "w").close()
        worker = partial(_cube_unless_marked, poison_dir=poison_dir)
        harness = HarnessConfig(max_retries=1, backoff_base=0.0, jitter=0.0)
        outcome = run_seeds(worker, range(4), experiment="t",
                            harness=harness)
        assert outcome.seeds == (0, 1, 3)
        assert outcome.values == (0, 1, 27)
        assert outcome.coverage.failed_seeds == (2,)
        assert outcome.coverage.failed[0].attempts == 2

    def test_all_seeds_failing_raises(self, tmp_path):
        poison_dir = str(tmp_path)
        for seed in range(3):
            open(os.path.join(poison_dir, f"poison-{seed}"), "w").close()
        worker = partial(_cube_unless_marked, poison_dir=poison_dir)
        harness = HarnessConfig(max_retries=0, backoff_base=0.0)
        with pytest.raises(ExperimentError, match="every seed failed"):
            run_seeds(worker, range(3), experiment="t", harness=harness)

    def test_resume_skips_journaled_seeds_and_reruns_failures(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        poison_dir = str(tmp_path / "poison")
        os.makedirs(poison_dir)
        worker = partial(_cube_unless_marked, poison_dir=poison_dir)

        # First run: seeds 2 and 4 fail permanently, the rest journal.
        for seed in (2, 4):
            open(os.path.join(poison_dir, f"poison-{seed}"), "w").close()
        first = run_seeds(
            worker, range(6), experiment="t", config_parts=("v1",),
            harness=HarnessConfig(checkpoint_dir=ckpt, max_retries=0,
                                  backoff_base=0.0))
        assert first.coverage.failed_seeds == (2, 4)

        # Heal the poison and resume: only the failed seeds recompute.
        for seed in (2, 4):
            os.unlink(os.path.join(poison_dir, f"poison-{seed}"))
        resumed = run_seeds(
            worker, range(6), experiment="t", config_parts=("v1",),
            harness=HarnessConfig(checkpoint_dir=ckpt, resume=True,
                                  max_retries=0, backoff_base=0.0))
        assert resumed.coverage.skipped == 4
        assert resumed.coverage.completed == 2
        assert resumed.values == tuple(s ** 3 for s in range(6))

    def test_resumed_equals_fresh(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        harness = HarnessConfig(checkpoint_dir=ckpt)
        fresh = run_seeds(_cube, range(8), experiment="t",
                          config_parts=("v1",), harness=harness)
        resumed = run_seeds(
            _cube, range(8), experiment="t", config_parts=("v1",),
            harness=HarnessConfig(checkpoint_dir=ckpt, resume=True))
        assert resumed.values == fresh.values
        assert resumed.coverage.skipped == 8
        assert resumed.coverage.completed == 0

    def test_resume_with_larger_ensemble_reuses_overlap(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_seeds(_cube, range(4), experiment="t", config_parts=("v1",),
                  harness=HarnessConfig(checkpoint_dir=ckpt))
        grown = run_seeds(
            _cube, range(8), experiment="t", config_parts=("v1",),
            harness=HarnessConfig(checkpoint_dir=ckpt, resume=True))
        assert grown.coverage.skipped == 4
        assert grown.coverage.completed == 4
        assert grown.values == tuple(s ** 3 for s in range(8))

    def test_changed_config_rejects_resume(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_seeds(_cube, range(2), experiment="t", config_parts=("v1",),
                  harness=HarnessConfig(checkpoint_dir=ckpt))
        with pytest.raises(ExperimentError, match="different configuration"):
            run_seeds(_cube, range(2), experiment="t", config_parts=("v2",),
                      harness=HarnessConfig(checkpoint_dir=ckpt, resume=True))

    def test_progress_counts_replayed_upfront(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_seeds(_cube, range(4), experiment="t", config_parts=("v1",),
                  harness=HarnessConfig(checkpoint_dir=ckpt))
        seen = []
        run_seeds(_cube, range(4), experiment="t", config_parts=("v1",),
                  harness=HarnessConfig(checkpoint_dir=ckpt, resume=True),
                  progress=lambda done, total: seen.append((done, total)))
        assert seen == [(4, 4)]

    def test_workers_equivalence_under_harness(self, tmp_path):
        harness = HarnessConfig(backoff_base=0.0)
        serial = run_seeds(_cube, range(8), experiment="t", harness=harness)
        pooled = run_seeds(_cube, range(8), experiment="t", harness=harness,
                           workers=3)
        assert serial.values == pooled.values


TIMING_LINE = re.compile(r"completed in [0-9.]+s")


def _run_cli(args, timeout=600):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=timeout)


def _normalize(report: str) -> str:
    return TIMING_LINE.sub("completed", report)


def _group_gone(pgid: int) -> bool:
    """Wait up to 10 s until no process is left in process group ``pgid``."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _journaled_seeds(path: str) -> int:
    """Seed records a checkpoint journal holds so far (0 before it exists)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return sum('"seed":' in line for line in handle)
    except FileNotFoundError:
        return 0


class TestKillAndResume:
    """SIGKILL a checkpointed sweep mid-run; the resume must reproduce the
    uninterrupted run bit for bit (stdout report, minus timing lines)."""

    CLI = ["fig4", "--scale", "smoke", "--trees", "12"]

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        reference = _run_cli(self.CLI + ["--workers", "1"])
        assert reference.returncode == 0, reference.stderr

        ckpt = str(tmp_path / "ckpt")
        env = dict(os.environ, PYTHONPATH=SRC)
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CLI,
             "--workers", "4", "--checkpoint-dir", ckpt],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        # Let it journal a few seeds, then kill it ungracefully.  If the
        # run happens to finish first the resume below is a pure replay —
        # the equality assertion holds either way, so no flaky timing.
        journal = os.path.join(ckpt, "fig4.jsonl")
        deadline = time.monotonic() + 60
        while (victim.poll() is None and _journaled_seeds(journal) < 3
               and time.monotonic() < deadline):
            time.sleep(0.02)
        # Kill the whole process group: SIGKILL to the CLI alone would
        # orphan its pool workers, which outlive the test run.
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the run already finished
        victim.wait(timeout=30)
        assert _group_gone(victim.pid), "pool workers outlived the kill"

        resumed = _run_cli(self.CLI + [
            "--workers", "4", "--checkpoint-dir", ckpt, "--resume"])
        assert resumed.returncode == 0, resumed.stderr
        assert _normalize(resumed.stdout) == _normalize(reference.stdout)
