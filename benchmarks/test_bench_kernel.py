"""Micro-benchmarks of the discrete-event kernel (the simulation substrate).

These are classic pytest-benchmark timings (multiple rounds) for the
kernel's two scheduling paths: raw timers and coroutine processes.  The
workload bodies live in ``workloads.py`` so the ``perf.py`` trajectory
harness (and the committed ``BENCH_kernel.json`` baseline) measures exactly
the same code.  Each workload returns the kernel's ``processed_count`` —
the events/sec denominator.
"""

from workloads import run_process_chain, run_timer_storm


def test_bench_timer_throughput(benchmark):
    processed = benchmark(run_timer_storm, 20_000)
    assert processed >= 20_000


def test_bench_process_throughput(benchmark):
    # 10 workers x 1000 timeouts, plus process-completion events.
    processed = benchmark(run_process_chain, 10_000)
    assert processed >= 10_000

