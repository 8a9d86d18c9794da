"""Micro-benchmark of the discrete-event kernel (the simulation substrate).

A classic pytest-benchmark timing (multiple rounds) of the calendar's one
scheduling path, cancellable timers.  The workload body lives in
``workloads.py`` so the ``perf.py`` trajectory harness (and the committed
``BENCH_kernel.json`` baseline) measures exactly the same code.  It returns
the kernel's ``processed_count`` — the events/sec denominator.
"""

from workloads import run_timer_storm


def test_bench_timer_throughput(benchmark):
    processed = benchmark(run_timer_storm, 20_000)
    assert processed >= 20_000
