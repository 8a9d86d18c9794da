"""Fixtures shared by the test suite."""

import pytest


def _run_watched(env, hook):
    """Run ``env`` to an empty calendar one ``step()`` at a time, calling
    ``hook(time, timer)`` on the live head entry before each step."""
    while not env.is_empty():  # also pops cancelled entries off the head
        _key, time, _seq, timer = env._heap[0]
        hook(time, timer)
        env.step()


@pytest.fixture(scope="session")
def watch_calendar():
    """``watch(env, hook)``: from then on ``env.run()`` runs the calendar
    to its end and calls ``hook(time, timer)`` before it dispatches each
    entry.

    The loop steps where ``run()`` inlines its dispatch;
    ``TestRunMirrorsStep`` keeps the two dispatch-identical.  Only the
    watched calendar changes, so the fixture serves fixtures of any scope.
    """
    def watch(env, hook):
        env.run = lambda: _run_watched(env, hook)

    return watch
