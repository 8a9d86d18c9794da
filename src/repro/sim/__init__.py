"""Discrete-event simulation kernel (the paper's SimGrid substitute).

Public surface::

    from repro.sim import Environment, Timer  # the calendar every engine runs on

One API: :meth:`Environment.call_in` / :meth:`Environment.call_at` schedule
a callback and return a cancellable :class:`Timer`.  Every engine, the
open-loop driver, telemetry and warp run on it; the calendar orders its
entries by ``(time, seq)``.

Quick example::

    env = Environment()
    fired = []
    env.call_in(3, fired.append, "ping")
    env.run()
    assert fired == ["ping"] and env.now == 3
"""

from .._exports import export as _export

__all__ = _export(globals(), {
    ".core": ("Environment", "Infinity", "Timer"),
    ".monitor": ("monitor",),
})
