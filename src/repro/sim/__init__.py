"""Discrete-event simulation kernel (the paper's SimGrid substitute).

Public surface::

    from repro.sim import Environment, Timer  # the calendar every engine runs on
    from repro.sim import Event, Process, Interrupt  # SimPy-style layer

Every engine, the open-loop driver, telemetry and warp schedule only
cancellable :class:`Timer` callbacks; the SimPy-style events and processes
share the same calendar but no simulation uses them.

Quick example::

    env = Environment()
    fired = []
    env.call_in(3, fired.append, "ping")
    env.run()
    assert fired == ["ping"] and env.now == 3
"""

from .core import Environment, Infinity, Timer
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Interrupt, Process
from . import monitor

__all__ = [
    "Environment",
    "Infinity",
    "Timer",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "monitor",
]
