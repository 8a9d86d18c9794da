"""Generator-based coroutine processes for the discrete-event kernel.

A process is a Python generator that ``yield``-s :class:`~repro.sim.events.Event`
instances; the kernel resumes the generator with the event's value once the
event fires (or throws the event's exception into it).  Processes are
themselves events — they fire with the generator's return value — so they can
be waited upon and composed with ``&``/``|``.

Processes support asynchronous :meth:`Process.interrupt`.  The paper's
interruptible-communication protocol does not use it: an agent preempts a
transfer by cancelling its :class:`~repro.sim.core.Timer`
(``NodeAgent._maybe_preempt``).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import SimulationError
from .events import Event, PENDING

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupt ``cause`` is an arbitrary user object describing why the
    process was interrupted.
    """

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """A running coroutine; fires with the generator's return value."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process() requires a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (``None`` when
        #: it has not started or has terminated).
        self._target: Optional[Event] = None
        # Kick off the coroutine via an immediately-scheduled initialisation
        # event so that process bodies never run before the constructor returns.
        init = Event(env)
        init._value = None
        env.schedule(init)
        init.callbacks.append(self._resume)
        self._target = init

    # ---------------------------------------------------------------- state
    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting on (diagnostics)."""
        return self._target

    # ------------------------------------------------------------ interrupt
    def interrupt(self, cause: Any = None) -> None:
        """Asynchronously throw :class:`Interrupt` into the process.

        The interrupt is delivered immediately (same virtual time).  It is an
        error to interrupt a terminated process or a process from within
        itself.
        """
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if target is not None and target.callbacks is not None:
            # Detach from the event we were waiting on; the event itself
            # still fires for any other waiters.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._value = Interrupt(cause)
        interrupt_event._failed = True
        interrupt_event.defused = True
        self.env.schedule(interrupt_event)
        interrupt_event.callbacks.append(self._resume)

    # -------------------------------------------------------------- driving
    def _resume(self, event: Event) -> None:
        env = self.env
        previous, env._active_process = env._active_process, self
        try:
            while True:
                try:
                    if event._failed:
                        event.defused = True
                        next_target = self._generator.throw(event._value)
                    else:
                        next_target = self._generator.send(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    return

                if not isinstance(next_target, Event):
                    exc = SimulationError(
                        f"process yielded a non-event: {next_target!r}"
                    )
                    event = Event(env)
                    event._value = exc
                    event._failed = True
                    event.defused = True
                    continue
                if next_target.env is not env:
                    exc = SimulationError(
                        "process yielded an event from a different environment"
                    )
                    event = Event(env)
                    event._value = exc
                    event._failed = True
                    event.defused = True
                    continue

                if next_target.callbacks is not None:
                    # Not yet processed: park until it fires.
                    next_target.callbacks.append(self._resume)
                    self._target = next_target
                    return
                # Already processed: continue synchronously with its outcome.
                event = next_target
        finally:
            env._active_process = previous
