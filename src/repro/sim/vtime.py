"""Virtual time: the one discrete-event clock of the reproduction.

:class:`VirtualTimeLoop` is an asyncio event loop whose clock stands
still while anything is runnable and, when nothing is, jumps exactly to
the next armed timer.  Timers due at the same instant run in the order
they were scheduled.  It holds no OS resource: no selector, no
self-pipe, no file descriptor.

Two kinds of program run on it:

* the simulator — sessions, churn and arrivals schedule plain
  callbacks with ``loop.call_later`` (and :func:`every`), and
  :func:`advance` runs them up to a horizon;
* the live daemon — a :class:`~repro.net.cluster.LiveCluster` over
  :class:`~repro.net.transport.LoopbackTransport` runs unchanged under
  :func:`run` (every frame encoded and decoded, every retry deadline,
  expiry timer and emulated one-way delay armed on the loop), except
  that waiting costs no wall time and the order of events is fixed by
  the seed: the same seed sends the same frames, byte for byte.

It is for in-process work only: bytes on a TCP socket arrive when the
kernel says so, which a loop that never waits cannot know.

.. code-block:: python

    from repro.sim import vtime

    result = vtime.run(main())   # like asyncio.run(main()), on virtual time

    loop = vtime.VirtualTimeLoop()
    loop.call_later(2.5, print, "fired at", 2.5)
    vtime.advance(loop, until=10.0)   # runs it; loop.time() == 10.0
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import weakref
from asyncio import events
from typing import Any, Callable, Optional

__all__ = ["Deadlock", "VirtualTimeLoop", "advance", "every", "loop_time", "run"]


def loop_time() -> float:
    """The running loop's clock: the one clock every part of ``net/`` reads."""
    return asyncio.get_running_loop().time()


class Deadlock(RuntimeError):
    """Nothing is runnable and no timer is armed: what is awaited never comes."""


class _Timer(events.TimerHandle):
    """A timer that sorts by ``(when, seq)``: ties run first scheduled, first run."""

    __slots__ = ("_seq",)

    def __init__(self, when, callback, args, loop, context, seq: int) -> None:
        super().__init__(when, callback, args, loop, context)
        self._seq = seq

    def __lt__(self, other) -> bool:
        return (self._when, self._seq) < (other._when, other._seq)


class _Jump:
    """Stands in for the selector: a wait for the next timer is a jump of the clock.

    It holds its loop weakly.  A strong reference would put every loop in
    a cycle with its stand-in, so a dropped loop would outlive its last
    user until the garbage collector found it, and run its finalizer in
    whatever code the collector happened to interrupt."""

    __slots__ = ("_loop",)

    def __init__(self, loop: "VirtualTimeLoop") -> None:
        self._loop = weakref.ref(loop)

    def select(self, timeout):
        if timeout == 0:
            return ()
        loop = self._loop()
        # the loop has dropped cancelled timers off the head of its heap
        when = loop._scheduled[0]._when if loop._scheduled else None
        until = loop._until
        if until is not None and (when is None or when > until):
            if until < math.inf:
                loop._now = max(loop._now, until)
            loop.stop()
        elif when is None:
            raise Deadlock("nothing is runnable and no timer is armed")
        else:
            loop._now = when
        return ()


class VirtualTimeLoop(asyncio.BaseEventLoop):
    """An event loop whose ``time()`` advances only when nothing is runnable."""

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        self._seq = itertools.count()
        self._until: Optional[float] = None  # set while advance() runs
        self._selector = _Jump(self)

    def __del__(self) -> None:
        # nothing to release, so nothing to warn about when dropped unclosed
        pass

    def time(self) -> float:
        return self._now

    def call_at(self, when, callback, *args, context=None):
        if when != when:
            raise ValueError("a timer cannot be due at NaN")
        self._check_closed()
        if self._debug:
            self._check_thread()
            self._check_callback(callback, "call_at")
        timer = _Timer(when, callback, args, self, context, next(self._seq))
        if timer._source_traceback:
            del timer._source_traceback[-1]
        heapq.heappush(self._scheduled, timer)
        timer._scheduled = True
        return timer

    def _process_events(self, event_list) -> None:
        pass


def advance(loop: VirtualTimeLoop, until: Optional[float] = None) -> None:
    """Run every timer due at or before ``until`` (also those its callbacks
    arm for that window) and leave ``loop.time() == until``; without
    ``until``, run until nothing is armed.  An exception a callback
    raises stops the loop and propagates here."""
    loop._check_running()  # asyncio's RuntimeError when re-entered
    errors = []

    def stop_on_error(loop, context) -> None:
        errors.append(context)
        loop.stop()

    handler = loop.get_exception_handler()
    loop.set_exception_handler(stop_on_error)
    loop._until = math.inf if until is None else until
    try:
        loop.run_forever()
    finally:
        loop._until = None
        loop.set_exception_handler(handler)
    if errors:
        exc = errors[0].get("exception")
        raise exc if exc is not None else RuntimeError(errors[0]["message"])


class _Every:
    __slots__ = ("_loop", "_interval", "_fn", "_args", "_timer")

    def __init__(self, loop, interval: float, fn: Callable[..., Any], args: tuple) -> None:
        self._loop = loop
        self._interval = interval
        self._fn = fn
        self._args = args
        self._timer = None

    def _fire(self) -> None:
        self._fn(*self._args)
        if self._timer is not None:  # not cancelled by fn
            self._timer = self._loop.call_later(self._interval, self._fire)

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


def every(
    loop: asyncio.AbstractEventLoop,
    interval: float,
    fn: Callable[..., Any],
    *args: Any,
    start_after: Optional[float] = None,
) -> _Every:
    """Call ``fn(*args)`` every ``interval`` (first after ``start_after``,
    default one interval) until the returned handle's ``cancel()``."""
    if not interval > 0:
        raise ValueError(f"non-positive interval: {interval!r}")
    task = _Every(loop, interval, fn, args)
    task._timer = loop.call_later(interval if start_after is None else start_after, task._fire)
    return task


def run(main):
    """Run ``main`` to completion on a fresh :class:`VirtualTimeLoop`, then
    cancel what is left and close the loop (``asyncio.run``'s contract)."""
    loop = VirtualTimeLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main)
    finally:
        try:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
