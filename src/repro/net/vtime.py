"""Virtual time: the live daemon as its own discrete-event simulator.

:class:`VirtualTimeLoop` is an ordinary selector event loop whose clock
stands still while anything is runnable and, when nothing is, jumps
straight to the next armed timer.  A :class:`~repro.net.cluster.LiveCluster`
over :class:`~repro.net.transport.LoopbackTransport` runs on it unchanged
— every frame encoded and decoded, every retry deadline, expiry timer
and emulated one-way delay armed on the loop — except that waiting costs
no wall time and the order of events is fixed by the seed: the same
seed sends the same frames, byte for byte.

It is for in-process transports only: bytes on a TCP socket arrive when
the kernel says so, which a loop that never waits cannot know.

.. code-block:: python

    from repro.net import vtime

    result = vtime.run(main())   # like asyncio.run(main()), on virtual time
"""

from __future__ import annotations

import asyncio
import selectors

__all__ = ["Deadlock", "VirtualTimeLoop", "loop_time", "run"]


def loop_time() -> float:
    """The running loop's clock: the one clock every part of ``net/`` reads."""
    return asyncio.get_running_loop().time()


class Deadlock(RuntimeError):
    """Nothing is runnable and no timer is armed: what is awaited never comes."""


class _JumpingSelector(selectors.DefaultSelector):
    """Polls without blocking; a wait for the next timer is a jump of the clock."""

    def __init__(self, loop: "VirtualTimeLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            raise Deadlock("nothing is runnable and no timer is armed")
        if timeout > 0:
            self._loop._virtual_now += timeout
        return super().select(0)


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` advances only when nothing is runnable."""

    def __init__(self) -> None:
        self._virtual_now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self) -> float:
        return self._virtual_now


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
