"""Unit tests for the discrete-event clock: the virtual-time loop."""

import gc
import os
import warnings

import pytest

from repro.sim import vtime
from repro.sim.vtime import VirtualTimeLoop, advance, every


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = VirtualTimeLoop()
        out = []
        loop.call_later(5.0, out.append, "late")
        loop.call_later(1.0, out.append, "early")
        loop.call_later(3.0, out.append, "mid")
        advance(loop)
        assert out == ["early", "mid", "late"]

    def test_fifo_among_simultaneous_events(self):
        loop = VirtualTimeLoop()
        out = []
        for i in range(10):
            loop.call_later(1.0, out.append, i)
        # armed later for the same instant: runs after all of them
        loop.call_later(0.5, lambda: loop.call_later(0.5, out.append, 10))
        advance(loop)
        assert out == list(range(11))

    def test_clock_advances_to_event_time(self):
        loop = VirtualTimeLoop()
        seen = []
        loop.call_later(2.5, lambda: seen.append(loop.time()))
        advance(loop)
        assert seen == [2.5]
        assert loop.time() == 2.5

    def test_schedule_at_absolute_time(self):
        loop = VirtualTimeLoop()
        advance(loop, until=10.0)
        seen = []
        loop.call_at(12.0, lambda: seen.append(loop.time()))
        advance(loop)
        assert seen == [12.0]

    def test_nan_delay_rejected(self):
        loop = VirtualTimeLoop()
        with pytest.raises(ValueError):
            loop.call_later(float("nan"), lambda: None)

    def test_zero_delay_allowed(self):
        loop = VirtualTimeLoop()
        out = []
        loop.call_later(0.0, out.append, 1)
        advance(loop)
        assert out == [1]

    def test_events_scheduled_during_run_execute(self):
        loop = VirtualTimeLoop()
        out = []

        def first():
            out.append("first")
            loop.call_later(1.0, out.append, "second")

        loop.call_later(1.0, first)
        advance(loop)
        assert out == ["first", "second"]
        assert loop.time() == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = VirtualTimeLoop()
        out = []
        h = loop.call_later(1.0, out.append, "x")
        h.cancel()
        advance(loop)
        assert out == []

    def test_cancel_returns_false_after_fired(self):
        # cancelling a timer that already fired is a harmless no-op
        # (soft-state timeouts rely on this)
        loop = VirtualTimeLoop()
        out = []
        h = loop.call_later(1.0, out.append, "fired")
        advance(loop)
        h.cancel()
        loop.call_later(1.0, out.append, "next")
        advance(loop)
        assert out == ["fired", "next"]

    def test_double_cancel_is_noop(self):
        loop = VirtualTimeLoop()
        out = []
        h = loop.call_later(1.0, out.append, "x")
        h.cancel()
        h.cancel()
        advance(loop)
        assert out == [] and h.cancelled()

    def test_pending_property(self):
        loop = VirtualTimeLoop()
        h = loop.call_later(1.0, lambda: None)
        assert not h.cancelled()
        h.cancel()
        assert h.cancelled()


class TestRun:
    def test_run_until_stops_clock(self):
        loop = VirtualTimeLoop()
        out = []
        loop.call_later(1.0, out.append, 1)
        loop.call_later(5.0, out.append, 2)
        advance(loop, until=3.0)
        assert out == [1]
        assert loop.time() == 3.0
        advance(loop)  # remaining event still fires later
        assert out == [1, 2]

    def test_run_until_advances_clock_with_no_events(self):
        loop = VirtualTimeLoop()
        advance(loop, until=7.0)
        assert loop.time() == 7.0

    def test_run_until_includes_events_armed_for_the_horizon(self):
        loop = VirtualTimeLoop()
        out = []
        loop.call_at(3.0, lambda: loop.call_later(0.0, out.append, "armed at 3.0"))
        advance(loop, until=3.0)
        assert out == ["armed at 3.0"]

    def test_a_callback_error_propagates(self):
        loop = VirtualTimeLoop()
        out = []
        loop.call_later(1.0, lambda: 1 / 0)
        loop.call_later(2.0, out.append, "later")
        with pytest.raises(ZeroDivisionError):
            advance(loop)
        assert out == []

    def test_run_not_reentrant(self):
        loop = VirtualTimeLoop()
        errors = []

        def recurse():
            try:
                advance(loop)
            except RuntimeError as e:
                errors.append(e)

        loop.call_later(1.0, recurse)
        advance(loop)
        assert len(errors) == 1


class TestPeriodicTask:
    def test_fires_at_interval(self):
        loop = VirtualTimeLoop()
        out = []
        every(loop, 2.0, lambda: out.append(loop.time()))
        advance(loop, until=7.0)
        assert out == [2.0, 4.0, 6.0]

    def test_start_after_overrides_first_delay(self):
        loop = VirtualTimeLoop()
        out = []
        every(loop, 2.0, lambda: out.append(loop.time()), start_after=0.5)
        advance(loop, until=5.0)
        assert out == [0.5, 2.5, 4.5]

    def test_stop_prevents_future_fires(self):
        loop = VirtualTimeLoop()
        out = []
        task = every(loop, 1.0, lambda: out.append(loop.time()))
        advance(loop, until=2.5)
        task.cancel()
        advance(loop, until=10.0)
        assert out == [1.0, 2.0]

    def test_stop_from_inside_callback(self):
        loop = VirtualTimeLoop()
        task_holder = {}

        def cb():
            task_holder["count"] = task_holder.get("count", 0) + 1
            if task_holder["count"] >= 3:
                task_holder["task"].cancel()

        task_holder["task"] = every(loop, 1.0, cb)
        advance(loop, until=100.0)
        assert task_holder["count"] == 3

    def test_fire_count(self):
        loop = VirtualTimeLoop()
        fired = []
        every(loop, 1.0, fired.append, "tick")
        advance(loop, until=4.5)
        assert len(fired) == 4

    def test_non_positive_interval_rejected(self):
        loop = VirtualTimeLoop()
        with pytest.raises(ValueError):
            every(loop, 0.0, lambda: None)


class TestVirtualTimeLoop:
    def test_clock_lands_exactly_on_the_timer_it_jumps_to(self):
        loop = vtime.VirtualTimeLoop()
        seen = []
        # 0.3 + (0.9 - 0.3) == 0.9000000000000001: a jump by the wait misses
        loop.call_at(0.3, lambda: loop.call_at(0.9, lambda: seen.append(loop.time())))
        vtime.advance(loop)
        assert seen == [0.9]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_loops_hold_no_file_descriptors(self):
        before = len(os.listdir("/proc/self/fd"))
        loops = [vtime.VirtualTimeLoop() for _ in range(100)]
        assert len(os.listdir("/proc/self/fd")) == before
        del loops

    def test_a_loop_dropped_unclosed_warns_of_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loop = vtime.VirtualTimeLoop()
            loop.call_later(1.0, lambda: None)
            del loop
            gc.collect()
        assert caught == []
