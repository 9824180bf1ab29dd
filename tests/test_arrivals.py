"""Tests for arrival processes and Zipf popularity."""

import numpy as np
import pytest

from repro.sim.vtime import VirtualTimeLoop, advance
from repro.workload import (
    PoissonArrivals,
    RequestConfig,
    RequestGenerator,
    ZipfFunctionSampler,
    zipf_weights,
)


class TestPoissonArrivals:
    def test_mean_rate_matches(self):
        loop = VirtualTimeLoop()
        count = []
        proc = PoissonArrivals(loop, rate=5.0, callback=lambda: count.append(loop.time()),
                               rng=np.random.default_rng(0))
        proc.start()
        advance(loop, until=200.0)
        # E = 1000 arrivals; Poisson sd ~ 32
        assert 880 <= len(count) <= 1120
        assert proc.arrivals == len(count)

    def test_interarrivals_exponential_shape(self):
        loop = VirtualTimeLoop()
        times = []
        proc = PoissonArrivals(loop, rate=2.0, callback=lambda: times.append(loop.time()),
                               rng=np.random.default_rng(1))
        proc.start()
        advance(loop, until=500.0)
        gaps = np.diff(times)
        # exponential: mean ≈ sd
        assert abs(gaps.mean() - gaps.std()) < 0.15 * gaps.mean()

    def test_stop_halts(self):
        loop = VirtualTimeLoop()
        count = []
        proc = PoissonArrivals(loop, rate=10.0, callback=lambda: count.append(1),
                               rng=np.random.default_rng(2))
        proc.start()
        advance(loop, until=5.0)
        proc.stop()
        n = len(count)
        advance(loop, until=50.0)
        assert len(count) == n

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(VirtualTimeLoop(), rate=0.0, callback=lambda: None)

    def test_stop_discards_inflight_arrival(self):
        # stop() between arming and firing cancels the armed arrival:
        # the stream is truly closed
        loop = VirtualTimeLoop()
        count = []
        proc = PoissonArrivals(loop, rate=1.0, callback=lambda: count.append(1),
                               rng=np.random.default_rng(3))
        proc.start()  # one arrival armed, none fired yet
        proc.stop()
        advance(loop, until=100.0)
        assert count == []
        assert proc.arrivals == 0

    def test_stop_idempotent(self):
        proc = PoissonArrivals(VirtualTimeLoop(), rate=1.0, callback=lambda: None,
                               rng=np.random.default_rng(4))
        proc.start()
        proc.stop()
        proc.stop()  # second stop is a no-op, not an error
        assert not proc.running

    def test_restart_opens_new_generation(self):
        loop = VirtualTimeLoop()
        count = []
        proc = PoissonArrivals(loop, rate=10.0, callback=lambda: count.append(1),
                               rng=np.random.default_rng(5))
        proc.start()
        advance(loop, until=5.0)
        proc.stop()
        first = len(count)
        assert first > 0
        advance(loop, until=10.0)
        assert len(count) == first  # stopped stream stays silent
        proc.start()  # restart: a new chain of arrivals
        advance(loop, until=20.0)
        assert len(count) > first
        with pytest.raises(RuntimeError):
            proc.start()  # but double-start while running is still a bug

    def test_stale_generation_timer_ignored(self):
        # a timer armed before a stop must not fire arrivals after a restart
        loop = VirtualTimeLoop()
        count = []
        proc = PoissonArrivals(loop, rate=1.0, callback=lambda: count.append(1),
                               rng=np.random.default_rng(6))
        proc.start()  # life 1 arms its first timer
        proc.stop()
        proc.start()  # life 2 arms its own; life 1's is now stale
        advance(loop, until=2000.0)
        # every arrival was produced by exactly one live chain: had the
        # stale timer survived, two chains would double the rate
        assert proc.arrivals == len(count)
        gaps = len(count)
        assert 1700 <= gaps <= 2300  # one rate-1.0 chain, not two


class TestAsyncioScheduler:
    """The same arrival process on a running asyncio loop: wall time, open loop."""

    def test_schedules_on_wall_clock(self):
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            fired = asyncio.Event()
            proc = PoissonArrivals(loop, rate=100.0, callback=fired.set,
                                   rng=np.random.default_rng(8))
            t0 = loop.time()
            proc.start()
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            proc.stop()
            return loop.time() - t0

        elapsed = asyncio.run(scenario())
        first_gap = float(np.random.default_rng(8).exponential(1.0 / 100.0))
        assert elapsed >= 0.9 * first_gap > 0.0

    def test_drives_poisson_arrivals_open_loop(self):
        import asyncio

        async def scenario():
            count = []
            proc = PoissonArrivals(asyncio.get_running_loop(), rate=200.0,
                                   callback=lambda: count.append(1),
                                   rng=np.random.default_rng(7))
            proc.start()
            await asyncio.sleep(0.25)
            proc.stop()
            n = len(count)
            await asyncio.sleep(0.05)
            assert len(count) == n  # no arrivals after stop
            return n

        n = asyncio.run(scenario())
        assert n > 5  # ~50 expected; just prove the stream flowed


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(10, 0.8)
        assert w.sum() == pytest.approx(1.0)
        assert len(w) == 10

    def test_zero_skew_uniform(self):
        w = zipf_weights(5, 0.0)
        assert np.allclose(w, 0.2)

    def test_monotone_decreasing(self):
        w = zipf_weights(8, 1.2)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_higher_skew_more_concentrated(self):
        assert zipf_weights(10, 2.0)[0] > zipf_weights(10, 0.5)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)


class TestZipfFunctionSampler:
    def test_distinct_samples(self):
        sampler = ZipfFunctionSampler([f"f{i}" for i in range(10)], skew=1.0,
                                      rng=np.random.default_rng(0))
        for _ in range(20):
            out = sampler.sample(4)
            assert len(out) == len(set(out)) == 4

    def test_popular_functions_dominate(self):
        sampler = ZipfFunctionSampler([f"f{i}" for i in range(20)], skew=1.5,
                                      rng=np.random.default_rng(0))
        hits = sum(1 for _ in range(300) if "f0" in sampler.sample(1))
        # rank-0 weight at skew 1.5 over 20 items is ~0.38
        assert hits > 80

    def test_k_clamped(self):
        sampler = ZipfFunctionSampler(["a", "b"], rng=np.random.default_rng(0))
        assert sorted(sampler.sample(10)) == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ZipfFunctionSampler([])

    def test_generator_integration(self, overlay):
        gen = RequestGenerator(
            overlay,
            [f"F{i:03d}" for i in range(1, 21)],
            RequestConfig(function_count=(2, 2), popularity_skew=1.5),
            rng=np.random.default_rng(0),
        )
        counts = {}
        for _ in range(150):
            for fn in gen.next_request().function_graph.functions:
                counts[fn] = counts.get(fn, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # the top function should be requested far more than the median
        assert ranked[0] >= 3 * ranked[len(ranked) // 2]
