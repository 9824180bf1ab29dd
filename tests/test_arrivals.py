"""Tests for Zipf popularity."""

import numpy as np
import pytest

from repro.workload import (
    RequestConfig,
    RequestGenerator,
    ZipfFunctionSampler,
    zipf_weights,
)


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
