"""Unit tests for deterministic randomness utilities."""

import numpy as np
import pytest

from repro.sim.rng import as_generator, spawn


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a, b = as_generator(42), as_generator(42)
        assert a.random() == b.random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_seed_sequence(self):
        g = as_generator(np.random.SeedSequence(5))
        assert isinstance(g, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawn:
    def test_children_are_independent_and_deterministic(self):
        kids1 = spawn(as_generator(7), 3)
        kids2 = spawn(as_generator(7), 3)
        v1 = [k.random() for k in kids1]
        v2 = [k.random() for k in kids2]
        assert v1 == v2
        assert len(set(v1)) == 3  # distinct streams

    def test_zero_children(self):
        assert spawn(as_generator(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(as_generator(0), -1)
