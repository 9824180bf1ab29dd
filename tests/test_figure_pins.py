"""The figures' numbers, pinned at full precision.

Each figure driver runs at its ``python -m repro <fig> --quick`` scale,
and every number in its result object (success ratios, ψλ-ranked
delays, setup times, message counts, and the config that produced them)
is written out as ``path=repr(value)``, one line each, in a canonical
order, and hashed.  The printed tables round (whole milliseconds, three
decimals), so a change that moves a value in its last bit passes them;
it fails here.

The canonical order never depends on the hash seed: dict items and set
members are sorted, and no ``set`` / ``frozenset`` repr is hashed (a
service graph's signature is one, and iterates in hash order).  The pins
hold under every ``PYTHONHASHSEED``.  A failure prints the lines it
hashed, so the moved numbers can be read off a diff against the parent.

They are pinned per interpreter version, like the count gate's call
pins: Python 3.12's ``sum()`` of floats is compensated, so a sum can
differ in its last bit between interpreters.  Another version skips,
printing its digest.
"""

import dataclasses
import hashlib
import sys

import pytest

from repro.experiments.fig8_success_ratio import Fig8Config, run_fig8
from repro.experiments.fig10_setup_time import Fig10Config, run_fig10
from repro.experiments.fig11_budget_sweep import Fig11Config, run_fig11
from repro.experiments.overhead_comparison import OverheadConfig, run_overhead

# the --quick configs of python -m repro
FIGURES = {
    "fig8": (
        run_fig8,
        Fig8Config(
            n_ip=200, n_peers=40, n_functions=12, workloads=(2, 4, 6),
            duration=10, probing_fractions=(0.2,), max_budget=60,
        ),
    ),
    "fig10": (run_fig10, Fig10Config(n_peers=40, requests_per_point=15)),
    "fig11": (run_fig11, Fig11Config(n_peers=40, budgets=(10, 100, 500), requests_per_point=8)),
    "overhead": (
        run_overhead,
        OverheadConfig(n_ip=200, n_peers=40, n_functions=12, duration=8, workload=2),
    ),
}

# SHA-256 over the lines of each figure's result, per interpreter (major, minor)
PINS = {
    (3, 11): {
        "fig8": "9cfebb8937f1853ec55908651913587563de043c9e82bad7485ae14110a9a3d7",
        "fig10": "4d5a3038a2f2a3930dcae54cff265dd1b94d33e8e78b8a851e8a4177055445bc",
        "fig11": "8f52d68b05f3b5a9eb73ece86a0a79d86c5e21c44e725be3a48dadaf853c147e",
        "overhead": "43ff1b2d30b85d43b38782b44e198a5ac9775670810138a3211a1dc8f81e0a40",
    },
}


def _lines(obj, path: str = ""):
    """``path=repr(value)`` for every number and label in ``obj``."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        yield f"{path}={obj!r}"
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _lines(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0])):
            yield from _lines(value, f"{path}[{key!r}]")
    elif isinstance(obj, (set, frozenset)):
        for i, value in enumerate(sorted(obj, key=repr)):
            yield from _lines(value, f"{path}{{{i}}}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _lines(value, f"{path}[{i}]")
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__} at {path}")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_numbers_are_the_pinned_ones(name):
    run, config = FIGURES[name]
    lines = list(_lines(run(config), name))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    pins = PINS.get(sys.version_info[:2])
    if pins is None:
        pytest.skip(f"no figure pins for Python {sys.version_info[:2]}: {name} hashed to {digest}")
    assert digest == pins[name], f"{name} hashed to {digest}:\n" + "\n".join(lines)


def test_the_canonical_form_does_not_depend_on_set_order():
    a = {"x": frozenset({("f1", 3), ("f2", 1)}), "y": [1.5, 2]}
    b = {"y": [1.5, 2], "x": frozenset({("f2", 1), ("f1", 3)})}
    assert list(_lines(a)) == list(_lines(b))
    assert not any("frozenset" in line for line in _lines(a))
