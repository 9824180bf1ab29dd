"""Every config field is set by some caller.

A field that no call ever passes is a constant dressed as a setting: it
widens the config, and the code behind its other values goes untested.
Each field of the configs below must appear as a keyword argument in
some call under ``src/``, ``bench/``, ``examples/`` or ``tests/`` — the
config's own constructor, ``dataclasses.replace`` or a function that
forwards it.  A value nobody varies belongs in a module constant.
"""

import ast
import dataclasses
import pathlib

from repro.core.bcp import BCPConfig
from repro.core.session import RecoveryConfig
from repro.net.cluster import ClusterConfig
from repro.net.measurement import MeasurementConfig
from repro.net.rpc import RetryPolicy

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "bench", "examples", "tests")
CONFIGS = (BCPConfig, RecoveryConfig, RetryPolicy, ClusterConfig, MeasurementConfig)


def _keywords(tree: ast.AST) -> set:
    return {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg is not None
    }


def _keywords_in_trees() -> set:
    found = set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            found |= _keywords(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_every_config_field_is_passed_by_some_call():
    passed = _keywords_in_trees()
    unset = [
        f"{config.__name__}.{f.name}"
        for config in CONFIGS
        for f in dataclasses.fields(config)
        if f.name not in passed
    ]
    assert unset == []


def test_the_check_sees_a_field_nobody_passes():
    tree = ast.parse("RetryPolicy(timeout=1.0)\ndataclasses.replace(cfg, retries=2)\nf(**kw)\n")
    assert _keywords(tree) == {"timeout", "retries"}
