"""The benchmark's tracer patches this program from outside, by name.

``bench/trace.py`` replaces layer-boundary functions at the names their
callers resolve — ``BCP._admit``, ``repro.net.peer.merge_probes``,
``PeerDaemon._spawn`` and so on.  A renamed or moved target makes
``Tracer.install()`` raise; this test installs and removes the tracer so
such a rename fails here instead of only in a traced benchmark run.
"""

import importlib.util
import pathlib

TRACE = pathlib.Path(__file__).parent.parent / "bench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_targets", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves_and_is_restored():
    tracer = _load_trace().Tracer()
    tracer.install()  # raises on a target that no longer resolves
    try:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, attr
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
