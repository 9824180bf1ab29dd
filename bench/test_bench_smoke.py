"""Smoke test of the benchmark itself (``pytest bench/``; not in tier-1).

Runs every workload at about 1/20 scale in both trace modes and checks the
contract between ``run.py`` and ``BENCHMARK.json``: each declared metric
is emitted exactly once per workload, with its declared unit, and nothing
undeclared is emitted.
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_every_declared_metric_is_emitted_once(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--json", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]

    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in list(declared) + workloads)
    assert len(set(workloads)) == len(workloads)
    assert len(declared) == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])

    printed = {}
    for line in done.stdout.splitlines():
        workload, metric, value, unit = line.split()
        float(value)
        assert (workload, metric) not in printed, f"{workload} {metric} printed twice"
        printed[workload, metric] = unit
    assert printed == {(w, m): u for w in workloads for m, u in declared.items()}

    report = json.loads(out.read_text())
    assert sorted(report) == sorted(workloads)
    for workload, entry in report.items():
        assert entry["correct"] and entry["attempted"] >= 1 and entry["failed"] == 0, workload
        assert {m: v["unit"] for m, v in entry["metrics"].items()} == declared
