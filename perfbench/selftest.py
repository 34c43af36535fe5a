"""The benchmark's own test: every workload end to end at tiny scale.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and
checks the result object (exact keys, ``correct``, no failures), that
the metric names and units are exactly the ones ``BENCHMARK.json``
declares, that the work checks passed, and that every layer the
workload runs reports a non-zero traced metric.  It then checks that
two runs at one seed do identical work, and that a checkout without the
program makes the benchmark exit non-zero without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, script=None):
    command = [
        sys.executable,
        str(script or HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(SPEC["run_seconds"]),
        "--trace",
        str(trace),
        "--tiny",
    ]
    return subprocess.run(
        command, cwd=str(cwd), capture_output=True, text=True, timeout=300
    )


def check_run(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise AssertionError(f"{where} exited {done.returncode}: {done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    details, outcome = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}, where
    assert outcome["correct"] is True, where
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1, where
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in outcome["metrics"].items()}
    assert got == expected, f"{where}: metrics {sorted(set(got) ^ set(expected))}"
    for name, metric in outcome["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value >= 0, (where, name)
        if not trace:
            assert value > 0, f"{where}: {name} is zero"
    assert details["failures"] == [], where
    if trace:
        sys.path.insert(0, str(HERE))
        from run import WORKLOADS

        for name in WORKLOADS[workload].nonzero_layers:
            assert outcome["metrics"][name]["value"] > 0, f"{where}: {name} is zero"
    work = details["work"]
    assert work["interactions_simulated"] > 0, where
    assert all(count > 0 for count in work["requests"].values()), where
    return details


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    works = {}
    for name in names:
        for trace in (0, 1):
            details = check_run(name, trace)
            works[(name, trace)] = details["work"]
            print(f"ok  {name} --trace {trace}", flush=True)
    for name in names:
        assert works[(name, 0)] == works[(name, 1)], f"{name}: work differs"
    sweeps = [n for n in ("paper_sweep", "parallel_sweep") if n in names]
    if len(sweeps) == 2:
        assert works[(sweeps[0], 0)] == works[(sweeps[1], 0)], "grids differ"
    print("ok  work repeats across runs and executors", flush=True)

    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path,
                bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        done = run(names[0], 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert done.returncode != 0, "ran without the program"
        assert '"correct"' not in done.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok  exits non-zero without the program", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
