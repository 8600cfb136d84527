"""Self-test of the benchmark harness, at a tiny input scale.

Run from the repository root:  python3 bench/selftest.py

It checks that each workload passes and emits every metric named in
BENCHMARK.json with its unit (untraced and traced), that every span a
workload is expected to fire does fire, that traced outputs hash like
untraced ones, that a traced function which no longer exists is reported
absent, and that a corrupted output cell and a killed stage each count as a
failed stage run.  Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import run

SCALE = 0.1
SECONDS = 1.0


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_imports() -> None:
    for path in sorted(run.BENCH.glob("*.py")):
        if path.name == "tracer.py":
            continue
        text = path.read_text(encoding="utf-8")
        expect(not re.search(r"^\s*(import|from)\s+rankaudit", text, re.MULTILINE),
               f"{path.name} does not import rankaudit")


def check_workload(workload: str) -> None:
    plain = run.run(workload, 7, SECONDS, trace=False, scale=SCALE)
    expect(plain["correct"] and plain["failed"] == 0, f"{workload}: untraced run passes its checks")
    units = {name: m["unit"] for name, m in plain["metrics"].items()}
    expect(units == declared("end_to_end"), f"{workload}: emits every end-to-end metric with its unit")

    traced = run.run(workload, 7, SECONDS, trace=True, scale=SCALE)
    expect(traced["correct"], f"{workload}: traced run passes, traced outputs hash like untraced ones")
    units = {name: m["unit"] for name, m in traced["metrics"].items()}
    expect(units == declared("per_layer"), f"{workload}: emits every per-layer metric with its unit")
    expect(traced["silent"] == [] and traced["absent"] == [], f"{workload}: every expected span fires")
    expect(traced["sha256"] == plain["sha256"], f"{workload}: outputs hash the same traced and untraced")
    if workload == "generate-rerank":
        calls = traced["metrics"]["detgreedy.detgreedy_rerank.calls"]["value"]
        sim = traced["metrics"]["simulate.generate.queries"]["value"] * 5
        expect(calls == sim + 1, "detgreedy spans fire through the simulate and cli bindings")


def check_faults() -> None:
    corrupted = run.run("daily-audit", 7, SECONDS, trace=False, scale=SCALE, faults={"export": "corrupt"})
    expect(not corrupted["correct"] and corrupted["failed"] == 1, "a corrupted output cell counts as one failure")
    killed = run.run("daily-audit", 7, SECONDS, trace=False, scale=SCALE, faults={"churn": "kill"})
    expect(not killed["correct"] and killed["failed"] == 1, "a killed stage counts as one failure")


def check_absent() -> None:
    work = run.BENCH / "work" / f"selftest-absent-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = work / "spans.json"
    empty = run.inputs.write_empty(work)
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import tracer; "
            "tracer.TRACED += (('parallel', 'function_that_was_removed'),); sys.exit(tracer.main())")
    result = subprocess.run([sys.executable, "-c", code, str(run.BENCH), str(spans), "validate", "validate",
                             str(empty), "-o", str(work / "out.json")], env=run.child_env(), capture_output=True)
    trace = json.loads(spans.read_text(encoding="utf-8")) if spans.is_file() else {}
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    expect(result.returncode == 0 and trace.get("absent") == ["parallel.function_that_was_removed"],
           "a traced function that no longer exists is reported absent")


def main() -> int:
    run.preflight()
    check_imports()
    check_absent()
    for workload in run.WORKLOADS:
        check_workload(workload)
    check_faults()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
