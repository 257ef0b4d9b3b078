"""Fast self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

Runs every workload at its tiny size (the certificate of g03 written and
replayed, the cheap named checks, two Conway roots) with and without
tracing, and checks that both report correct outputs with the same
digest, that every metric of ``BENCHMARK.json`` is emitted with its unit,
and that the benchmark refuses to run, without a result line, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestError(Exception):
    pass


def check(ok, message):
    if not ok:
        raise SelfTestError(message)


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


def check_result(out, declared, label):
    check(out.returncode == 0, f"{label}: exit {out.returncode}: {out.stderr[-500:]}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: outputs not correct: {lines[-2]}")
    check(set(result["metrics"]) == {m["name"] for m in declared}, f"{label}: metric names")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        check(isinstance(got["value"], numbers.Real), f"{label}: value of {m['name']}")
    return json.loads(lines[-2][len("detail: "):])


def check_refuses_without_program():
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("certify", 0, root=bare)
        check(out.returncode != 0, "ran without the program's sources")
        check(not any(line.startswith("{") for line in out.stdout.splitlines()),
              "printed a result without the program's sources")
    finally:
        shutil.rmtree(bare)


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in declared["workloads"]:
        name = wl["name"]
        plain = check_result(bench(name, 0), declared["end_to_end"], f"{name} untraced")
        traced = check_result(bench(name, 1), declared["per_layer"], f"{name} traced")
        check(len(plain["digests"]) == 1 and plain["digests"] == traced["digests"],
              f"{name}: traced and untraced outputs differ")
        print(f"selftest: {name} ok")
    check_refuses_without_program()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest: FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
