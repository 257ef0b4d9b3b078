"""Benchmark of the eleech exact verifier.

    python3 perfbench/run.py --workload {certify,checks,conway} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout; the program is imported from its ``src``.
Load is closed-loop with one caller: each pass runs in a fresh interpreter
(``worker.py``), because a user pays import and lazy set-up on every
``eleech`` run, and the next pass starts when the previous one has ended.
Passes repeat until ``--seconds`` is spent (at least MIN_PASSES).

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` untraced passes run for half the time, then as many traced
passes on the same seed, and the last line is the per-layer metrics.  The
lines before it give the environment and details (quartiles, sample
counts, output digests).  Every output is checked; a failed check is a
failed operation.  The exit code is non-zero, with no result line, when
the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "checks", "conway")
MIN_PASSES = 2
#: the traced run measures with and without tracing in one run's time
MIN_TRACE_PASSES = 1
MIN_SETUPS = 4
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "op_p50_ms": "ms",
    "op_p98_ms": "ms",
    "peak_rss_mb": "MB",
}

#: traced boundaries reported as <name>.calls and/or <name>.self_s
LAYER_CALLS_AND_SELF = (
    "linalg.ip", "linalg.ip12", "linalg.aut_matmul", "linalg.mat_inverse",
    "reflections.reflect", "reflections.canonical_root",
    "lattices.in_l_e8h", "diagram.height_sq", "reduction.reduce",
    "reduction.check_certificate", "reduction.expand_positions",
    "reduction.find_within", "relations.deflate_unit", "relations.matrix_order",
)
LAYER_SELF = (
    "lattices.shell_shapes", "lattices.shell_coset", "isomorphism.change_of_basis",
    "reduction.conway_reduce", "reduction.cert_serialize", "reduction.cert_parse",
    "relations.spider_check", "relations.deflate_check", "relations.twelve_gon_orbit",
    "relations.verify_phi_flips", "cli.reduce_check",
)
RINGS_PROBE = ("eis_new_ns", "eis_mul_ns", "eis_frac_mul_ns", "cyclo12_mul_ns",
               "cyclo12_abs_sq_ns", "sqrt3_lt_ns")
COUNTS = ("descent_steps", "perturbations", "conway_steps")


def per_layer_units():
    units = {f"rings.{n}": "ns" for n in RINGS_PROBE}
    for name in LAYER_CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in LAYER_SELF:
        units[f"{name}.self_s"] = "s"
    units["codes.self_s"] = "s"
    for name in COUNTS:
        units[f"reduction.{name}"] = "count"
    units["reduction.reflect_yield"] = "ratio"
    units["trace.overhead"] = "x"
    return units


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def environment():
    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            sha = got.stdout.strip() or None
        except OSError:  # no git program
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "eleech").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(args, tmp, trace, setup_only=False):
    """One fresh interpreter: (set-up seconds, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(trace),
           "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines \
            or not lines[-1].startswith("RESULT "):
        raise BenchError(f"worker failed (exit {proc.returncode}) for {args.workload}")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def run_passes(args, tmp, trace, seconds=None, count=None, min_passes=MIN_PASSES):
    """Passes until ``seconds`` is spent (at least ``min_passes``), or ``count``."""
    passes, setups, walls = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        setup_s, res = spawn(args, tmp, trace)
        walls.append(perf_counter() - t0)
        setups.append((setup_s, res["setup_scale"]))
        passes.append(res)
        if count is not None:
            if len(passes) >= count:
                break
        elif len(passes) >= min_passes and \
                perf_counter() - start + statistics.median(walls) > seconds:
            break
    return passes, setups


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def tally(passes):
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if not o["ok"]]
    digests = {p["digest"] for p in passes}
    return ops, failed, digests


def end_to_end(args, tmp):
    passes, setups = run_passes(args, tmp, trace=0, seconds=args.seconds)
    while len(setups) < MIN_SETUPS:
        setup_s, res = spawn(args, tmp, trace=0, setup_only=True)
        setups.append((setup_s, res["setup_scale"]))
    ops, failed, digests = tally(passes)
    # percentiles of each pass's operation latencies, then the median over
    # passes: certify and checks have a few operations of very different
    # sizes, so percentiles pooled over passes would jump between them
    latencies = [[o["s"] * 1e3 for o in p["ops"] if o["s"] is not None] for p in passes]
    verdicts = [p["verdict_s"] for p in passes]
    scaled_setups = [s * k for s, k in setups]
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "verdict_s": statistics.median(verdicts),
        "op_p50_ms": statistics.median(statistics.median(v) for v in latencies),
        "op_p98_ms": statistics.median(nearest_rank(v, 0.98) for v in latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "passes": len(passes),
        "setups": len(setups),
        "verdict_s_quartiles": quartiles(verdicts),
        "setup_s_quartiles": quartiles(scaled_setups),
        "raw_verdict_s": statistics.median(p["raw_verdict_s"] for p in passes),
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "op_latency_samples": sum(len(v) for v in latencies),
        "digests": sorted(digests),
    }
    if args.workload == "certify":
        detail["replay_s"] = statistics.median(p["counts"]["replay_s"] for p in passes)
    return metrics, ops, failed, digests, detail


def per_layer(args, tmp):
    plain, _ = run_passes(args, tmp, trace=0, seconds=args.seconds / 2,
                          min_passes=MIN_TRACE_PASSES)
    traced, _ = run_passes(args, tmp, trace=1, count=len(plain))
    ops, failed, digests = tally(plain + traced)

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name in RINGS_PROBE:
        metrics[f"rings.{name}"] = med(p["rings"][name] for p in traced)
    for name in LAYER_CALLS_AND_SELF:
        metrics[f"{name}.calls"] = med(p["layers"][name][0] for p in traced)
    for name in LAYER_CALLS_AND_SELF + LAYER_SELF:
        metrics[f"{name}.self_s"] = med(p["layers"][name][1] for p in traced)
    metrics["codes.self_s"] = med(
        sum(v[1] for k, v in p["layers"].items() if k.startswith("codes.")) for p in traced)
    for name in COUNTS:
        metrics[f"reduction.{name}"] = med(p["counts"].get(name, 0) for p in traced)
    certificate_steps = [p["counts"].get("certificate_steps", 0) for p in traced]
    reflects = [p["counts"].get("write_reflects", 0) for p in traced]
    metrics["reduction.reflect_yield"] = (
        med(s / r for s, r in zip(certificate_steps, reflects)) if all(reflects) else 0.0)
    metrics["trace.overhead"] = (med(p["verdict_s"] for p in traced)
                                 / med(p["verdict_s"] for p in plain))
    detail = {"passes": len(plain), "traced_passes": len(traced),
              "spans": med(p["counts"]["spans"] for p in traced), "digests": sorted(digests)}
    return metrics, ops, failed, digests, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "eleech" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'eleech'}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env), flush=True)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, ops, failed, digests, detail = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    detail.update(workload=args.workload, seed=args.seed, size=args.size,
                  failures=[f"{o['name']}: {o['error']}" for o in failed][:20])
    print("detail: " + json.dumps(detail), flush=True)
    result = {
        # every pass, traced or not, must give the same outputs
        "correct": not failed and len(digests) == 1,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
