"""One timed pass of a workload in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed N
--size full|tiny --trace 0|1 --tmp DIR [--setup-only]``.  It imports the
program from the checkout's ``src``, builds the workload's fixtures and
prints ``READY`` (the parent times interpreter start, import and set-up up
to that line), runs the pass, checks its outputs and prints one line
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = ("cli", "codes", "diagram", "isomorphism", "lattices", "linalg",
                   "reduction", "reflections", "relations", "rings", "textio")


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import eleech

    if Path(eleech.__file__).resolve().parent != ROOT / "src" / "eleech":
        raise ImportError(f"eleech was imported from {eleech.__file__}, not from the checkout")
    for name in PACKAGE_MODULES:
        importlib.import_module(f"eleech.{name}")


def rings_probe(seed, n=2000, repeats=5):
    """Median nanoseconds per operation of the scalar kernel on seeded
    operands (loop overhead included)."""
    from eleech.rings import Cyclo12, Eis, SqrtThree

    rng = random.Random(seed)

    def small():
        return rng.randint(-50, 50)

    pairs = [(small(), small()) for _ in range(n)]
    eis = [Eis(a, b) for a, b in pairs]
    eis2 = [Eis(small(), small()) for _ in range(n)]
    frac = [Eis(Fraction(small(), rng.randint(1, 9)), Fraction(small(), rng.randint(1, 9)))
            for _ in range(2 * n)]
    c12 = [Cyclo12(*(small() for _ in range(4))) for _ in range(2 * n)]
    s3 = [SqrtThree(Fraction(small(), rng.randint(1, 9)), Fraction(small(), rng.randint(1, 9)))
          for _ in range(2 * n)]
    cases = {
        "eis_new_ns": lambda: [Eis(a, b) for a, b in pairs],
        "eis_mul_ns": lambda: [x * y for x, y in zip(eis, eis2)],
        "eis_frac_mul_ns": lambda: [x * y for x, y in zip(frac[:n], frac[n:])],
        "cyclo12_mul_ns": lambda: [x * y for x, y in zip(c12[:n], c12[n:])],
        "cyclo12_abs_sq_ns": lambda: [x.abs_sq() for x in c12[:n]],
        "sqrt3_lt_ns": lambda: [x < y for x, y in zip(s3[:n], s3[n:])],
    }
    out = {}
    for name, fn in cases.items():
        samples = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            fn()
            samples.append((perf_counter_ns() - t0) / n)
        out[name] = sorted(samples)[repeats // 2]
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import speed

    with speed.Stopwatch() as watch:
        return measure(args, watch)


def measure(args, watch):
    def setup():
        import_program()
        from spans import Tracer
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        return wl, tracer, wl.setup(args.seed, args.size, args.tmp)

    (wl, tracer, fx), setup_raw, setup_scaled = watch.time(setup)
    print("READY", flush=True)
    if args.setup_only:
        print("RESULT " + json.dumps({"setup_scale": setup_scaled / setup_raw}), flush=True)
        return 0

    def calls(name):
        return tracer.calls[name] if tracer else 0

    raw0, scaled0 = watch.raw_s, watch.scaled_s
    ops, outputs, counts = wl.run(fx, calls, watch)
    raw_s, scaled_s = watch.raw_s - raw0, watch.scaled_s - scaled0
    layers = None
    if tracer:
        tracer.restore()
        # per-layer times are rescaled by the pass's own speed factor
        layers = {n: (c, s * scaled_s / raw_s) for n, (c, s) in tracer.snapshot().items()}
        counts["spans"] = tracer.span_count()

    from workloads import digest

    transcript = wl.summarize(outputs)
    problems = wl.validate(fx, outputs)
    for o in ops:
        found = problems.get(o["name"], [])
        if found:
            o["ok"] = False
            o["error"] = "; ".join(found)
    result = {
        "setup_scale": setup_scaled / setup_raw,
        "verdict_s": scaled_s,
        "raw_verdict_s": raw_s,
        "ops": ops,
        "counts": counts,
        "digest": digest(transcript),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = layers
        probe, probe_raw, probe_scaled = watch.time(lambda: rings_probe(args.seed))
        result["rings"] = {k: v * probe_scaled / probe_raw for k, v in probe.items()}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
