"""Write ``reference.json``, the outputs the benchmark's checks compare with.

Run once from the root of a checkout whose outputs are known good:

    python3 perfbench/make_reference.py

It writes all 50 certificates with ``eleech reduce run --all`` and pins
their sha256 digests, the canonical keys of the 26 node roots, the report
``eleech reduce check`` prints for a directory of good certificates, and
the transcript of every named check of the ``checks`` workload.  Before
writing, it checks the pins against the values stated in the paper.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys

import worker
import workloads
import zw

PAPER_COXETER = {"A5": "infinite", "D4": "infinite", "A10": 66}


def main():
    worker.import_program()
    from eleech import cli, diagram, reduction

    tmp = worker.ROOT / ".perfbench_tmp" / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["reduce", "run", "--all", "--out", str(tmp)]) != 0:
                raise SystemExit("reduce run failed")
        certificates = {
            f.stem: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(tmp.glob("g*.cert"))
        }
    finally:
        shutil.rmtree(tmp)
    if len(certificates) != 50:
        raise SystemExit(f"expected 50 certificates, got {len(certificates)}")

    d = diagram.Diagram()
    node_roots = [zw.fmt(zw.canonical(zw.from_eis(n.root))) for n in d.nodes]
    scan = {zw.fmt(zw.canonical(zw.from_eis(r))) for r in reduction.min_height_scan(d)}
    if scan != set(node_roots) or len(scan) != 26:
        raise SystemExit("the minimal-height scan does not return the 26 node roots")

    checks = workloads.Checks()
    fx = checks.setup(0, "full", tmp)
    ops, outputs, _ = checks.run(fx, lambda name: 0)
    failed = [o["name"] for o in ops if not o["ok"]]
    if failed:
        raise SystemExit(f"checks failed: {failed}")
    pinned = json.loads(json.dumps(checks.summarize(outputs)))
    if not set(pinned["min_height_slice"]) <= scan:
        raise SystemExit("the scan slice finds a root outside the 26")
    if pinned["coxeter_slice"] != PAPER_COXETER or pinned["spider"] != 20:
        raise SystemExit("Coxeter or spider orders differ from the paper")
    if pinned["deflate"][:2] != [11232, 468]:
        raise SystemExit("unexpected 12-gon orbit")

    ref = {
        "certificates": certificates,
        "node_roots": node_roots,
        "reduce_check_report": "checked: {count}\nfailures: 0\nRESULT: PASS\n",
        "checks": pinned,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
