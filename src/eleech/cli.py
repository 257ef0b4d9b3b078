"""Command-line interface.

Reports are line-oriented ``key: value`` text ending in ``RESULT: PASS``
or ``RESULT: FAIL``.  Exit status: 0 all checks pass, 1 verification
failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eleech",
        description="Exact machinery for the Lorentzian Eisenstein Leech "
        "lattice, its 26-root diagram and reflection group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="ternary/binary code utilities")
    sub_codes = p_codes.add_subparsers(dest="subcommand", required=True)
    p_dump = sub_codes.add_parser("dump", help="emit the word list")
    p_dump.add_argument("--code", choices=("c4", "c12", "c24"), required=True)

    p_lat = sub.add_parser("lattice", help="lattice shells")
    sub_lat = p_lat.add_subparsers(dest="subcommand", required=True)
    p_shell = sub_lat.add_parser("shell", help="enumerate a shell")
    p_shell.add_argument("--lattice", choices=("leech", "e8"), required=True)
    p_shell.add_argument("--norm", type=int, required=True)
    p_shell.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagram", help="the 26-root diagram")
    sub_diag = p_diag.add_subparsers(dest="subcommand", required=True)
    sub_diag.add_parser("dump", help="emit the 26 roots and incidence")
    sub_diag.add_parser("check", help="run all exact diagram identities")

    p_isom = sub.add_parser("isom", help="the explicit isomorphism")
    sub_isom = p_isom.add_subparsers(dest="subcommand", required=True)
    p_iv = sub_isom.add_parser("verify", help="verify E1/E2 and emit C")
    p_iv.add_argument("--e1", default=None, help="E1 matrix file (default: shipped)")
    p_iv.add_argument("--e2", default=None, help="E2 matrix file (default: built in)")
    p_iv.add_argument("--out", default=None, help="write C here (theta-cleared)")
    p_is = sub_isom.add_parser("search", help="rediscover a basis from the shell")
    p_is.add_argument("--shell", default=None, help="shell file (default: computed)")

    p_red = sub.add_parser("reduce", help="height-reduction certificates")
    sub_red = p_red.add_subparsers(dest="subcommand", required=True)
    p_rr = sub_red.add_parser("run", help="certify generators")
    p_rr.add_argument("--all", action="store_true", help="ignored; all 50 are always written")
    p_rr.add_argument("--out", default="certificates")
    p_rc = sub_red.add_parser("check", help="replay certificates from a directory")
    p_rc.add_argument("dir")

    p_rel = sub.add_parser("relations", help="spider / deflation / Coxeter table")
    sub_rel = p_rel.add_subparsers(dest="subcommand", required=True)
    sub_rel.add_parser("verify")

    sub.add_parser("verify-all", help="every verification at once")

    args = parser.parse_args(argv)
    from .textio import InputError

    handler = {
        "codes": _cmd_codes,
        "lattice": _cmd_lattice,
        "diagram": _cmd_diagram,
        "isom": _cmd_isom,
        "reduce": _cmd_reduce,
        "relations": _cmd_relations,
        "verify-all": _cmd_verify_all,
    }[args.command]
    try:
        return handler(args)
    # a missing, undecodable or malformed input, an unwritable output
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _report(lines, passed: bool) -> int:
    for k, v in lines:
        print(f"{k}: {v}")
    print(f"RESULT: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_codes(args) -> int:
    from .codes import tetracode, golay12, qr_code

    code = {"c4": tetracode, "c12": golay12, "c24": lambda: qr_code(23)}[args.code]()
    for w in code.words():
        print(" ".join(str(d) for d in w))
    return 0


def _cmd_lattice(args) -> int:
    from . import lattices
    from .linalg import from_flat
    from .textio import format_vector

    if args.lattice == "e8":
        if args.norm != -3:
            print("only the first shell (norm -3) of E8 is supported", file=sys.stderr)
            return 2
        rows = lattices.shell_e8()
        text = "\n".join(format_vector(v) for v in rows) + "\n"
    else:
        if args.norm != -6:
            print("only the first shell (norm -6) of Leech is supported", file=sys.stderr)
            return 2
        rows = lattices.first_shell_by_shapes()
        text = "\n".join(
            format_vector(from_flat(f)) for f in sorted(rows)
        ) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"count: {len(rows)}")
        print(f"out: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diagram(args) -> int:
    from .diagram import Diagram
    from .textio import format_vector

    d = Diagram()
    if args.subcommand == "dump":
        for node in d.nodes:
            print(f"{node.name} [{node.kind}] {format_vector(node.root)}")
        print("incidence:")
        adj = d.adjacency
        for i in range(26):
            print("".join("1" if adj[i][j] else "." for j in range(26)))
        return 0
    from . import checks

    return _report(*checks.run(checks.names("diagram"), checks.Context(diagram=d)))


def diagram_check_lines(d):
    """The diagram entry of ``checks``, under the name perfbench calls."""
    from .checks import diagram_check_lines

    return diagram_check_lines(d)


def _cmd_isom(args) -> int:
    from .diagram import Diagram
    from .textio import format_matrix, read_matrix
    from . import isomorphism as iso

    d = Diagram()
    if args.subcommand == "verify":
        e1 = read_matrix(args.e1, 14) if args.e1 else iso.load_e1()
        e2 = read_matrix(args.e2, 14) if args.e2 else iso.e2_matrix(d)
        try:
            chg = iso.ChangeOfBasis(e1, e2)
        except ValueError as exc:
            return _report([("error", str(exc))], False)
        out_lines = [
            ("gram_equal", "ok"),
            ("lattice_bijection", "ok"),
            ("theta_power", chg.fwd.k),
        ]
        text = f"# C * theta^{chg.fwd.k}; apply to column vectors and divide\n"
        text += format_matrix(chg.fwd.mat)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
            out_lines.append(("out", args.out))
        else:
            sys.stdout.write(text)
        return _report(out_lines, True)
    from . import lattices
    from .linalg import to_flat

    def first_shell(v):  # a norm -6 Leech vector
        flat = to_flat(v)
        return lattices.flat_norm6(flat) and lattices.leech_contains(flat) is not None

    if args.shell:
        rows = read_matrix(args.shell, 12, first_shell)
        shell = [to_flat(r) for r in rows]
    else:
        shell = lattices.first_shell_by_shapes()
    res = iso.run_search(shell, iso.e2_matrix(d), log=lambda *a: print(*a))
    if res is None:
        return _report([("error", "no simplex of the shell gives 8 candidates")], False)
    return _report(
        [
            ("candidate_count", res.candidate_count),
            ("gram_matches_e2", "ok"),
        ],
        res.candidate_count == 8,
    )


def _cmd_reduce(args) -> int:
    from .checks import Context
    from .reduction import certify_generators, check_certificate, ReductionCertificate
    from .textio import read_text

    ctx = Context()
    if args.subcommand == "run":
        certs = certify_generators(ctx.diagram, ctx.generators)
        os.makedirs(args.out, exist_ok=True)
        for j, cert in enumerate(certs, start=1):
            with open(os.path.join(args.out, f"g{j:02d}.cert"), "w") as f:
                f.write(cert.serialize())
        lines = [
            ("certificates", len(certs)),
            ("max_perturbations", max(c.perturbation_count() for c in certs)),
            ("out", args.out),
        ]
        return _report(lines, max(c.perturbation_count() for c in certs) <= 1)
    names = sorted(
        n for n in os.listdir(args.dir) if n.endswith(".cert")
    )
    if not names:
        print(f"no certificates in {args.dir}", file=sys.stderr)
        return 2
    d, gens = ctx.diagram, ctx.generators
    bad = []
    for n in names:
        try:
            cert = ReductionCertificate.parse(read_text(os.path.join(args.dir, n)))
        except ValueError:  # malformed, or not text (InputError)
            bad.append(n)
            continue
        # gNN.cert certifies generator NN
        m = re.fullmatch(r"g(\d\d)\.cert", n)
        j = int(m.group(1)) if m else 0
        if not (1 <= j <= len(gens) and cert.target == gens[j - 1]
                and check_certificate(cert, d, gens)):
            bad.append(n)
    lines = [("checked", len(names)), ("failures", len(bad))]
    for n in bad:
        lines.append(("bad", n))
    return _report(lines, not bad)


def _cmd_relations(args) -> int:
    from . import checks

    return _report(*checks.run(checks.names("relations"), checks.Context()))


def _cmd_verify_all(args) -> int:
    from . import checks

    t_start = time.perf_counter()
    lines, ok = checks.summary(checks.Context())
    lines.append(("elapsed_seconds", f"{time.perf_counter() - t_start:.1f}"))
    return _report(lines, ok)


if __name__ == "__main__":
    sys.exit(main())
