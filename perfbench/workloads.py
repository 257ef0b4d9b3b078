"""The workloads: set-up and one timed pass of each, plus the output checks.

Each pass runs in a fresh interpreter (see ``worker.py``).  ``setup``
builds the shared fixtures, ``run`` is the timed pass and returns the
operations it made and their raw outputs, ``summarize`` turns the outputs
into the JSON transcript whose digest must be the same on every pass,
traced or not, and ``validate`` checks them against the pinned references
in ``reference.json`` with the integer arithmetic of ``zw.py``.

Program functions are looked up on their modules at call time, so that a
traced pass goes through the wrappers ``spans.Tracer`` installs.

Pass sizes are fixed so that a pass takes seconds, not minutes: the full
computations (about a minute each for the 50 certificates and for the
minimal-height scan) do not fit the benchmark's time budget, so the long
pipelines run on pinned slices through the same functions.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import zw

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@functools.cache
def reference():
    return json.loads(REFERENCE_PATH.read_text())


#: generators certified per pass: a perturbation source certified without
#: perturbation (g03), a short one (g29) and two that need a perturbation
CERTIFY_SUBSET = {"full": (3, 29, 34, 50), "tiny": (3,)}
#: ``certify_generators``' default ``first``: these are certified without
#: perturbation and are the perturbation sources of all the others
PERTURB_SOURCES = (3, 4, 6)

#: (s, big-value unit indices, small-value unit indices) of the cases of the
#: minimal-height scan expanded by ``_expand_positions``, indices into
#: ``rings.UNITS``: all of s = 0, pattern (9,), which finds roots, and one
#: unit triple of s = 0, pattern (3, 3, 3), the case that takes nearly all
#: of the scan's time and finds none
SCAN_SLICE = tuple((0, (i,), ()) for i in range(6)) + ((0, (), (0, 0, 1)),)
#: every DEFLATE_STRIDE-th labeled 12-gon of the sorted orbit is transported
DEFLATE_STRIDE = 16
#: Coxeter types whose element order is computed: both infinite entries
#: (certified by the cyclotomic criterion) and the largest finite order
COXETER_SLICE = ("A5", "D4", "A10")

CONWAY_ROOTS = {"full": 132, "tiny": 2}
CONWAY_LENGTHS = range(2, 13)


def op(name, ok, seconds=None, error=None):
    """One operation: its name, verdict and latency in scaled seconds (None
    when it was not timed on its own)."""
    return {"name": name, "ok": bool(ok), "s": seconds, "error": error}


def _timed(watch, name, fn):
    """Time one operation; an exception from the program fails it."""
    def guarded():
        try:
            ok, out = fn()
            return ok, out, None
        except (ArithmeticError, AssertionError, LookupError, RuntimeError, ValueError) as exc:
            return False, None, f"{type(exc).__name__}: {exc}"

    (ok, out, error), _, seconds = watch.time(guarded)
    return op(name, ok, seconds, error), out


def digest(transcript) -> str:
    text = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _node_problems(diagram):
    """The diagram's node roots against the pinned canonical keys."""
    nodes = [zw.from_eis(n.root) for n in diagram.nodes]
    got = [zw.fmt(zw.canonical(v)) for v in nodes]
    if got != reference()["node_roots"]:
        return nodes, ["node roots differ from the pinned ones"]
    return nodes, []


# ---------------------------------------------------------------------------
# certify: write certificates, then replay them with `eleech reduce check`


class Certify:
    def setup(self, seed, size, tmp):
        from eleech import diagram, isomorphism, reduction

        d = diagram.Diagram()
        chg = isomorphism.ChangeOfBasis(isomorphism.load_e1(), isomorphism.e2_matrix(d))
        return {"diagram": d, "gens": reduction.build_generators(chg),
                "subset": CERTIFY_SUBSET[size], "dir": tmp / "certs"}

    def run(self, fx, calls, watch):
        from eleech import cli, reduction

        out_dir = fx["dir"]
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        d, gens = fx["diagram"], fx["gens"]
        red = reduction.HeightReducer(d)
        sources = [(j, gens[j - 1]) for j in PERTURB_SOURCES]
        ops, texts = [], {}
        steps = perturbations = 0
        reflects_before = calls("reflections.reflect")
        for j in fx["subset"]:
            name = f"g{j:02d}"

            def write():
                if j in PERTURB_SOURCES:
                    cert = red.reduce(gens[j - 1], (), max_perturb=0)
                else:
                    cert = red.reduce(gens[j - 1], sources, max_perturb=1)
                if cert is None:
                    return False, None
                text = cert.serialize()
                (out_dir / f"{name}.cert").write_text(text)
                return cert.perturbation_count() <= 1, (text, cert)

            o, out = _timed(watch, f"write {name}", write)
            ops.append(o)
            if out is not None:
                texts[name] = out[0]
                steps += sum(1 for s in out[1].steps if s[0] == "node")
                perturbations += out[1].perturbation_count()
        reflects = calls("reflections.reflect") - reflects_before
        buf = io.StringIO()

        def replay():
            with contextlib.redirect_stdout(buf):
                return cli.main(["reduce", "check", str(out_dir)])

        code, _, replay_s = watch.time(replay)
        report = buf.getvalue()
        bad = {line[len("bad: "):] for line in report.splitlines() if line.startswith("bad: ")}
        for name in texts:
            ops.append(op(f"replay {name}", code == 0 and f"{name}.cert" not in bad))
        counts = {"descent_steps": steps, "perturbations": perturbations,
                  "certificate_steps": steps + perturbations, "write_reflects": reflects,
                  "replay_s": replay_s}
        return ops, {"certificates": texts, "reduce_check": report}, counts

    def summarize(self, outputs):
        return outputs

    def validate(self, fx, outputs):
        nodes, node_problems = _node_problems(fx["diagram"])
        gens = [zw.from_eis(g) for g in fx["gens"]]
        problems = {}
        for name, text in outputs["certificates"].items():
            found = list(node_problems)
            if hashlib.sha256(text.encode()).hexdigest() != reference()["certificates"][name]:
                found.append("certificate differs from the pinned digest")
            if text.splitlines()[0] != f"target: {zw.fmt(gens[int(name[1:]) - 1])}":
                found.append(f"target is not generator {name}")
            found += zw.replay_certificate(text, nodes, gens)
            problems[f"write {name}"] = found
        want = reference()["reduce_check_report"].format(count=len(outputs["certificates"]))
        for name in outputs["certificates"]:
            problems[f"replay {name}"] = (
                [] if outputs["reduce_check"] == want else ["reduce check report differs"])
        return problems


# ---------------------------------------------------------------------------
# checks: the verify-all criteria other than generation


def _codes(fx):
    from eleech import codes

    c4, c12 = codes.tetracode(), codes.golay12()
    we = c12.weight_enumerator()
    ok = (len(c4) == 9 and len(c12) == 729 and we == {0: 1, 6: 264, 9: 440, 12: 24}
          and codes.qr_code(11).weight_enumerator() == we)
    return ok, sorted(we.items())


def _diagram(fx):
    from eleech import cli

    lines, ok = cli.diagram_check_lines(fx["diagram"])
    return ok, [f"{k}: {v}" for k, v in lines]


def _lattices_fast(fx):
    from eleech import lattices

    discs = [lattices.lattice_leech_h().discriminant(), lattices.lattice_3e8_h().discriminant()]
    e8 = len(lattices.shell_e8())
    return discs == [2187, 2187] and e8 == 240, [discs, e8]


def _shells(fx):
    from eleech import lattices

    shell = lattices.first_shell_by_shapes()
    other = lattices.first_shell_by_coset_search()
    return len(shell) == 196560 and set(shell) == other, shell


def _isomorphism(fx):
    from eleech import isomorphism as iso
    from eleech.linalg import FORM_E8H, FORM_LEECH_H

    d = fx["diagram"]
    chg = iso.ChangeOfBasis(iso.load_e1(), iso.e2_matrix(d))
    m666 = iso.m666_from_e1prime(iso.load_e1prime())
    ok = iso.gram_of(m666, FORM_LEECH_H) == iso.gram_of(iso.m666_reference(d), FORM_E8H)
    return ok, [zw.fmt(zw.from_eis(chg.to_e8h(v))) for v in iso.load_e1()]


def _min_height_slice(fx):
    from eleech import reduction, reflections
    from eleech.rings import UNITS, Eis

    d = fx["diagram"]
    points = [n.root for n in d.points]
    found = []
    for s, big, small in SCAN_SLICE:
        found += reduction._expand_positions(
            d, points, Eis(s, 0), tuple(UNITS[i] for i in big), tuple(UNITS[i] for i in small))
    nodes = {reflections.canonical_root(n.root) for n in d.nodes}
    return bool(found) and set(found) <= nodes, found


def _spider(fx):
    from eleech import relations

    ok, order = relations.spider_check(fx["diagram"])
    return ok, order


def _deflate(fx):
    from eleech import relations
    from eleech.rings import OMEGA2, unit_name

    d = fx["diagram"]
    rep = relations.deflate_check(d, transports=False)
    gons = sorted(relations.twelve_gon_orbit(d))
    units = []
    ok = rep["base"] and rep["A11"]
    for gon in gons[::DEFLATE_STRIDE]:
        u = relations.deflate_unit(d, tuple(d.nodes[i].root for i in gon))
        ok = ok and u is not None and (d.nodes[gon[0]].kind != "line" or u == OMEGA2)
        units.append(None if u is None else unit_name(u))
    return ok, [len(gons), len({frozenset(g) for g in gons}), units]


def _coxeter(fx):
    from eleech import relations

    d = fx["diagram"]
    orders = {}
    for name in COXETER_SLICE:
        emb = relations.free_embeddings(d, name, limit=1)[0]
        m = relations.GroupWord(d, [d.nodes[i].name for i in emb]).matrix()
        orders[name] = relations.matrix_order(m)
    return all(orders[n] == relations.COXETER_TABLE[n] for n in COXETER_SLICE), orders


def _phi_flips(fx):
    from eleech import isomorphism, relations

    rep = relations.verify_phi_flips(isomorphism.load_e1prime())
    return all(rep.values()), sorted(rep)


CHECKS = {
    "codes": _codes,
    "diagram": _diagram,
    "lattices_fast": _lattices_fast,
    "leech_shell_two_methods": _shells,
    "isomorphism": _isomorphism,
    "min_height_slice": _min_height_slice,
    "spider": _spider,
    "deflate": _deflate,
    "coxeter_slice": _coxeter,
    "phi_flips": _phi_flips,
}
TINY_CHECKS = ("codes", "diagram", "lattices_fast", "isomorphism", "spider", "phi_flips")


class Checks:
    def setup(self, seed, size, tmp):
        from eleech import diagram

        names = tuple(CHECKS) if size == "full" else TINY_CHECKS
        return {"diagram": diagram.Diagram(), "names": names}

    def run(self, fx, calls, watch):
        ops, outputs = [], {}
        for name in fx["names"]:
            o, outputs[name] = _timed(watch, name, lambda: CHECKS[name](fx))
            ops.append(o)
        return ops, outputs, {}

    def summarize(self, outputs):
        out = dict(outputs)
        if out.get("leech_shell_two_methods") is not None:
            out["leech_shell_two_methods"] = _shell_digest(out["leech_shell_two_methods"])
        if out.get("min_height_slice") is not None:
            out["min_height_slice"] = sorted(
                {zw.fmt(zw.canonical(zw.from_eis(r))) for r in out["min_height_slice"]})
        return out

    def validate(self, fx, outputs):
        _, node_problems = _node_problems(fx["diagram"])
        pinned = reference()["checks"]
        summary = self.summarize(outputs)
        problems = {}
        for name in fx["names"]:
            problems[name] = list(node_problems)
            if json.loads(json.dumps(summary[name])) != pinned[name]:
                problems[name].append(f"{name} output differs from the pinned reference")
        return problems


def _shell_digest(shell):
    return hashlib.sha256(repr(sorted(shell)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# conway: Conway reduction of seeded roots, the only user of LeechCVP


class Conway:
    def setup(self, seed, size, tmp):
        from eleech import diagram, isomorphism, reduction
        from eleech.rings import Eis

        d = diagram.Diagram()
        chg = isomorphism.ChangeOfBasis(isomorphism.load_e1(), isomorphism.e2_matrix(d))
        nodes = [zw.from_eis(n.root) for n in d.nodes]
        start = zw.from_eis(chg.to_e8h(reduction.R1))
        rng = random.Random(seed)
        roots = []
        lengths = list(CONWAY_LENGTHS)
        for i in range(CONWAY_ROOTS[size]):
            # word lengths cycle so that every seed has the same mix of lengths
            v = start
            for _ in range(lengths[i % len(lengths)]):
                eps = zw.EPS_BY_NAME[rng.choice(("w", "wbar"))]
                v = zw.reflect(rng.choice(nodes), eps, v, leech_scaled=False)
            roots.append(chg.to_leech_h(tuple(Eis(a, b) for a, b in v)))
        return {"roots": roots}

    def run(self, fx, calls, watch):
        from eleech import reduction

        ops, outputs = [], []
        for i, mu in enumerate(fx["roots"]):
            def reduce_root():
                steps, y = reduction.conway_reduce(mu, max_steps=mu[12].norm() + 2)
                return y[12].norm() == 1, (steps, y)

            o, out = _timed(watch, f"root {i}", reduce_root)
            ops.append(o)
            outputs.append(out)
        steps = sum(len(out[0]) for out in outputs if out is not None)
        return ops, outputs, {"conway_steps": steps}

    def summarize(self, outputs):
        return [None if out is None else
                [[zw.fmt(zw.from_eis(r)), eps] for r, eps in out[0]] + [zw.fmt(zw.from_eis(out[1]))]
                for out in outputs]

    def validate(self, fx, outputs):
        problems = {}
        for i, (mu, out) in enumerate(zip(fx["roots"], outputs)):
            if out is None:
                continue
            steps = [(zw.from_eis(r), eps) for r, eps in out[0]]
            problems[f"root {i}"] = zw.replay_conway(zw.from_eis(mu), steps, zw.from_eis(out[1]))
        return problems


WORKLOADS = {"certify": Certify(), "checks": Checks(), "conway": Conway()}
