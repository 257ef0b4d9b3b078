"""The checks behind the paper's acceptance criteria, in one ordered registry.

Each entry is a function of a shared ``Context`` that returns its
``key: value`` detail lines and whether it passed.  ``eleech verify-all``
runs every entry and prints one line per summary key; ``eleech diagram
check`` and ``eleech relations verify`` print the detail lines of their
entries; ``tests/test_acceptance.py`` times the entries of each criterion.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import matmul

from . import isomorphism, lattices, reduction, relations
from .codes import golay12, qr_code, tetracode
from .diagram import NODE_HEIGHT_SQ, Diagram, _dot3, long_relator, presentation_generators
from .linalg import FORM_E8H, FORM_LEECH_H, from_flat, gram_of, mat_mul
from .reflections import canonical_root
from .rings import Eis, ONE, OMEGA, THETA, ZERO, SqrtThree


class Context:
    """The inputs the checks share, each built on first use and then kept;
    callers that already hold some of them pass them in."""

    def __init__(self, diagram=None, chg=None, generators=None, shell=None):
        given = {"diagram": diagram, "chg": chg, "generators": generators, "shell": shell}
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)

    @cached_property
    def diagram(self):
        return Diagram()

    @cached_property
    def chg(self):
        """E1 -> E2; raises ValueError unless a lattice bijection both ways."""
        return isomorphism.ChangeOfBasis(isomorphism.load_e1(), isomorphism.e2_matrix(self.diagram))

    @cached_property
    def generators(self):
        return reduction.build_generators(self.chg)

    @cached_property
    def shell(self):
        return lattices.first_shell_by_shapes()


def _flags(pairs):
    """``key: ok|FAIL`` lines for (key, passed) pairs, and whether all passed."""
    pairs = list(pairs)
    return [(k, "ok" if v else "FAIL") for k, v in pairs], all(v for _, v in pairs)


def names(summary_key):
    """The entries reported under one verify-all summary key, in order."""
    return [n for n, (key, _) in REGISTRY.items() if key == summary_key]


def run(entry_names, ctx):
    """The detail lines of the named entries, in order, and whether all
    passed.  An entry that raises fails with one ``error`` line."""
    lines, ok = [], True
    for name in entry_names:
        try:
            got, passed = REGISTRY[name][1](ctx)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            got, passed = [("error", f"{name}: {type(exc).__name__}: {exc}")], False
        lines += got
        ok = ok and passed
    return lines, ok


def summary(ctx):
    """verify-all's report: one ``key: ok|FAIL`` line per summary key, in
    registry order, each followed by the ``error`` lines of its entries."""
    lines, ok = [], True
    for key in dict.fromkeys(key for key, _ in REGISTRY.values()):
        got, passed = run(names(key), ctx)
        lines.append((key, "ok" if passed else "FAIL"))
        lines += [line for line in got if line[0] == "error"]
        ok = ok and passed
    return lines, ok


def _codes(ctx):
    c12 = golay12()
    we = c12.weight_enumerator()
    return _flags([
        ("tetracode_9", len(tetracode()) == 9),
        ("golay12_729", len(c12) == 729),
        ("c12_self_dual", c12.is_self_dual()),
        ("golay12_weights", we == {0: 1, 6: 264, 9: 440, 12: 24}),
        ("qr11_weights", qr_code(11).weight_enumerator() == we),
        ("golay24_weights",
         qr_code(23).weight_enumerator() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}),
    ])


def diagram_check_lines(d):
    """The exact identities of the 26-root diagram (the diagram entry)."""
    adj = d.adjacency
    return _flags([
        ("norms", all(d.form.ip(n.root, n.root) == Eis(-3, 0) for n in d.nodes)),
        ("adjacency_equals_incidence", all(
            adj[p.index][l.index] == (_dot3(l.triple, p.triple) == 0)
            for p in d.points
            for l in d.lines
        )),
        ("edge_value_minus_w_theta", all(
            d.form.ip(p.root, l.root) == -OMEGA * THETA
            for p in d.points
            for l in d.lines
            if adj[p.index][l.index]
        )),
        ("w_p_norm_3", d.form.ip(d.w_p, d.w_p) == Eis(3, 0)),
        ("ip_wp_wl", d.form.ip(d.w_p, d.w_l) == Eis(-4, 0) * THETA * OMEGA),
        ("disc_F_39", d.fixed_lattice().discriminant() == 39),
        ("rho_norm", d.form.ip12(d.rho_hat, d.rho_hat).to_sqrt3() == SqrtThree(-78, 104)),
        ("ip_wp_rho", d.form.ip12(d.w_p, d.rho_hat).to_sqrt3() == SqrtThree(0, 13)),
        ("heights_one", all(d.height_sq(n.root) == NODE_HEIGHT_SQ for n in d.nodes)),
        ("linear_relations", d.verify_linear_relations()),
    ])


def _automorphisms(ctx):
    d = ctx.diagram
    x, y = presentation_generators()
    gx, gy = d.g_action(x), d.g_action(y)
    xy = gx @ gy
    relator = long_relator(xy, gx @ gy.inverse(), matmul)
    s = d.sigma()
    return _flags([
        ("pgl3_presentation", (gx @ gx).is_identity() and (gy ** 3).is_identity()
         and (xy ** 13).is_identity() and relator.is_identity()),
        ("sigma_order_12", (s ** 12).is_identity()),
        ("sigma_squared_minus_w", (s @ s).scalar() == -OMEGA),
        ("forms_preserved", all(a.preserves_form(FORM_E8H) for a in (gx, gy, s))),
    ])


def _lattices_fast(ctx):
    return _flags([
        ("disc_leech_729", lattices.lattice_lambda().discriminant() == 729),
        ("disc_e8_9", lattices.lattice_e8().discriminant() == 9),
        ("disc_h_3", lattices.lattice_h().discriminant() == 3),
        ("disc_leech_h_2187", lattices.lattice_leech_h().discriminant() == 2187),
        ("disc_3e8_h_2187", lattices.lattice_3e8_h().discriminant() == 2187),
        ("shell_e8_240", len(lattices.shell_e8()) == 240),
    ])


def _leech_shell(ctx):
    shell = ctx.shell
    found = set(shell)
    return _flags([
        ("shell_196560", len(shell) == len(found) == 196560),
        ("two_methods_agree", found == lattices.first_shell_by_coset_search()),
        ("shell_norm_6", all(lattices.flat_norm6(f) for f in shell)),
        ("every_97th_in_leech", all(
            lattices.leech_contains(from_flat(f)) is not None for f in shell[::97])),
    ])


def _isomorphism(ctx):
    d, e1 = ctx.diagram, isomorphism.load_e1()
    m666 = isomorphism.m666_from_e1prime(isomorphism.load_e1prime())
    return _flags([
        ("gram_e1_e2", gram_of(e1, FORM_LEECH_H) == gram_of(isomorphism.e2_matrix(d), FORM_E8H)),
        ("preserves_form", ctx.chg.fwd.preserves_form(FORM_LEECH_H, FORM_E8H)),
        ("m666", gram_of(m666, FORM_LEECH_H) == gram_of(isomorphism.m666_reference(d), FORM_E8H)),
    ])


def _generation(ctx):
    d, gens = ctx.diagram, ctx.generators
    certs = reduction.certify_generators(d, gens)
    return _flags([
        ("certificates_50", len(certs) == 50),
        ("perturbations_at_most_1", max(c.perturbation_count() for c in certs) <= 1),
        ("replays", all(reduction.check_certificate(c, d, gens) for c in certs)),
        ("z_basis_24", reduction.is_z_basis(reduction.load_z_basis())),
    ])


def _min_height(ctx):
    d = ctx.diagram
    want = sorted({canonical_root(n.root) for n in d.nodes},
                  key=lambda v: tuple(x.key() for x in v))
    return _flags([("min_height_26_nodes", reduction.min_height_scan(d) == want)])


def _spider(ctx):
    ok, order = relations.spider_check(ctx.diagram)
    return [("spider_S20", "ok" if ok else "FAIL"), ("spider_true_order", order)], ok


def _deflation(ctx):
    rep = relations.deflate_check(ctx.diagram, transports=False)
    return _flags([("deflate_base", rep["base"]), ("deflate_A11", rep["A11"])])


def _deflation_transports(ctx):
    ok, gons = relations.deflate_transports(ctx.diagram)
    lines, ok = _flags([("deflate_transports", ok)])
    return [("deflate_12gons", gons)] + lines, ok


def _coxeter(ctx):
    rows = relations.coxeter_table(ctx.diagram)
    lines = [(f"coxeter_{name}", f"expected {exp} got {got}") for name, exp, got, _ in rows]
    return lines, all(row_ok for *_, row_ok in rows)


def _phi_flips(ctx):
    e1p = isomorphism.load_e1prime()
    m666 = relations.m666_from_e1prime(e1p)  # the roots verify_phi_flips flips
    return _flags([
        ("phi_flips_m666_gram",
         gram_of(m666, FORM_LEECH_H) == gram_of(isomorphism.m666_reference(ctx.diagram), FORM_E8H)),
        *relations.verify_phi_flips(e1p).items(),
    ])


def _braid_relations(ctx):
    """Adjacent node reflections braid and do not commute; the others
    commute and do not braid.  The w-reflections in r_i and r_j fix
    span(r_i, r_j)^perp pointwise, so when that span is nondegenerate a
    relation holds on L iff it holds on the span, where in the basis
    (r_i, r_j) the two reflections are 2x2 matrices."""
    d = ctx.diagram
    g, adj = d.gram, d.adjacency

    def coeff(x):  # phi_i(v) = v + coeff(<r_i, v>) r_i
        return ((ONE - OMEGA) * x).exact_div(Eis(3, 0))

    ok = all(g[i][i] == Eis(-3, 0) for i in range(len(g)))
    for i, j in combinations(range(len(g)), 2):
        phi_i = ((OMEGA, coeff(g[i][j])), (ZERO, ONE))
        phi_j = ((ONE, ZERO), (coeff(g[j][i]), OMEGA))
        ij, ji = mat_mul(phi_i, phi_j), mat_mul(phi_j, phi_i)
        braid = mat_mul(ij, phi_i) == mat_mul(ji, phi_j)
        ok = (ok and g[i][i] * g[j][j] != g[i][j] * g[j][i]
              and braid == adj[i][j] and (ij == ji) != adj[i][j])
    return _flags([("braid_relations", ok)])


def _rad_m666(ctx):
    adds = relations.rad_m666_covers_d(ctx.diagram)  # raises unless they cover all 26
    return [("rad_m666_covers_d", f"ok ({len(adds)} witnessed additions)")], True


#: entry name -> (verify-all summary key, entry), in the order verify-all runs them
REGISTRY = {
    "codes": ("codes", _codes),
    "diagram": ("diagram", lambda ctx: diagram_check_lines(ctx.diagram)),
    "automorphisms": ("automorphisms", _automorphisms),
    "lattices_fast": ("lattices_fast", _lattices_fast),
    "leech_shell": ("leech_shell_196560_two_methods", _leech_shell),
    "isomorphism": ("isomorphism", _isomorphism),
    "generation": ("generation_50_certificates", _generation),
    "min_height": ("min_height_26_nodes", _min_height),
    "spider": ("relations", _spider),
    "deflation": ("relations", _deflation),
    "deflation_transports": ("relations", _deflation_transports),
    "coxeter": ("relations", _coxeter),
    "phi_flips": ("relations", _phi_flips),
    "rad_m666": ("relations", _rad_m666),
    "braid_relations": ("relations", _braid_relations),
}
