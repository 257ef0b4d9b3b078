import re

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import (
    Eis, Cyclo12, SqrtThree, ONE, OMEGA, OMEGA2, THETA, ZERO, XI, SQRT3_C, UNITS,
)
from eleech import diagram as diagram_module
from eleech.cli import main
from eleech.diagram import (
    NODE_HEIGHT_SQ, PLANE, Diagram, presentation_generators, plane_permutation, orbit,
    local_max_probe, _dot3,
)
from eleech.reflections import reflect
from eleech.linalg import FORM_E8H, LorentzForm

MINUS3 = Eis(-3, 0)


def test_all_roots_norm_minus_3(diagram):
    for n in diagram.nodes:
        assert diagram.form.ip(n.root, n.root) == MINUS3


def test_node_a_coordinates(diagram):
    a = diagram.by_name["a"]
    assert a.root == (ZERO,) * 12 + (ONE, OMEGA2)


def test_every_node_has_four_neighbors(diagram):
    for n in diagram.nodes:
        assert len(diagram.neighbors(n.index)) == 4


def test_derived_data_are_built_once_on_first_use(monkeypatch):
    """A new Diagram pairs no roots; its first Gram matrix pairs each of
    the 26 * 27 / 2 unordered pairs of roots once, and a derived value read
    again is the kept one, with no pairing."""
    calls = []
    ip = LorentzForm.ip
    monkeypatch.setattr(LorentzForm, "ip", lambda self, u, v: calls.append(1) or ip(self, u, v))
    d = Diagram()
    assert len(calls) == 0
    d.gram
    assert len(calls) == 351
    names = ("gram", "adjacency", "rho_row", "root_basis", "node_kernel")
    first = {name: getattr(d, name) for name in names}
    calls.clear()
    assert all(getattr(d, name) is first[name] for name in names)
    assert calls == []


def test_adjacency_is_projective_incidence(diagram):
    adj = diagram.adjacency
    for p in diagram.points:
        for l in diagram.lines:
            inc = _dot3(l.triple, p.triple) == 0
            assert adj[p.index][l.index] == inc
    # no point-point or line-line edges
    for u in diagram.points:
        for v in diagram.points:
            if u.index != v.index:
                assert not adj[u.index][v.index]


def test_m666_subdiagram_edges(diagram):
    names = ["a"] + [f"{x}{i}" for i in (1, 2, 3) for x in "bcdef"]
    expected = set()
    for i in (1, 2, 3):
        chain = ["a", f"b{i}", f"c{i}", f"d{i}", f"e{i}", f"f{i}"]
        expected |= {frozenset(p) for p in zip(chain, chain[1:])}
    adj = diagram.adjacency
    got = {
        frozenset((x, y))
        for x in names
        for y in names
        if x < y and adj[diagram.by_name[x].index][diagram.by_name[y].index]
    }
    assert got == expected


def test_uniform_edge_inner_product(diagram):
    adj = diagram.adjacency
    for p in diagram.points:
        for l in diagram.lines:
            if adj[p.index][l.index]:
                assert diagram.form.ip(p.root, l.root) == -OMEGA * THETA


def test_linear_relations_lines_give_w_p(diagram):
    """sqrt3 rho_i + Sigma_i = w_P for every line (exactly)."""
    adj = diagram.adjacency
    for l in diagram.lines:
        s = tuple(
            (OMEGA2 * THETA) * x for x in l.root
        )  # sqrt3 * xi * l = w^2 theta l
        for p in diagram.points:
            if adj[l.index][p.index]:
                s = tuple(a + b for a, b in zip(s, p.root))
        assert s == diagram.w_p


def test_linear_relations_points_give_xi_w_l(diagram):
    """sqrt3 rho_i + Sigma_i = xi w_L for every point, in Z[zeta_12]."""
    adj = diagram.adjacency
    want = tuple(XI * Cyclo12.from_eis(x) for x in diagram.w_l)
    for p in diagram.points:
        s = tuple(SQRT3_C * Cyclo12.from_eis(x) for x in p.root)
        for l in diagram.lines:
            if adj[p.index][l.index]:
                s = tuple(a + XI * Cyclo12.from_eis(b) for a, b in zip(s, l.root))
        assert s == want


def test_w_vectors_exact_identities(diagram):
    form = diagram.form
    assert form.ip(diagram.w_p, diagram.w_p) == Eis(3, 0)
    assert form.ip(diagram.w_l, diagram.w_l) == Eis(3, 0)
    assert form.ip(diagram.w_p, diagram.w_l) == Eis(-4, 0) * THETA * OMEGA
    assert diagram.fixed_lattice().discriminant() == 39
    for p in diagram.points:
        assert form.ip(diagram.w_p, p.root) == ZERO
    for l in diagram.lines:
        assert form.ip(diagram.w_l, l.root) == ZERO


def test_w_coordinate_variants_are_unit_multiples(diagram):
    """The familiar alternative coordinates for the fixed vectors are w
    times the sum-normalized ones used here; our normalization is the one
    that pairs with the Weyl vector to a positive real (sqrt3/2 scaled)."""
    wp_variant = tuple(
        list((ZERO, ZERO, THETA, Eis(-2, 0) * THETA)) * 3
    ) + (Eis(-4, -4), Eis(4, 0))
    wl_variant = tuple(
        list((OMEGA, OMEGA, Eis(0, 2), Eis(0, -3))) * 3
    ) + (Eis(-2, -5), Eis(-2, 0) * THETA * OMEGA)
    assert tuple(OMEGA * x for x in diagram.w_p) == wp_variant
    assert tuple(OMEGA * x for x in diagram.w_l) == wl_variant


def test_sigma_sums_have_expected_coordinates(diagram):
    sp = tuple(
        list(tuple((-THETA * OMEGA2) * x for x in (ONE, ONE, Eis(-2, 0), Eis(5, 0)))) * 3
    ) + (Eis(1, 9), Eis(10, 0) * OMEGA2)
    sl = tuple(list((Eis(4, 0), Eis(4, 0), Eis(5, 0), Eis(-6, 0))) * 3) + (
        Eis(-8, 4), Eis(-4, 0) * THETA,
    )
    assert diagram.sigma_p == sp
    assert diagram.sigma_l == sl


def test_weyl_vector_identities(diagram):
    form = diagram.form
    assert form.ip12(diagram.rho_hat, diagram.rho_hat).to_sqrt3() == SqrtThree(-78, 104)
    assert form.ip12(diagram.w_p, diagram.rho_hat).to_sqrt3() == SqrtThree(0, 13)
    for i in range(26):
        assert form.ip12(diagram.rho_hat, diagram.rho_vec(i)).to_sqrt3() == SqrtThree(-3, 4)
    assert form.ip12(diagram.rho_hat_minus, diagram.rho_hat_minus).to_sqrt3() == SqrtThree(-78, -104)
    for i in range(26):
        val = form.ip12(diagram.rho_hat_minus, diagram.rho_vec(i)).to_sqrt3()
        want = SqrtThree(-3, -4) if diagram.nodes[i].kind == "point" else SqrtThree(3, 4)
        assert val == want


def test_weyl_vector_alternative_form(diagram):
    """(4 + sqrt3) rho_hat = 13 (w_P + xi w_L)."""
    lhs = tuple((SQRT3_C + Cyclo12(4)) * x for x in diagram.rho_hat)
    rhs = tuple(
        Cyclo12(13) * (Cyclo12.from_eis(p) + XI * Cyclo12.from_eis(l))
        for p, l in zip(diagram.w_p, diagram.w_l)
    )
    assert lhs == rhs


def test_heights_of_nodes_are_one(diagram):
    assert NODE_HEIGHT_SQ == SqrtThree(-3, 4) * SqrtThree(-3, 4)  # (4 sqrt3 - 3)^2
    for n in diagram.nodes:
        assert diagram.height_sq(n.root) == NODE_HEIGHT_SQ


@settings(max_examples=50, deadline=None)
@given(v=st.lists(st.builds(Eis, st.integers(-20, 20), st.integers(-20, 20)),
                  min_size=14, max_size=14))
def test_height_sq_matches_the_pairing(diagram, v):
    """The height read off rho_hat's form row is |<rho_hat, v>|^2 of the
    Z[zeta_12] pairing."""
    rho_hat = diagram.rho_hat
    assert diagram.height_sq(v) == diagram.form.ip12(rho_hat, v).abs_sq()


def test_height_zero_and_reflected_node(diagram):
    assert diagram.height_sq((ZERO,) * 14) == SqrtThree(0, 0)
    a = diagram.by_name["a"].root
    b1 = diagram.by_name["b1"].root
    moved = reflect(b1, OMEGA, a, diagram.form)
    assert diagram.height_sq(moved) > NODE_HEIGHT_SQ


def test_node_of_round_trips_every_unit_multiple(diagram):
    for n in diagram.nodes:
        for u in UNITS:
            assert diagram.node_of([u * x for x in n.root]) == (n.index, u)


def test_node_of_is_none_off_the_node_multiples(diagram, generators):
    from eleech.reduction import HeightReducer

    cert = HeightReducer(diagram).reduce(generators[2], (), max_perturb=0)
    assert cert.steps
    assert diagram.node_of(cert.target) is None
    assert diagram.node_of((ZERO,) * 14) is None


def test_sigma_properties(diagram):
    s = diagram.sigma()
    assert (s @ s).scalar() == -OMEGA
    assert (s ** 12).is_identity()
    assert not (s ** 6).is_identity()
    assert s.apply(diagram.sigma_p) == tuple(-OMEGA * x for x in diagram.sigma_l)
    assert s.apply(diagram.sigma_l) == diagram.sigma_p
    assert s.apply(diagram.rho_hat) == tuple(XI * x for x in diagram.rho_hat)


def test_g_action_identity(diagram):
    ident = diagram.g_action(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert ident.is_identity()


def test_g_action_rejects_singular(diagram):
    with pytest.raises(ValueError):
        diagram.g_action(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_presentation_relations_on_lattice(diagram):
    x, y = presentation_generators()
    gx = diagram.g_action(x)
    gy = diagram.g_action(y)
    assert (gx @ gx).is_identity()
    assert (gy ** 3).is_identity()
    assert ((gx @ gy) ** 13).is_identity()
    # long relator
    gyi = gy.inverse()
    xy = gx @ gy
    xyi = gx @ gyi
    head = xy @ xy @ xy @ xy @ xyi
    word = head @ head @ xy @ xy @ xyi @ xyi @ xy @ xyi @ xyi @ xy @ xy @ xyi
    assert word.is_identity()


def test_pgl3_order_5616_from_scratch():
    assert (27 - 1) * (27 - 3) * (27 - 9) // 2 == 5616
    x, y = presentation_generators()
    group = orbit(tuple(range(13)), [plane_permutation(x), plane_permutation(y)])
    assert len(group) == 5616
    # orbit-stabilizer on the point (0,0,1)
    i = PLANE.index((0, 0, 1))
    stab = sum(1 for g in group if g[i] == i)
    assert stab * 13 == 5616


@pytest.mark.parametrize("y, failed", [
    (((0, 1, 0), (1, 0, 1), (1, 2, 0)), "long relator"),
    (((0, 1, 0), (0, 0, 1), (1, 0, 0)), "x^2 = y^3 = (xy)^13 = 1, long relator, order 5616"),
], ids=["relator", "subgroup"])
def test_a_mutated_presentation_pair_fails(monkeypatch, capsys, y, failed):
    """An order-3 y whose pair meets x^2 = y^3 = (xy)^13 = 1 but not the long
    relator, and a y with which x generates S3, the permutation matrices.
    A raising call is not cached, so the pinned pair is back afterwards."""
    from eleech import checks

    x, _ = diagram_module.PRESENTATION_PAIR
    monkeypatch.setattr(diagram_module, "PRESENTATION_PAIR", (x, y))
    presentation_generators.cache_clear()
    with pytest.raises(RuntimeError, match=f"fails: {re.escape(failed)}$"):
        presentation_generators()
    monkeypatch.setattr(checks, "REGISTRY", {n: checks.REGISTRY[n] for n in ("codes", "automorphisms")})
    assert main(["verify-all"]) == 1
    out = capsys.readouterr().out
    assert "codes: ok\nautomorphisms: FAIL\nerror: automorphisms: RuntimeError: " in out


def test_form_preservation_of_g_and_sigma(diagram):
    x, y = presentation_generators()
    for aut in (diagram.g_action(x), diagram.g_action(y), diagram.sigma()):
        assert aut.preserves_form(FORM_E8H)


def test_g_fixes_weyl_data(diagram):
    x, y = presentation_generators()
    for aut in (diagram.g_action(x), diagram.g_action(y)):
        assert aut.apply(diagram.w_p) == diagram.w_p
        assert aut.apply(diagram.w_l) == diagram.w_l
        assert aut.apply(diagram.rho_hat) == diagram.rho_hat


def test_fixed_lattice_primitive(diagram):
    """F = span(w_P, w_L) is primitive: unit Smith content of the 2x14
    coefficient matrix over the lattice basis."""
    from eleech.lattices import lattice_3e8_h
    from eleech.linalg import mat_inverse, mat_mul
    from eleech.rings import eis_gcd

    L = lattice_3e8_h()
    adj, d = mat_inverse(tuple(zip(*L.basis)))
    rows = [[x.exact_div(d) for x, in mat_mul(adj, tuple(zip(w)))] for w in (diagram.w_p, diagram.w_l)]
    d1 = ZERO
    for row in rows:
        for x in row:
            d1 = eis_gcd(d1, x)[0]
    assert d1.is_unit()
    d2 = ZERO
    for i in range(14):
        for j in range(i + 1, 14):
            minor = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
            d2 = eis_gcd(d2, minor)[0]
    # second elementary divisor = d2/d1, a unit iff gcd of minors is one
    assert d2.is_unit()


def test_local_max_probe_random_directions(diagram):
    rep = local_max_probe(diagram, samples=1000, eps=1e-4, tol=1e-9, seed=0)
    assert rep["increases"] == 0
    assert rep["zero_shift_unchanged"]


def test_special_direction_second_order(diagram):
    """Along i*rho_minus the first-order argument is silent; the exact
    second-order derivative is positive, so every mirror distance grows
    there (the Weyl point is a critical point of the mirror distance but
    not a strict local maximum along this direction)."""
    from eleech.diagram import weyl_second_order_sign

    assert weyl_second_order_sign(diagram) == 1
    rep = local_max_probe(diagram, samples=1, eps=1e-3, tol=1e-9, seed=0)
    assert rep["special_all_increase"]
    assert not rep["special_all_drop"]


def test_verify_linear_relations(diagram):
    assert diagram.verify_linear_relations()
