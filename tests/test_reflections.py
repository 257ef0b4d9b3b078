import random

import pytest
from hypothesis import example, given, settings, strategies as st

from eleech.rings import Eis, OMEGA, OMEGA2, THETA, UNITS, ZERO, SqrtThree, cyclo12_abs_sq
from eleech.checks import Context, run
from eleech.diagram import Diagram
from eleech.lattices import lattice_3e8_h, lattice_leech_h
from eleech.linalg import FORM_E8H, FORM_LEECH_H, AutMatrix
from eleech.reduction import R1, R2
from eleech.reflections import (
    NodeChain, _rho_moved, _shift, reflect, word_matrix, canonical_root,
)


def _random_lattice_vector(diagram, rng, spread=2):
    v = (ZERO,) * 14
    for node in rng.sample(diagram.nodes, 5):
        c = Eis(rng.randint(-spread, spread), rng.randint(-spread, spread))
        v = tuple(x + c * y for x, y in zip(v, node.root))
    return v


def test_reflect_defining_property(diagram):
    r = diagram.by_name["a"].root
    assert reflect(r, OMEGA, r, diagram.form) == tuple(OMEGA * x for x in r)
    assert reflect(r, OMEGA2, r, diagram.form) == tuple(OMEGA2 * x for x in r)


def test_reflect_fixes_orthogonal_complement(diagram):
    r = diagram.by_name["a"].root
    # c1 is orthogonal to a
    v = diagram.by_name["c1"].root
    assert diagram.form.ip(r, v) == ZERO
    assert reflect(r, OMEGA, v, diagram.form) == v


def test_reflect_inverse_pair(diagram):
    rng = random.Random(0)
    r = diagram.by_name["b2"].root
    for _ in range(100):
        v = _random_lattice_vector(diagram, rng)
        w = reflect(r, OMEGA, v, diagram.form)
        assert reflect(r, OMEGA2, w, diagram.form) == v


def test_reflect_preserves_form(diagram):
    rng = random.Random(1)
    for _ in range(100):
        node = rng.choice(diagram.nodes)
        mu = rng.choice((OMEGA, OMEGA2))
        u = _random_lattice_vector(diagram, rng)
        v = _random_lattice_vector(diagram, rng)
        fu = reflect(node.root, mu, u, diagram.form)
        fv = reflect(node.root, mu, v, diagram.form)
        assert diagram.form.ip(fu, fv) == diagram.form.ip(u, v)


def test_reflection_rejects_non_root(diagram):
    v = tuple(Eis(2, 0) * x for x in diagram.by_name["a"].root)
    with pytest.raises(ValueError):
        reflect(v, OMEGA, diagram.by_name["f"].root, diagram.form)


def test_adjacent_equals_braid_on_all_pairs(diagram):
    """The 14x14 cross-check of the braid_relations entry's 2x2 argument."""
    adj = diagram.adjacency
    phi = [word_matrix([(n.root, OMEGA)], diagram.form) for n in diagram.nodes]
    for i in range(26):
        for j in range(i + 1, 26):
            ab, ba = phi[i] @ phi[j], phi[j] @ phi[i]
            assert (ab @ phi[i] == ba @ phi[j]) == adj[i][j]
            if not adj[i][j]:
                assert ab == ba


@pytest.mark.parametrize("pair, entry, cache_adjacency", [
    (("a", "f"), lambda x: Eis(2, 0) * x, True),   # still an edge, but no longer braids
    (("a", "f"), lambda x: Eis(2, 0) * x, False),  # no longer an edge, but does not commute
    (("a", "c1"), lambda x: Eis(3, 0), False),     # degenerate span: 9 - N(3) = 0
], ids=["braid", "commute", "degenerate"])
def test_braid_relations_fail_on_a_perturbed_gram_entry(pair, entry, cache_adjacency):
    d = Diagram()
    if cache_adjacency:
        d.adjacency
    i, j = (d.by_name[name].index for name in pair)
    gram = [list(row) for row in d.gram]
    gram[i][j] = entry(gram[i][j])
    gram[j][i] = gram[i][j].conj()
    d.gram = tuple(map(tuple, gram))
    assert run(["braid_relations"], Context(diagram=d)) == ([("braid_relations", "FAIL")], False)


def test_reflection_conjugation(diagram):
    """gamma phi_r gamma^{-1} = phi_{gamma r} for diagram automorphisms."""
    from eleech.diagram import presentation_generators

    x, _y = presentation_generators()
    gamma = diagram.g_action(x)
    sigma = diagram.sigma()
    for node in (diagram.by_name["a"], diagram.by_name["z2"], diagram.by_name["d3"]):
        for gam in (gamma, sigma):
            m = word_matrix([(node.root, OMEGA)], diagram.form)
            lhs = gam @ m @ gam.inverse()
            rhs = word_matrix([(gam.apply(node.root), OMEGA)], diagram.form)
            assert lhs == rhs


@pytest.mark.parametrize("form, lattice, roots", [
    (FORM_E8H, lattice_3e8_h, lambda d: [d.by_name[n].root for n in ("a", "z2", "d3")]),
    (FORM_LEECH_H, lattice_leech_h, lambda d: [R1, R2]),
], ids=["e8h", "leech_h"])
def test_reflection_matrix_agrees_with_reflect(diagram, form, lattice, roots):
    rng = random.Random(3)
    basis = lattice().basis
    for r in roots(diagram):
        for mu in (OMEGA, OMEGA2):
            m = word_matrix([(r, mu)], form)
            for _ in range(10):
                v = (ZERO,) * 14
                for b in basis:
                    c = Eis(rng.randint(-2, 2), rng.randint(-2, 2))
                    v = tuple(x + c * y for x, y in zip(v, b))
                assert m.apply(v) == reflect(r, mu, v, form)


def test_word_matrix_is_the_product_of_its_letters(diagram):
    """The leftmost letter acts last: the word's matrix is the product of
    the one-letter matrices in the written order."""
    letters = [(diagram.by_name[n].root, mu)
               for n, mu in (("a", OMEGA), ("z2", OMEGA2), ("d3", OMEGA), ("b1", OMEGA2))]
    one = [word_matrix([letter], diagram.form) for letter in letters]
    assert word_matrix(letters, diagram.form) == one[0] @ one[1] @ one[2] @ one[3]
    assert word_matrix([], diagram.form) == AutMatrix.identity(14)


def test_canonical_root_is_unit_invariant(diagram):
    rng = random.Random(2)
    for node in diagram.nodes:
        c = canonical_root(node.root)
        for u in UNITS:
            assert canonical_root(tuple(u * x for x in node.root)) == c


# ---------------------------------------------------------------------------
# the node kernel against the 14-coordinate path


EPS = {"w": OMEGA, "wbar": OMEGA2}
NODE_LETTERS = st.tuples(st.integers(0, 25), st.sampled_from(("w", "wbar")))
NODE_WORDS = st.lists(NODE_LETTERS, max_size=12)


@settings(max_examples=40, deadline=None)
@given(j=st.integers(0, 49), word=NODE_WORDS)
def test_node_chain_follows_reflect(diagram, generators, j, word):
    """Along a word of node reflections from a generator, the chain's
    pairings, <rho_hat, y> and y are those of the reflect chain."""
    form, kernel = diagram.form, diagram.node_kernel
    rho_hat = diagram.rho_hat
    y = generators[j]
    chain = NodeChain(kernel, y)
    for k, eps_name in word:
        chain.reflect(k, eps_name)
        y = reflect(diagram.nodes[k].root, EPS[eps_name], y, form)
        assert chain.vector() == y
        assert chain.q == [c for n in diagram.nodes
                           for x in (form.ip(n.root, y),) for c in (x.a, x.b)]
        assert chain.rho == form.ip12(rho_hat, y).c
        assert SqrtThree(*chain.height) == form.ip12(rho_hat, y).abs_sq()


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=14,
                       max_size=14))
def test_node_chain_starts_on_the_pairings(diagram, coeffs):
    """A chain read off the node rows and rho_hat's row starts with
    q = the <r_k, y> and rho = <rho_hat, y> of the Eis pairings, on random
    vectors y of L."""
    form, rho_hat = diagram.form, diagram.rho_hat
    y = tuple(sum((Eis(a, b) * x for (a, b), x in zip(coeffs, col)), ZERO)
              for col in zip(*lattice_3e8_h().basis))
    chain = NodeChain(diagram.node_kernel, y)
    assert chain.q == [c for n in diagram.nodes for x in (form.ip(n.root, y),) for c in (x.a, x.b)]
    assert chain.rho == form.ip12(rho_hat, y).c
    assert SqrtThree(*chain.height) == form.ip12(rho_hat, y).abs_sq()


@settings(max_examples=40, deadline=None)
@given(j=st.integers(0, 49), word=st.lists(NODE_LETTERS, max_size=8))
# two words after which a candidate that keeps the height comes before the
# first that lowers it: descend() must pass it by
@example(j=1, word=[(15, "wbar"), (19, "wbar")])
@example(j=13, word=[(19, "w"), (21, "wbar")])
def test_node_chain_descends_to_first_strict_decrease(diagram, generators, j, word):
    """From a generator moved by a node word, as partway through a
    descent, descend() takes the first (node, eps) in scan order whose
    reflect image has a strictly smaller |<rho_hat, .>|^2."""
    form, rho_hat = diagram.form, diagram.rho_hat
    y = generators[j]
    chain = NodeChain(diagram.node_kernel, y)
    for k, eps_name in word:
        chain.reflect(k, eps_name)
        y = reflect(diagram.nodes[k].root, EPS[eps_name], y, form)
    height = form.ip12(rho_hat, y).abs_sq()
    want = None
    for k, n in enumerate(diagram.nodes):
        for eps_name, eps in EPS.items():
            y2 = reflect(n.root, eps, y, form)
            if want is None and form.ip12(rho_hat, y2).abs_sq() < height:
                want = (k, eps_name, y2)
    got = chain.descend()
    if want is None:
        assert got is None and chain.vector() == y
    else:
        assert got == want[:2] and chain.vector() == want[2]


BIG = st.integers(-10**12, 10**12)


@settings(max_examples=60, deadline=None)
@given(rho=st.tuples(BIG, BIG, BIG, BIG), m=st.builds(Eis, BIG, BIG), even=st.booleans())
def test_height_forms_give_the_change_of_height(diagram, rho, m, even):
    """For every node k and eps, the kernel's rows of F_k, G_k and |t_k|^2
    give exactly |rho + s t_k|^2 - |rho|^2 for the shift s of the pairing
    theta m.  With ``even`` the pairing is theta 2m and rho = -s t_k / 2,
    which the move takes to -rho: the change is 0."""
    kernel = diagram.node_kernel
    q = THETA * (m + m if even else m)
    for k, (fp, fq, gp, gq, (tp, tq)) in enumerate(kernel.height_forms):
        col = kernel.rho_cols[k]
        for eps_name in EPS:
            sa, sb = _shift(q.a, q.b, eps_name)
            r = _rho_moved((0, 0, 0, 0), col, -(sa // 2), -(sb // 2)) if even else rho
            n = Eis(sa, sb).norm()
            delta = (sa * _dot4(fp, r) + sb * _dot4(gp, r) + n * tp,
                     sa * _dot4(fq, r) + sb * _dot4(gq, r) + n * tq)
            (p0, q0), (p1, q1) = (cyclo12_abs_sq(r),
                                  cyclo12_abs_sq(_rho_moved(r, col, sa, sb)))
            assert delta == (p1 - p0, q1 - q0)
            if even:
                assert sa % 2 == sb % 2 == 0 and delta == (0, 0)


def _dot4(row, rho):
    return sum(x * r for x, r in zip(row, rho))


def test_node_roots_share_one_height(diagram):
    """All 156 unit multiples of node roots have one |<rho_hat, .>|^2
    value, the only node height of the kernel; the reducer looks a vector
    up only at that height."""
    form, rho_hat = diagram.form, diagram.rho_hat
    heights = {form.ip12(rho_hat, tuple(u * x for x in n.root)).abs_sq()
               for n in diagram.nodes for u in UNITS}
    assert heights == {SqrtThree(57, -24)}
    assert diagram.node_kernel.node_heights == {(57, -24)}


def test_node_kernel_rejects_a_pairing_outside_theta(diagram):
    q = diagram.node_kernel.column(0, OMEGA)
    q[0] += 1
    with pytest.raises(ValueError):
        diagram.node_kernel.reflect(q, 0, "w")
