import random

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import Eis, OMEGA, OMEGA2, UNITS, ZERO, SqrtThree
from eleech.checks import Context, run
from eleech.diagram import Diagram
from eleech.lattices import lattice_3e8_h, lattice_leech_h
from eleech.linalg import FORM_E8H, FORM_LEECH_H, AutMatrix
from eleech.reduction import R1, R2
from eleech.reflections import NodeChain, reflect, word_matrix, canonical_root


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


NODE_WORDS = st.lists(st.tuples(st.integers(0, 25), st.sampled_from(("w", "wbar"))), max_size=12)


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
        y = reflect(diagram.nodes[k].root, {"w": OMEGA, "wbar": OMEGA2}[eps_name], y, form)
        assert chain.vector() == y
        assert chain.q == [c for n in diagram.nodes
                           for x in (form.ip(n.root, y),) for c in (x.a, x.b)]
        assert chain.rho == form.ip12(rho_hat, y).c
        assert SqrtThree(*chain.height) == form.ip12(rho_hat, y).abs_sq()


@settings(max_examples=40, deadline=None)
@given(j=st.integers(0, 49))
def test_node_chain_descends_to_first_strict_decrease(diagram, generators, j):
    """descend() takes the first (node, eps) in scan order whose reflect
    image has a strictly smaller |<rho_hat, .>|^2."""
    form, rho_hat = diagram.form, diagram.rho_hat
    y = generators[j]
    chain = NodeChain(diagram.node_kernel, y)
    height = form.ip12(rho_hat, y).abs_sq()
    want = None
    for k, n in enumerate(diagram.nodes):
        for eps_name, eps in (("w", OMEGA), ("wbar", OMEGA2)):
            y2 = reflect(n.root, eps, y, form)
            if want is None and form.ip12(rho_hat, y2).abs_sq() < height:
                want = (k, eps_name, y2)
    got = chain.descend()
    if want is None:
        assert got is None
    else:
        assert got == want[:2] and chain.vector() == want[2]


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
