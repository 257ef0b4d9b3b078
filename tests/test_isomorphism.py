import random

import pytest

from eleech.rings import Eis, ONE, OMEGA, OMEGA2, THETA, ZERO, UNITS
from eleech.linalg import FORM_E8H, FORM_LEECH_H
from eleech.lattices import (
    leech_contains, leech_ip, in_l_leech_h, in_l_e8h,
    flat_re_ip2, flat_sub, flat_norm6, from_flat,
)
from eleech.isomorphism import (
    load_e1, load_e1prime, e2_matrix, gram_of, ChangeOfBasis,
    m666_from_e1prime, m666_reference, hand_root_shape, M666_ORDER,
    find_simplex, find_e8_quadruples, quadruple_roots, psi_root,
    compatible_pairs, _pairing_table,
)


def test_e1_rows_in_leech_h():
    for row in load_e1():
        assert in_l_leech_h(row)


def test_e1prime_rows_in_leech_h():
    for row in load_e1prime():
        assert in_l_leech_h(row)


def test_gram_e1_equals_gram_e2(diagram):
    assert gram_of(load_e1(), FORM_LEECH_H) == gram_of(e2_matrix(diagram), FORM_E8H)


def test_gram_determinant_is_disc(diagram):
    from eleech.linalg import mat_det

    d = mat_det(gram_of(e2_matrix(diagram), FORM_E8H))
    assert d.b == 0 and abs(d.a) == 2187


def test_change_of_basis_maps_bases(diagram, chg):
    for r1, r2 in zip(load_e1(), e2_matrix(diagram)):
        assert chg.to_e8h(r1) == r2
        assert chg.to_leech_h(r2) == r1


def test_change_of_basis_preserves_form(chg):
    e1 = load_e1()
    assert chg.preserves_form_on(e1[:7])


def test_change_of_basis_lattice_bijection(chg):
    """C and C^-1 integral at the lattice level: lattice bases map into
    the other lattice (checked in the constructor; exercised again on
    random lattice vectors here)."""
    random.seed(0)
    from eleech.lattices import lattice_leech_h

    L = lattice_leech_h()
    for _ in range(50):
        v = (ZERO,) * 14
        for row in random.sample(L.basis, 5):
            c = Eis(random.randint(-2, 2), random.randint(-2, 2))
            v = tuple(x + c * y for x, y in zip(v, row))
        w = chg.to_e8h(v)
        assert in_l_e8h(w)
        assert chg.to_leech_h(w) == v
        assert FORM_E8H.ip(w, w) == FORM_LEECH_H.ip(v, v)


def test_gram_mismatch_rejected(diagram):
    e1 = list(load_e1())
    e1[0] = tuple(OMEGA * x for x in e1[0])  # spoils the Gram
    with pytest.raises(ValueError):
        ChangeOfBasis(tuple(e1), e2_matrix(diagram))


def test_trivial_change_of_basis():
    """An identity-like sub-case: identical hyperbolic-cell bases give the
    identity map on the shared span."""
    rows = ((ZERO,) * 12 + (ONE, ZERO), (ZERO,) * 12 + (ZERO, ONE))
    g = gram_of(rows, FORM_LEECH_H)
    assert g == gram_of(rows, FORM_E8H)


def test_m666_configuration_gram(diagram):
    got = gram_of(m666_from_e1prime(load_e1prime()), FORM_LEECH_H)
    want = gram_of(m666_reference(diagram), FORM_E8H)
    assert got == want


def test_m666_all_roots_norm_minus3():
    for root in m666_from_e1prime(load_e1prime()):
        assert FORM_LEECH_H.ip(root, root) == Eis(-3, 0)


def test_hand_roots_have_leech_shape():
    roots = dict(zip(M666_ORDER, m666_from_e1prime(load_e1prime())))
    for name, root in roots.items():
        if name[0] in "cdef":
            shape = hand_root_shape(root)
            assert shape is not None, name
            _u, lam, eta = shape
            assert leech_contains(lam) is not None
            assert leech_ip(lam, lam) == Eis(-6, 0)
            assert eta.is_unit()


def test_simplex_witness(shell):
    delta = find_simplex(shell)
    assert len(delta) == 24
    for i in range(24):
        for j in range(i + 1, 24):
            assert flat_norm6(flat_sub(delta[i], delta[j]))
    # heredity: any 2-subset is a valid partial clique
    assert flat_re_ip2(delta[0], delta[1]) == 18


def test_quadruple_roots_form_chains(shell):
    delta = find_simplex(shell)
    quads = find_e8_quadruples(delta)
    assert quads
    perm, betas = quads[0]
    roots = quadruple_roots(delta, perm, betas)
    for r in roots:
        assert FORM_LEECH_H.ip(r, r) == Eis(-3, 0)
        assert in_l_leech_h(r)
    for i in range(4):
        for j in range(i + 1, 4):
            n = FORM_LEECH_H.ip(roots[i], roots[j]).norm()
            assert n == (3 if j == i + 1 else 0)


def test_compatible_pairs_match_brute_force(shell):
    """The join finds, for each of the first 300 quadruples a, exactly the
    later quadruples b that the all-pairs predicate accepts, in ascending
    order: disjoint vertices and one even v0 = ba[i] - bb[j] +
    d2[pa[i]][pb[j]] for all 16 (i, j).  From a = 215 on, some a have
    three partners."""
    delta = find_simplex(shell)
    quads = find_e8_quadruples(delta)
    d2 = _pairing_table(delta)
    joined = {}
    for a, b, v0 in compatible_pairs(quads, d2):
        if a >= 300:
            break
        joined.setdefault(a, []).append((b, v0))
    for a, (pa, ba) in enumerate(quads[:300]):
        brute = []
        for b in range(a + 1, len(quads)):
            pb, bb = quads[b]
            if not set(pa).isdisjoint(pb):
                continue
            v0 = ba[0] - bb[0] + d2[pa[0]][pb[0]]
            if v0 % 2 == 0 and all(ba[i] - bb[j] + d2[pa[i]][pb[j]] == v0
                                   for i in range(4) for j in range(4)):
                brute.append((b, v0))
        assert joined.get(a, []) == brute, a
    assert joined


def test_psi_root_is_root(shell):
    r = psi_root(shell[0], 1)
    assert FORM_LEECH_H.ip(r, r) == Eis(-3, 0)
    assert in_l_leech_h(r)
