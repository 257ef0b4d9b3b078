import random
from itertools import combinations, islice, permutations, product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import Eis, ONE, OMEGA, THETA, UNITS, ZERO
from eleech.linalg import FORM_E8H, FORM_LEECH_H, AutMatrix, from_flat, gram_of
from eleech.lattices import (
    leech_ip, in_l_leech_h, in_l_e8h,
    flat_norm6, re_row,
)
from eleech.isomorphism import (
    load_e1, load_e1prime, e2_matrix, ChangeOfBasis,
    m666_from_e1prime, m666_reference,
    find_simplex, find_e8_quadruples, quadruple_roots, psi_root,
    compatible_pairs, complete_to_3e8, neighbours, orthogonal_root_candidates,
    assemble_basis, null_pair, _arrange_hand, _pairing_table, _quadruples,
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


def test_change_of_basis_maps_compose_to_identity(chg):
    assert (chg.fwd.k, chg.back.k) == (3, 1)
    assert chg.fwd @ chg.back == chg.back @ chg.fwd == AutMatrix.identity(14)


def test_change_of_basis_preserves_form(chg):
    assert chg.fwd.preserves_form(FORM_LEECH_H, FORM_E8H)
    assert chg.back.preserves_form(FORM_E8H, FORM_LEECH_H)


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


def test_e2_off_the_lattice_rejected(diagram, tmp_path, capsys):
    """Negating coordinate 0 keeps the Gram matrix; only the lattice
    bijection check rejects the result."""
    from eleech.cli import main
    from eleech.textio import format_matrix

    e2 = tuple((-row[0],) + row[1:] for row in e2_matrix(diagram))
    assert gram_of(e2, FORM_E8H) == gram_of(e2_matrix(diagram), FORM_E8H)
    with pytest.raises(ValueError, match=r"C image misses the 3E8\+H lattice"):
        ChangeOfBasis(load_e1(), e2)
    bad = tmp_path / "bad_e2.txt"
    bad.write_text(format_matrix(e2))
    assert main(["isom", "verify", "--e2", str(bad)]) == 1
    assert capsys.readouterr().out == (
        "error: C image misses the 3E8+H lattice\nRESULT: FAIL\n")


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


def test_simplex_witness(shell):
    delta = find_simplex(shell)
    assert len(delta) == 24
    for i in range(24):
        for j in range(i + 1, 24):
            assert flat_norm6(tuple(x - y for x, y in zip(delta[i], delta[j])))
    # heredity: any 2-subset is a valid partial clique
    assert sum(map(mul, re_row(delta[0]), delta[1])) == 18


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
    lam = from_flat(shell[0])
    r = psi_root(lam, 1)
    assert r == lam + (ONE, Eis(1, 1))  # tail theta/2 + 1/2 = 1 + w
    assert FORM_LEECH_H.ip(r, r) == Eis(-3, 0)
    assert in_l_leech_h(r)


# ---------------------------------------------------------------------------
# the pairing rule, and the search steps as they were on Eis roots


def test_psi_pairing_rule(shell):
    """<psi(lam, b), psi(mu, c)> = theta (D[lam][mu] + b - c)/2 for seeded
    first-shell neighbours lam, mu and odd doubled betas b, c, against the
    Leech+H form; most pairs have D != 0, so a flipped sign fails."""
    rng = random.Random(19)
    nonzero = 0
    for lam in rng.sample(shell, 4):
        for mu in rng.sample(neighbours(shell, lam), 25):
            d = _pairing_table([lam, mu])[0][1]
            b, c = (2 * rng.randint(-4, 3) + 1 for _ in range(2))
            ip = FORM_LEECH_H.ip(psi_root(from_flat(lam), b), psi_root(from_flat(mu), c))
            n, odd = divmod(d + b - c, 2)
            assert not odd and ip == THETA * Eis(n, 0)
            nonzero += d != 0
    assert nonzero > 20


def _reference_pairing_table(delta):
    """D[i][j] = 2[delta_i, delta_j] from the Eis pairing leech_ip."""
    vecs = [from_flat(f) for f in delta]
    table = [[0] * len(delta) for _ in delta]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j:
                t = leech_ip(u, v).exact_div(THETA)
                table[i][j] = 2 * t.a - t.b
    return table


def _reference_chain_betas(perm, d2):
    """The chain's doubled betas by trying all eight doubled chain signs."""
    def p(i, j):
        return d2[perm[i]][perm[j]]

    if any(p(i, j) % 2 for i in range(4) for j in range(i + 1, 4)):
        return None
    for e1 in (2, -2):
        for e2 in (2, -2):
            for e3 in (2, -2):
                b = [1, 0, 0, 0]
                b[1] = b[0] + p(0, 1) - e1
                b[2] = b[1] + p(1, 2) - e2
                b[3] = b[2] + p(2, 3) - e3
                if (b[0] - b[2] + p(0, 2) == 0 and
                        b[0] - b[3] + p(0, 3) == 0 and
                        b[1] - b[3] + p(1, 3) == 0):
                    return tuple(b)
    return None


def _reference_quadruples(d2):
    return [(perm, betas)
            for quad in combinations(range(len(d2)), 4)
            for perm in permutations(quad) if perm[0] < perm[3]
            for betas in [_reference_chain_betas(perm, d2)] if betas is not None]


def _reference_theta_shift(roots, hand_roots):
    """The rational integer n with <r, s> = n theta for every root r and
    hand root s, or None."""
    ips = (FORM_LEECH_H.ip(r, s) for r in roots for s in hand_roots)
    v = next(ips)
    if not THETA.divides(v) or any(w != v for w in ips):
        return None
    n = v.exact_div(THETA)
    return n.a if n.b == 0 else None


def _reference_candidates(candidates, hand_roots):
    return [v for v in candidates
            if _reference_theta_shift((psi_root(from_flat(v), 1),), hand_roots) is not None]


def _reference_third_chain(pool, hand_roots):
    d2 = _reference_pairing_table(pool)
    for perm, betas in _reference_quadruples(d2):
        roots = quadruple_roots(pool, perm, betas)
        n = _reference_theta_shift(roots, hand_roots)
        if n is None:
            continue
        cand = tuple(r[:13] + (r[13] - Eis(n, 0),) for r in roots)
        if all(FORM_LEECH_H.ip(r, s) == ZERO for r in cand for s in hand_roots):
            return cand
    return None


def _simplex_and_table(shell, start):
    delta = find_simplex(shell, start)
    return delta, _pairing_table(delta)


@pytest.fixture(scope="module")
def simplex0(shell):
    return _simplex_and_table(shell, 0)


@pytest.fixture(scope="module")
def simplex1(shell):
    return _simplex_and_table(shell, 1)


def test_pairing_table_matches_leech_ip(shell, simplex0):
    delta, d2 = simplex0
    assert d2 == _reference_pairing_table(delta)
    sample = random.Random(3).sample(shell, 30)
    assert _pairing_table(sample) == _reference_pairing_table(sample)


def test_quadruples_match_the_sign_loop(simplex0):
    _, d2 = simplex0
    assert _quadruples(d2) == _reference_quadruples(d2)


def test_search_steps_match_the_eis_references(shell, simplex0, simplex1):
    """On the first 300 compatible pairs of simplex 0, and on the first 3
    of simplex 1 (the third is where run_search succeeds): the integer
    candidate filter equals the _theta_shift filter on the hand roots,
    and the third chain among those candidates equals the one the Eis
    search finds (a chain or None both ways)."""
    chains = 0
    for delta, d2, count in (simplex0 + (300,), simplex1 + (3,)):
        quads = _quadruples(d2)
        nbrs = {}
        for a, b, v0 in islice(compatible_pairs(quads, d2), count):
            (pa, ba), (pb, bb) = quads[a], quads[b]
            bb2 = tuple(x + v0 for x in bb)
            hand = [(delta[i], c) for i, c in zip(pa + pb, ba + bb2)]
            hand_roots = quadruple_roots(delta, pa, ba) + quadruple_roots(delta, pb, bb2)
            for i in pa + pb:
                if i not in nbrs:
                    nbrs[i] = set(neighbours(shell, delta[i]))
            cands = sorted(set.intersection(*[nbrs[i] for i in pa + pb]))
            ok = orthogonal_root_candidates(cands, hand)
            assert ok == _reference_candidates(cands, hand_roots)
            third = complete_to_3e8(hand, ok)
            assert third == _reference_third_chain(ok, hand_roots)
            chains += third is not None
    assert chains


# ---------------------------------------------------------------------------
# the basis assembly: hand units and the hyperbolic cell


def _reference_arrange_hand(chain, target):
    """The chain's units and direction by trying all 6^4 unit tuples."""
    for seq in (chain, tuple(reversed(chain))):
        for us in product(UNITS, repeat=4):
            cand = tuple(
                tuple(u * x for x in r) for u, r in zip(us, seq)
            )
            good = True
            for i in range(4):
                for j in range(4):
                    if FORM_LEECH_H.ip(cand[i], cand[j]) != target[i][j]:
                        good = False
                        break
                if not good:
                    break
            if good:
                return cand
    return None


@pytest.fixture(scope="module")
def search_hands(shell, simplex1):
    """The three chains run_search keeps: simplex 1, third compatible pair,
    and the third chain among its 8 candidates."""
    delta, d2 = simplex1
    quads = _quadruples(d2)
    a, b, v0 = list(islice(compatible_pairs(quads, d2), 3))[-1]
    (pa, ba), (pb, bb) = quads[a], quads[b]
    bb2 = tuple(x + v0 for x in bb)
    hand = [(delta[i], c) for i, c in zip(pa + pb, ba + bb2)]
    cands = shell
    for i in pa + pb:
        cands = neighbours(cands, delta[i])
    ok = orthogonal_root_candidates(sorted(cands), hand)
    assert len(ok) == 8
    return (quadruple_roots(delta, pa, ba), quadruple_roots(delta, pb, bb2),
            complete_to_3e8(hand, ok))


def _hand_target(diagram):
    g2 = gram_of(e2_matrix(diagram), FORM_E8H)
    return tuple(tuple(g2[i][j] for j in range(4)) for i in range(4))


def test_arrange_hand_matches_the_unit_loop(search_hands, diagram):
    """The forced units give the unit loop's first hit, on the search's
    hands and on seeded copies with random units, half of them reversed."""
    target = _hand_target(diagram)
    rng = random.Random(20)
    hands = list(search_hands)
    for hand in search_hands:
        for k in range(6):
            copy = tuple(tuple(u * x for x in r)
                         for u, r in zip(rng.choices(UNITS, k=4), hand))
            hands.append(copy[::-1] if k % 2 else copy)
    for hand in hands:
        got = _arrange_hand(hand, target)
        assert got is not None
        assert got == _reference_arrange_hand(hand, target)


def test_assemble_basis_closes_with_a_null_pair(search_hands, diagram):
    g2 = gram_of(e2_matrix(diagram), FORM_E8H)
    rows = assemble_basis(search_hands, g2)
    assert gram_of(rows, FORM_LEECH_H) == g2
    target = _hand_target(diagram)
    assert rows[:12] == tuple(r for hand in search_hands
                              for r in _reference_arrange_hand(hand, target))
    n1, n2 = rows[12:]
    assert FORM_LEECH_H.ip(n1, n1) == FORM_LEECH_H.ip(n2, n2) == ZERO
    assert FORM_LEECH_H.ip(n1, n2) == THETA


#: a Z[w] matrix of unit determinant as steps (u, v) -> (v, e u + t v)
CELL_MOVES = st.lists(st.tuples(st.sampled_from(UNITS),
                                st.builds(Eis, st.integers(-5, 5), st.integers(-5, 5))),
                      max_size=6)


@settings(max_examples=60, deadline=None)
@given(moves=CELL_MOVES)
def test_null_pair_of_a_moved_cell(moves):
    """Any basis u, v of the coordinate cell (0^12; 0, 1), (0^12; 1, 0) of
    Leech+H gives two null vectors pairing to theta that span the same
    lattice; u, 2v spans a sublattice of Gram determinant -12 and gives
    None."""
    u, v = (ZERO,) * 12 + (ZERO, ONE), (ZERO,) * 12 + (ONE, ZERO)
    for e, t in moves:
        u, v = v, tuple(e * x + t * y for x, y in zip(u, v))
    n1, n2 = null_pair(u, v)
    assert gram_of((n1, n2), FORM_LEECH_H) == ((ZERO, THETA), (-THETA, ZERO))
    assert n1[:12] == n2[:12] == (ZERO,) * 12
    assert (n1[12] * n2[13] - n1[13] * n2[12]).is_unit()
    assert null_pair(u, tuple(2 * x for x in v)) is None
