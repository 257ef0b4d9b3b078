"""The explicit isomorphism Leech+H = 3E8+H.

Verification path (default): the shipped basis E1 of Leech+H has the same
Gram matrix as the reference basis E2 of 3E8+H, so the basis-to-basis map
C is an isometry; integrality of C and its inverse makes it a lattice
isomorphism.

Search path (opt-in): rediscovers such a basis from the first shell by
the simplex / E8-diagram / orthogonality / hyperbolic-completion steps.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, groupby, permutations
from operator import itemgetter, mul

from .rings import Eis, OMEGA, OMEGA2, THETA, ZERO, ONE, eis_gcd
from .linalg import FORM_E8H, FORM_LEECH_H, aut_from_images, from_flat, gram_of, kernel
from .lattices import (
    _hnf_basis,
    im_row,
    in_l_e8h,
    in_l_leech_h,
    lattice_3e8_h,
    lattice_leech_h,
    leech_ip,
    re_row,
)
from .textio import data_text, parse_matrix


def load_e1():
    return parse_matrix(data_text("e1.txt"), "e1.txt", 14)


def load_e1prime():
    return parse_matrix(data_text("e1prime.txt"), "e1prime.txt", 14)


def e2_matrix(diagram):
    """Reference basis of 3E8+H: f_i, w e_i, d_i, w c_i (i = 1, 2, 3), then
    the two null coordinate vectors of the hyperbolic cell."""
    rows = []
    for i in (1, 2, 3):
        rows.append(diagram.by_name[f"f{i}"].root)
        rows.append(tuple(OMEGA * x for x in diagram.by_name[f"e{i}"].root))
        rows.append(diagram.by_name[f"d{i}"].root)
        rows.append(tuple(OMEGA * x for x in diagram.by_name[f"c{i}"].root))
    rows.append((ZERO,) * 12 + (ZERO, ONE))
    rows.append((ZERO,) * 12 + (ONE, ZERO))
    return tuple(rows)


class ChangeOfBasis:
    """The isometry sending sum t_i E1[i] to sum t_i E2[i].

    Held as the lattice maps ``fwd`` (Leech+H -> 3E8+H) and its inverse
    ``back``; the constructor checks that each maps a lattice basis into
    the other lattice.  ``to_e8h`` and ``to_leech_h`` raise ValueError on a
    vector whose image is not integral.
    """

    def __init__(self, e1_rows, e2_rows):
        g1 = gram_of(e1_rows, FORM_LEECH_H)
        g2 = gram_of(e2_rows, FORM_E8H)
        if g1 != g2:
            raise ValueError("Gram matrices of E1 and E2 differ")
        for row in e1_rows:
            if not in_l_leech_h(row):
                raise ValueError("an E1 row is outside Leech+H")
        self.fwd = aut_from_images(e1_rows, e2_rows)
        self.back = self.fwd.inverse()
        self._check_lattice_bijection()

    def _check_lattice_bijection(self):
        for v in lattice_leech_h().basis:
            try:
                w = self.to_e8h(v)
            except ValueError:
                raise ValueError("C does not map Leech+H into 3E8+H") from None
            if not in_l_e8h(w):
                raise ValueError("C image misses the 3E8+H lattice")
        for v in lattice_3e8_h().basis:
            try:
                w = self.to_leech_h(v)
            except ValueError:
                raise ValueError("C^-1 does not map 3E8+H into Leech+H") from None
            if not in_l_leech_h(w):
                raise ValueError("C^-1 image misses the Leech+H lattice")

    def to_e8h(self, v):
        return self.fwd.apply(v)

    def to_leech_h(self, v):
        return self.back.apply(v)


M666_ORDER = (
    "a", "b1", "b2", "b3", "c1", "c2", "c3", "d1", "d2", "d3",
    "e1", "e2", "e3", "f1", "f2", "f3",
)


def m666_from_e1prime(e1p):
    """The 16 roots a', b_i', c_i', d_i', e_i', f_i' built from E1'.

    Rows of E1' are f_i', w e_i', d_i', w c_i' (i = 1..3), n1', n2';
    a' = n2' + w^2 n1' and
    b_i' = -n2' - (f_i' + (2+w) e_i' + 2 d_i' + (2+w) c_i').
    """
    w2 = OMEGA2
    f = {}
    for i in (1, 2, 3):
        base = 4 * (i - 1)
        f[f"f{i}"] = e1p[base]
        f[f"e{i}"] = tuple(w2 * x for x in e1p[base + 1])
        f[f"d{i}"] = e1p[base + 2]
        f[f"c{i}"] = tuple(w2 * x for x in e1p[base + 3])
    n1, n2 = e1p[12], e1p[13]
    f["a"] = tuple(x + w2 * y for x, y in zip(n2, n1))
    lam = Eis(2, 1)
    for i in (1, 2, 3):
        s = tuple(
            fi + lam * ei + Eis(2, 0) * di + lam * ci
            for fi, ei, di, ci in zip(f[f"f{i}"], f[f"e{i}"], f[f"d{i}"], f[f"c{i}"])
        )
        f[f"b{i}"] = tuple(-x - y for x, y in zip(n2, s))
    return tuple(f[name] for name in M666_ORDER)


def m666_reference(diagram):
    return tuple(diagram.by_name[name].root for name in M666_ORDER)


# ---------------------------------------------------------------------------
# the discovery calculation: simplex -> E8 tuples -> 3E8 -> hyperbolic cell


#: vertices of the regular simplex the search starts from
SIMPLEX_SIZE = 24
#: simplexes tried, one from each of the first shell vectors in order
MAX_STARTS = 12


def neighbours(vectors, u):
    """The flat first-shell vectors v among ``vectors`` at minimal distance
    from the first-shell vector u, in order: |u - v|^2 = -6 for norm -6
    vectors iff 2 Re sum conj(u_i) v_i = 18.  u itself gives 36."""
    row = re_row(u)
    return [v for v in vectors if sum(map(mul, row, v)) == 18]


def find_simplex(shell, start=0):
    """A regular simplex of SIMPLEX_SIZE first-shell vectors: all pairwise
    differences again of minimal norm.  Deterministic greedy backtracking
    in shell order from the start-th vector; vertices are flat int tuples.
    None when the shell has no such simplex through that vector.
    """
    ordered = sorted(shell)

    def extend(clique, cands):
        if len(clique) == SIMPLEX_SIZE:
            return clique
        if len(clique) + len(cands) < SIMPLEX_SIZE:
            return None
        for i, v in enumerate(cands):
            got = extend(clique + [v], neighbours(cands[i + 1:], v))
            if got is not None:
                return got
        return None

    first = ordered[start]
    return extend([first], neighbours(ordered, first))


def _doubled_pairing(v, row):
    """D[v][u] = 2[v, u], [x, y] = Im<x, y>/sqrt 3, for a flat v and the
    ``im_row`` of u: the row's dot product with v divided by 3, exact for
    Leech vectors; a ValueError when it is not."""
    d, r = divmod(sum(map(mul, row, v)), 3)
    if r:
        raise ValueError("not a pair of Leech vectors")
    return d


def _pairing_table(delta):
    """D[i][j] = 2[delta_i, delta_j] for flat Leech vectors (antisymmetric).

    For <x, y> = theta (p + q w), [x, y] = p - q/2.
    """
    rows = [im_row(d) for d in delta]
    return [[_doubled_pairing(v, row) for row in rows] for v in delta]


def find_e8_quadruples(delta):
    """Ordered 4-tuples (i1..i4) of simplex vertices admitting roots
    (delta_i; 1, *) in an A4 chain configuration.

    With all |delta_i - delta_j|^2 = -6 the inner products are theta *
    (beta_i - beta_j + [delta_i, delta_j]); an assignment of half-integer
    beta exists iff the doubled pairings are even and the chain signs
    satisfy the cocycle conditions.
    """
    return _quadruples(_pairing_table(delta))


def _quadruples(d2):
    """find_e8_quadruples from the pairing table d2 of the vertices."""
    out = []
    for quad in combinations(range(len(d2)), 4):
        for perm in permutations(quad):
            if perm[0] > perm[3]:
                continue  # chain reversal gives the same diagram
            betas = _chain_betas(perm, d2)
            if betas is not None:
                out.append((perm, betas))
    return out


def _chain_betas(perm, d2):
    """Doubled beta values (odd ints) making perm an A4 chain, or None.

    From beta_0 = 1/2 the three non-edges force b_2 = 1 + p02,
    b_3 = 1 + p03 and b_1 = b_3 - p13; each edge sign
    e = b_i - b_(i+1) + p_i,(i+1) must then be +-2.
    """
    ps = [d2[perm[i]][perm[j]] for i, j in combinations(range(4), 2)]
    if any(p % 2 for p in ps):
        return None
    p01, p02, p03, p12, p13, p23 = ps
    signs = (p01 + p13 - p03, p03 + p12 - p02 - p13, p02 + p23 - p03)
    if any(e not in (2, -2) for e in signs):
        return None
    return (1, 1 + p03 - p13, 1 + p02, 1 + p03)


def compatible_pairs(quads, d2):
    """(a, b, v0) for every pair a < b of quadruples whose chains lie on
    disjoint vertices and are orthogonal once chain b's doubled betas are
    shifted by the even v0: ba[i] - bb[j] + d2[pa[i]][pb[j]] == v0 for all
    i, j.  Pairs come in ascending (a, b) order.

    A join instead of a scan over all pairs: a vertex x off pa can carry
    chain b only when shift[x] = ba[i] + d2[pa[i]][x] is the same for all
    four i, so the partners of a are the quadruples on those vertices with
    shift[pb[j]] - bb[j] one value for all j.
    """
    by_vertices = defaultdict(list)
    for b, (pb, _) in enumerate(quads):
        by_vertices[frozenset(pb)].append(b)
    for a, (pa, ba) in enumerate(quads):
        shift = {}
        for x in range(len(d2)):
            if x in pa:
                continue
            vals = {ba[i] + d2[pa[i]][x] for i in range(4)}
            if len(vals) == 1:
                shift[x] = vals.pop()
        partners = []
        for vertices in combinations(shift, 4):
            for b in by_vertices.get(frozenset(vertices), ()):
                if b <= a:
                    continue
                pb, bb = quads[b]
                v0s = {shift[x] - y for x, y in zip(pb, bb)}
                if len(v0s) == 1:
                    v0 = v0s.pop()
                    if v0 % 2 == 0:
                        partners.append((b, v0))
        for b, v0 in sorted(partners):
            yield a, b, v0


def psi_root(lam, beta2):
    """The root (lam; 1, theta(-3 - |lam|^2)/6 + beta) in Leech+H, for a
    Leech vector lam in Z[w] coordinates and beta = beta2/2.

    With |lam|^2 = 3 m the tail is theta (-1 - m)/2 + beta2/2; for
    first-shell lam (m = -2) it is theta/2 + beta, integral exactly when
    beta2 is odd.
    """
    return lam + (ONE, Eis(*psi_tail(leech_ip(lam, lam).a, beta2)))


def psi_tail(norm, beta2):
    """The tail of ``psi_root`` as an int pair (a, b) for a + b w, from
    the Leech norm |lam|^2 = norm, an int multiple of 3."""
    t = -1 - norm // 3
    # theta t/2 + beta2/2 = (t + beta2)/2 + t w
    a, odd = divmod(t + beta2, 2)
    if odd:
        raise ValueError("beta2 leaves the root tail non-integral")
    return a, t


def quadruple_roots(delta, perm, betas):
    return tuple(psi_root(from_flat(delta[i]), b) for i, b in zip(perm, betas))


# The pairing rule.  For first-shell lambda, mu at minimal distance and odd
# doubled betas b, c:  <psi(lambda, b), psi(mu, c)> = theta (D + b - c)/2
# with D = 2[lambda, mu].  So the search decides orthogonality on the ints
# D + b - c and builds roots only for the chains it keeps.  A hand is a
# list of (flat vertex, doubled beta) pairs.


def complete_to_3e8(hand, candidates):
    """A third chain among the flat candidates (a list), orthogonal to the
    hand, as four roots; None when there is none.

    Shifting a chain's doubled betas by 2n adds -n theta to each pairing
    with the hand, so a chain fits exactly when D[v_j][delta_i] + b_j - c_i
    is one value 2n over its vertices v_j and the hand's (delta_i, c_i).
    """
    rows = [(im_row(d), c) for d, c in hand]
    for perm, betas in find_e8_quadruples(candidates):
        shifts = {_doubled_pairing(candidates[j], row) + b - c
                  for j, b in zip(perm, betas) for row, c in rows}
        if len(shifts) == 1:
            n2 = shifts.pop()
            return quadruple_roots(candidates, perm, tuple(b - n2 for b in betas))
    return None


def orthogonal_cell_basis(hand_roots):
    """A basis of the rank-2 orthogonal complement of the 12 hand roots
    inside Leech+H, from the integral kernel of their pairings with the
    lattice basis; for a 3E8 hand it spans a hyperbolic cell."""
    L = lattice_leech_h()
    rows = []
    for r in hand_roots:
        rows.append(tuple(FORM_LEECH_H.ip(r, b) for b in L.basis))
    # integral kernel of the 12 x 14 matrix in basis coordinates: lattice
    # vectors, HNF-reduced over E below
    kern = kernel(rows)
    if len(kern) != 2:
        raise ValueError("the hand roots do not leave a rank-2 complement")
    vecs = []
    for t in kern:
        v = [ZERO] * 14
        for c, b in zip(t, L.basis):
            for i in range(14):
                v[i] = v[i] + c * b[i]
        vecs.append(tuple(v))
    basis = _hnf_basis(vecs)
    # saturate: divide rows by any common non-unit divisor and re-check
    out = []
    for v in basis:
        g = ZERO
        for x in v:
            g = eis_gcd(g, x)[0]
        if g and not g.is_unit():
            w = tuple(x.exact_div(g) for x in v)
            if in_l_leech_h(w):
                v = w
        out.append(v)
    return out


def null_pair(u, v):
    """Null vectors n1, n2 with <n1, n2> = theta spanning the same Z[w]
    lattice as u, v, or None when the Gram determinant of u, v is not -3
    (the determinant of such a pair).

    With a = <u, u>, b = <u, v>, c = <v, v> and D = ac - |b|^2,
    a |xu + yv|^2 = |ax + by|^2 + D |y|^2, so D = -3 makes
    (x, y) = (theta - b, a) null; (1, 0) when u itself is.  Divided by
    their gcd g = px + qy, n1 = xu + yv is primitive and m = -qu + pv
    completes it to a basis.  Then |<n1, m>|^2 = 3, e = theta / <n1, m> is
    a unit, and n2 = e m - (|m|^2 / 3) w n1 is null with <n1, n2> = theta.
    """
    ip = FORM_LEECH_H.ip
    a, b, c = ip(u, u).a, ip(u, v), ip(v, v).a
    if a * c - b.norm() != -3:
        return None
    x, y = (THETA - b, Eis(a)) if a else (ONE, ZERO)
    g, p, q = eis_gcd(x, y)
    x, y = x.exact_div(g), y.exact_div(g)
    n1 = tuple(x * s + y * t for s, t in zip(u, v))
    m = tuple(p * t - q * s for s, t in zip(u, v))
    e = THETA.exact_div(ip(n1, m))
    k, r = divmod(ip(m, m).a, 3)
    if r:
        return None
    return n1, tuple(e * s - k * OMEGA * t for s, t in zip(m, n1))


def orthogonal_root_candidates(candidates, hand):
    """The flat candidates v (first-shell vectors at minimal distance from
    every hand vertex) admitting a root (v; 1, *) orthogonal to every root
    of the hand: D[v][delta_i] - c_i is one value over the hand.

    This is the step whose size the original calculation reports as 8.
    """
    rows = [(im_row(d), c) for d, c in hand]
    return [v for v in candidates
            if len({_doubled_pairing(v, row) - c for row, c in rows}) == 1]


class SearchResult:
    def __init__(self, basis_rows, candidate_count):
        self.basis_rows = basis_rows
        self.candidate_count = candidate_count


def run_search(shell, e2_rows, log=None):
    """The full discovery calculation.

    Walks simplexes in deterministic order, joins pairs of root chains
    into an orthogonal E8+E8 whose orthogonal-extension candidate list has
    the reported size 8, completes to 3E8 among those candidates, closes
    with a hyperbolic cell, and arranges everything to the exact Gram of
    the reference basis.  Returns a SearchResult whose basis_rows satisfy
    Gram(rows) == Gram(e2_rows), or None when no simplex tried gives one.
    """
    say = log or (lambda *_: None)
    g2 = gram_of(e2_rows, FORM_E8H)
    for start in range(min(MAX_STARTS, len(shell))):
        delta = find_simplex(shell, start=start)
        if delta is None:
            continue
        say(f"simplex from shell vector {start}")
        d2 = _pairing_table(delta)
        quads = _quadruples(d2)
        nbr_cache = {}

        def nbrs(i):
            if i not in nbr_cache:
                nbr_cache[i] = set(neighbours(shell, delta[i]))
            return nbr_cache[i]

        seen = 0
        for _, pairs in groupby(compatible_pairs(quads, d2), itemgetter(0)):
            for a, b, v0 in pairs:
                pa, ba = quads[a]
                pb, bb = quads[b]
                bb2 = tuple(x + v0 for x in bb)
                seen += 1
                hand = [(delta[i], c) for i, c in zip(pa + pb, ba + bb2)]
                cands = set.intersection(*[nbrs(i) for i in pa + pb])
                ok = orthogonal_root_candidates(sorted(cands), hand)
                if len(ok) != 8:
                    continue
                say(f"  pair #{seen}: candidate count 8")
                hand3 = complete_to_3e8(hand, ok)
                if hand3 is None:
                    say("  no third chain; continuing")
                    continue
                hand1 = quadruple_roots(delta, pa, ba)
                hand2 = quadruple_roots(delta, pb, bb2)
                rows = assemble_basis((hand1, hand2, hand3), g2)
                if rows is None:
                    say("  assembly failed; continuing")
                    continue
                return SearchResult(rows, len(ok))
            if seen > 4000:
                break
    return None


def assemble_basis(hands, g2):
    """Unit-rescale and order the three chains, then close with the null
    pair of their orthogonal cell: 14 rows with Gram exactly g2, or None."""
    target_hand = tuple(tuple(g2[i][j] for j in range(4)) for i in range(4))
    arranged = []
    for hand in hands:
        got = _arrange_hand(hand, target_hand)
        if got is None:
            return None
        arranged.append(got)
    all_roots = [r for hand in arranged for r in hand]
    pair = null_pair(*orthogonal_cell_basis(all_roots))
    if pair is None:
        return None
    rows = tuple(all_roots) + pair
    if gram_of(rows, FORM_LEECH_H) != g2:
        return None
    return rows


def _arrange_hand(chain, target):
    """Units making a 4-chain Gram equal the target block: the first root
    keeps unit 1, and each next unit is forced by the target's pairing
    with the root before.  A forced unit is the ratio of two pairings
    that are theta times a unit, so an A4 chain matches in the direction
    it is given; None when the Gram still differs."""
    cand = [chain[0]]
    for i, r in enumerate(chain[1:]):
        try:
            u = target[i][i + 1].exact_div(FORM_LEECH_H.ip(cand[i], r))
        except ValueError:
            return None
        cand.append(tuple(u * x for x in r))
    return tuple(cand) if gram_of(cand, FORM_LEECH_H) == target else None
