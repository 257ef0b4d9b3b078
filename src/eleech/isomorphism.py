"""The explicit isomorphism Leech+H = 3E8+H.

Verification path (default): the shipped basis E1 of Leech+H has the same
Gram matrix as the reference basis E2 of 3E8+H, so the basis-to-basis map
C is an isometry; integrality of C and its inverse makes it a lattice
isomorphism.

Search path (opt-in): rediscovers such a basis from the first shell by
the simplex / E8-diagram / orthogonality / hyperbolic-completion steps.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, groupby, permutations, product
from operator import itemgetter

from .rings import Eis, OMEGA, OMEGA2, THETA, UNITS, ZERO, ONE, eis_gcd
from .linalg import FORM_E8H, FORM_LEECH_H, Basis, kernel, mat_mul, mat_vec, vec_integral
from .lattices import (
    _hnf_basis,
    flat_re_ip2,
    from_flat,
    in_l_leech_h,
    lattice_leech_h,
    leech_ip,
)
from .reflections import canonical_root
from .textio import parse_matrix


def load_e1():
    from .diagram import data_text

    return parse_matrix(data_text("e1.txt"))


def load_e1prime():
    from .diagram import data_text

    return parse_matrix(data_text("e1prime.txt"))


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


def gram_of(rows, form):
    return tuple(tuple(form.ip(u, v) for v in rows) for u in rows)


class ChangeOfBasis:
    """The isometry sending sum t_i E1[i] to sum t_i E2[i].

    Held as an exact rational coordinate matrix (the ambient E^14 is
    strictly larger than the lattices, so theta denominators are normal);
    integrality is the lattice-level statement, verified by mapping a
    lattice basis each way and checking membership on the other side.
    """

    def __init__(self, e1_rows, e2_rows):
        g1 = gram_of(e1_rows, FORM_LEECH_H)
        g2 = gram_of(e2_rows, FORM_E8H)
        if g1 != g2:
            raise ValueError("Gram matrices of E1 and E2 differ")
        for row in e1_rows:
            if not in_l_leech_h(row):
                raise ValueError("an E1 row is outside Leech+H")
        b1 = Basis(e1_rows)
        cols2 = tuple(zip(*e2_rows))
        self.mat = mat_mul(cols2, b1._inv)
        b2 = Basis(e2_rows)
        cols1 = tuple(zip(*e1_rows))
        self.inv = mat_mul(cols1, b2._inv)
        self._check_lattice_bijection()

    def _check_lattice_bijection(self):
        from .lattices import lattice_leech_h, lattice_3e8_h, in_l_e8h

        for v in lattice_leech_h().basis:
            w = vec_integral(mat_vec(self.mat, v))
            if w is None:
                raise ValueError("C does not map Leech+H into 3E8+H")
            if not in_l_e8h(w):
                raise ValueError("C image misses the 3E8+H lattice")
        for v in lattice_3e8_h().basis:
            w = vec_integral(mat_vec(self.inv, v))
            if w is None:
                raise ValueError("C^-1 does not map 3E8+H into Leech+H")
            if not in_l_leech_h(w):
                raise ValueError("C^-1 image misses the Leech+H lattice")

    def to_e8h(self, v):
        return _intify(mat_vec(self.mat, v))

    def to_leech_h(self, v):
        return _intify(mat_vec(self.inv, v))

    def preserves_form_on(self, vectors) -> bool:
        for u in vectors:
            for v in vectors:
                if FORM_E8H.ip(self.to_e8h(u), self.to_e8h(v)) != FORM_LEECH_H.ip(u, v):
                    return False
        return True


def _intify(v):
    """v with its Z[w] entries as int pairs; other entries stay in Q(w)."""
    out = []
    for x in v:
        y = x.integral()
        out.append(x if y is None else y)
    return tuple(out)


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


def hand_root_shape(root):
    """(unit, lambda, eta) with unit*root = (lambda; 1, eta), or None."""
    for u in UNITS:
        cand = tuple(u * x for x in root)
        if cand[12] == ONE:
            return u, cand[:12], cand[13]
    return None


# ---------------------------------------------------------------------------
# the discovery calculation: simplex -> E8 tuples -> 3E8 -> hyperbolic cell


#: vertices of the regular simplex the search starts from
SIMPLEX_SIZE = 24
#: simplexes tried, one from each of the first shell vectors in order
MAX_STARTS = 12


def find_simplex(shell, start=0):
    """A regular simplex of SIMPLEX_SIZE first-shell vectors: all pairwise
    differences again of minimal norm.  Deterministic greedy backtracking
    in shell order from the start-th vector; vertices are flat int tuples.

    |u - v|^2 = -6 for norm -6 vectors iff 2 Re sum conj(u_i) v_i = 18.
    """
    ordered = sorted(shell)

    def compatible(u, v):
        return flat_re_ip2(u, v) == 18

    first = ordered[start]
    cands = [v for v in ordered if v != first and compatible(first, v)]

    def extend(clique, cands):
        if len(clique) == SIMPLEX_SIZE:
            return clique
        if len(clique) + len(cands) < SIMPLEX_SIZE:
            return None
        for i, v in enumerate(cands):
            rest = [w for w in cands[i + 1:] if compatible(v, w)]
            got = extend(clique + [v], rest)
            if got is not None:
                return got
        return None

    got = extend([first], cands)
    if got is None:
        raise RuntimeError("no simplex found in the first shell")
    return got


def _pairing_table(delta):
    """D[i][j] = 2*[delta_i, delta_j] (an exact integer for Leech vectors).

    [a,b] = Im<a,b>/theta; for <a,b> = theta (p + q w) this equals p - q/2.
    """
    n = len(delta)
    vecs = [from_flat(f) for f in delta]
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ip = leech_ip(vecs[i], vecs[j])
            t = ip.exact_div(THETA)
            table[i][j] = 2 * t.a - t.b
    return table


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
    """Doubled beta values (odd ints) making perm an A4 chain, or None."""
    def p(i, j):
        return d2[perm[i]][perm[j]]

    if any(p(i, j) % 2 for i in range(4) for j in range(i + 1, 4)):
        return None
    for e1 in (2, -2):  # doubled chain signs
        for e2 in (2, -2):
            for e3 in (2, -2):
                b = [1, 0, 0, 0]  # doubled betas, start at 1 (beta_0 = 1/2)
                b[1] = b[0] + p(0, 1) - e1
                b[2] = b[1] + p(1, 2) - e2
                b[3] = b[2] + p(2, 3) - e3
                if (b[0] - b[2] + p(0, 2) == 0 and
                        b[0] - b[3] + p(0, 3) == 0 and
                        b[1] - b[3] + p(1, 3) == 0):
                    return tuple(b)
    return None


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


def psi_root(flat_lambda, beta2):
    """The root (lambda; 1, theta(-3 - |lambda|^2)/6 + beta) in Leech+H.

    beta2 is the doubled half-integer beta.  For first-shell lambda the
    tail is theta/2 + beta which is integral exactly when beta2 is odd.
    """
    lam = from_flat(flat_lambda)
    # theta/2 + beta = (1 + beta2)/2 + w
    a, odd = divmod(1 + beta2, 2)
    if odd:
        raise ValueError("beta2 must be odd for an integral root tail")
    tail = Eis(a, 1)
    return lam + (ONE, tail)


def quadruple_roots(delta, perm, betas):
    return tuple(psi_root(delta[i], b) for i, b in zip(perm, betas))


def _theta_shift(roots, hand_roots):
    """The rational integer n with <r, s> = n theta for every root r and
    hand root s, or None when there is no such n."""
    ips = (FORM_LEECH_H.ip(r, s) for r in roots for s in hand_roots)
    v = next(ips)
    if not THETA.divides(v) or any(w != v for w in ips):
        return None
    n = v.exact_div(THETA)
    return n.a if n.b == 0 else None


def complete_to_3e8(delta_flats, quad_pair, candidates):
    """A third chain among the candidates, orthogonal to both hands.

    Shifting every beta of a chain by an integer n adds n*theta to each
    inner product against a (lambda; 1, *) root, so orthogonality to the
    existing hands fixes the shift exactly when all cross inner products
    agree and are integer multiples of theta.
    """
    pool = list(candidates)
    existing = [quadruple_roots(delta_flats, p, b) for p, b in quad_pair]
    hand_roots = [s for hand in existing for s in hand]
    for perm, betas in find_e8_quadruples(pool):
        roots = quadruple_roots(pool, perm, betas)
        n = _theta_shift(roots, hand_roots)
        if n is None:
            continue
        cand = tuple(
            r[:13] + (r[13] - Eis(n, 0),) for r in roots
        )
        if all(
            FORM_LEECH_H.ip(r, s) == ZERO
            for r in cand
            for s in hand_roots
        ):
            return cand
    return None


def orthogonal_cell_basis(hand_roots):
    """An E-basis of the rank-2 orthogonal complement of the 12 hand roots
    inside Leech+H, found among bounded integer combinations of the
    standard basis; returns two vectors spanning a hyperbolic cell."""
    L = lattice_leech_h()
    rows = []
    for r in hand_roots:
        rows.append(tuple(FORM_LEECH_H.ip(r, b) for b in L.basis))
    # kernel over Q(w) of the 12 x 14 matrix in basis coordinates
    kern = kernel(rows)
    if len(kern) != 2:
        raise ValueError("the hand roots do not leave a rank-2 complement")
    # clear denominators into the lattice, then HNF-reduce over E
    vecs = []
    for t in kern:
        den = math.lcm(*(c.denominator for x in t for c in (x.a, x.b)))
        tt = tuple(Eis(int(x.a * den), int(x.b * den)) for x in t)
        v = [ZERO] * 14
        for c, b in zip(tt, L.basis):
            for i in range(14):
                v[i] = v[i] + c * b[i]
        vecs.append(tuple(v))
    basis = _hnf_basis(vecs, FORM_LEECH_H.ip)
    # saturate: divide rows by any common non-unit divisor and re-check
    out = []
    for v in basis:
        g = ZERO
        for x in v:
            g = eis_gcd(g, x)
        if g and not g.is_unit():
            w = tuple(x.exact_div(g) for x in v)
            if in_l_leech_h(w):
                v = w
        out.append(v)
    return _gauss_reduce_cell(out[0], out[1])


def _gauss_reduce_cell(u, v):
    """Gauss-reduce a rank-2 Lorentzian basis so vector norms get small
    (a hyperbolic cell reduces to null-ish vectors, making the null
    vector box search effective)."""
    ip = FORM_LEECH_H.ip

    def norm_abs(w):
        return abs(ip(w, w).a)

    for _ in range(400):
        if norm_abs(u) > norm_abs(v):
            u, v = v, u
        a = ip(u, u).a
        if a == 0:
            break
        b = ip(u, v)
        base_a = Fraction(-b.a, a)
        base_b = Fraction(-b.b, a)
        best = None
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                t = Eis(round(base_a) + da, round(base_b) + db)
                cand = tuple(x + t * y for x, y in zip(v, u))
                n = abs(ip(cand, cand).a)
                if best is None or n < best[0]:
                    best = (n, cand)
        if best[0] < norm_abs(v):
            v = best[1]
        else:
            break
    return [u, v]


def orthogonal_root_candidates(candidates, hand_roots):
    """The candidates v (first-shell vectors at minimal distance from every
    hand vertex) admitting a root (v; 1, *) orthogonal to every root of the
    two hands: a consistent integral beta shift (theta parts).

    This is the step whose size the original calculation reports as 8.
    """
    return [v for v in candidates
            if _theta_shift((psi_root(v, 1),), hand_roots) is not None]


class SearchResult:
    def __init__(self, simplex, hands, basis_rows, candidate_count):
        self.simplex = simplex
        self.hands = hands
        self.basis_rows = basis_rows
        self.candidate_count = candidate_count


def run_search(shell, e2_rows, log=None):
    """The full discovery calculation.

    Walks simplexes in deterministic order, joins pairs of root chains
    into an orthogonal E8+E8 whose orthogonal-extension candidate list has
    the reported size 8, completes to 3E8 among those candidates, closes
    with a hyperbolic cell, and arranges everything to the exact Gram of
    the reference basis.  Returns a SearchResult whose basis_rows satisfy
    Gram(rows) == Gram(e2_rows).
    """
    say = log or (lambda *_: None)
    g2 = gram_of(e2_rows, FORM_E8H)
    for start in range(MAX_STARTS):
        delta = find_simplex(shell, start=start)
        say(f"simplex from shell vector {start}")
        d2 = _pairing_table(delta)
        quads = _quadruples(d2)
        nbr_cache = {}

        def nbrs(i):
            if i not in nbr_cache:
                d = delta[i]
                nbr_cache[i] = {
                    v for v in shell if v != d and flat_re_ip2(v, d) == 18
                }
            return nbr_cache[i]

        seen = 0
        for _, pairs in groupby(compatible_pairs(quads, d2), itemgetter(0)):
            for a, b, v0 in pairs:
                pa, ba = quads[a]
                pb, bb = quads[b]
                bb2 = tuple(x + v0 for x in bb)
                seen += 1
                hand1 = quadruple_roots(delta, pa, ba)
                hand2 = quadruple_roots(delta, pb, bb2)
                cands = set.intersection(*[nbrs(i) for i in pa + pb])
                ok = orthogonal_root_candidates(
                    sorted(cands), list(hand1) + list(hand2)
                )
                if len(ok) != 8:
                    continue
                say(f"  pair #{seen}: candidate count 8")
                quad_pair = ((pa, ba), (pb, bb2))
                hand3 = complete_to_3e8(delta, quad_pair, ok)
                if hand3 is None:
                    say("  no third chain; continuing")
                    continue
                rows = assemble_basis(
                    (hand1, hand2, hand3), g2, e2_rows
                )
                if rows is None:
                    say("  assembly failed; continuing")
                    continue
                return SearchResult(delta, (hand1, hand2, hand3), rows, len(ok))
                # deterministic: first success wins
            if seen > 4000:
                break
    raise RuntimeError("search exhausted without an 8-candidate configuration")


def assemble_basis(hands, g2, e2_rows):
    """Unit-rescale and order the three chains plus a hyperbolic null pair
    into a 14-row basis with Gram exactly g2."""
    target_hand = tuple(tuple(g2[i][j] for j in range(4)) for i in range(4))
    arranged = []
    for hand in hands:
        got = _arrange_hand(hand, target_hand)
        if got is None:
            return None
        arranged.append(got)
    all_roots = [r for hand in arranged for r in hand]
    cell = orthogonal_cell_basis(all_roots)
    nulls = null_vectors_of_cell(cell)
    pair = None
    for n1 in nulls:
        for n2 in nulls:
            for u in UNITS:
                cand = tuple(u * x for x in n2)
                if FORM_LEECH_H.ip(n1, cand) == THETA:
                    pair = (n1, cand)
                    break
            if pair:
                break
        if pair:
            break
    if pair is None:
        return None
    rows = tuple(all_roots) + pair
    if gram_of(rows, FORM_LEECH_H) != g2:
        return None
    return rows


def _arrange_hand(chain, target):
    """Units and direction making a 4-chain Gram equal the target block."""
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


def null_vectors_of_cell(basis2):
    """Primitive null vectors x*u + y*v for small x, y, up to units."""
    u, v = basis2
    out = []
    seen = set()
    rng = range(-4, 5)
    coeffs = [Eis(a, b) for a in rng for b in rng]
    for x in coeffs:
        for y in coeffs:
            if not x and not y:
                continue
            w = tuple(x * a + y * b for a, b in zip(u, v))
            if FORM_LEECH_H.ip(w, w) == ZERO:
                key = canonical_root(w)
                if key not in seen:
                    seen.add(key)
                    out.append(w)
    return out
