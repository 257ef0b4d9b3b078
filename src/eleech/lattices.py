"""The complex Leech lattice, complex E8, the hyperbolic cell and L.

A Leech vector is a point of E^12 that
decomposes as m*(1,...,1) + theta*c + 3*z with m in {0, +-1}, c a ternary
Golay word and sum(z) = m mod theta.  E8 is the theta-lift of the
tetracode in E^4.  Inner products: <u,v> = -(1/3) sum conj(u_i) v_i on the
Leech side and -sum conj(u_i) v_i per E8 block, both ``linalg.negdef_ip``;
the hyperbolic cell H and the 14-coordinate lattices Leech+H and 3E8+H
take their forms from ``linalg.LorentzForm``.

First-shell enumeration for the Leech lattice is done twice, by
independent strategies, and the two vector sets are compared elsewhere as
an acceptance gate: explicit shape families, which build only the
vectors that meet the z-sum condition, and a generic coset search, which
joins tables of 4-coordinate blocks grouped by (norm, z residue).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from .rings import Eis, THETA, UNITS, ZERO, ONE, OMEGA, OMEGA2
from .linalg import FORM_E8H, FORM_LEECH_H, flat_norm, gram_of, mat_det, negdef_ip
from .codes import GOLAY12_GENS, TETRACODE_GENS, golay12, tetracode

def leech_ip(u, v) -> Eis:
    return negdef_ip(u, v, 3)


def leech_contains(v):
    """Membership with witness.

    Returns (m, c, z) with v = m*1 + theta*c + 3*z, c a Golay word and
    sum(z) = m mod theta, or None when v is not in the lattice.
    """
    if len(v) != 12:
        raise ValueError("Leech vectors have 12 coordinates")
    res = {x.mod_theta() for x in v}
    if len(res) != 1:
        return None
    m = res.pop()
    m = m - 3 if m == 2 else m  # representative in {0, 1, -1}
    me = Eis(m, 0)
    w = tuple((x - me).exact_div(THETA) for x in v)
    c = tuple((x.mod_theta() + 1) % 3 - 1 for x in w)  # digits in {-1,0,1}
    if c not in golay12():
        return None
    z = []
    for x, ci in zip(v, c):
        t = x - me - THETA * Eis(ci, 0)
        qa, ra = divmod(t.a, 3)
        qb, rb = divmod(t.b, 3)
        if ra or rb:
            return None
        z.append(Eis(qa, qb))
    zsum = sum(z, start=ZERO)
    if zsum.mod_theta() != m % 3:
        return None
    return (m, c, tuple(z))


def e8_contains(v) -> bool:
    """True iff v mod theta lies in the tetracode."""
    if len(v) != 4:
        raise ValueError("E8 vectors have 4 coordinates")
    word = tuple((x.mod_theta() + 1) % 3 - 1 for x in v)
    return word in tetracode()


# ---------------------------------------------------------------------------
# shells

_NORM3 = tuple(THETA * u for u in UNITS)


def shell_e8():
    """All 240 vectors of norm -3 in complex E8 (exhaustive box search).

    sum |v_i|^2 = 3 bounds every coordinate, so the 13-element candidate
    list per coordinate (norm 0, 1, 3) is provably complete.
    """
    cands = [Eis(0, 0)] + list(UNITS) + list(_NORM3)
    out = []
    for v in product(cands, repeat=4):
        if sum(x.norm() for x in v) == 3 and e8_contains(v):
            out.append(v)
    return out


def _coset_entry(x, m, d):
    """(a, b, z mod theta) for the entry x = a + b w = m + theta*d + 3z."""
    z = (x - m - THETA * d).divide_exact_int(3)
    return x.a, x.b, z.mod_theta()


def first_shell_by_shapes():
    """The 196560 norm -6 Leech vectors, enumerated by (m, c) shape family.

    * m=0, c=0: v = 3z with two unit entries of opposite class mod theta;
    * m=0, c of weight 6: v = theta*(unit lift of c) on the support; the
      z-sum condition fixes the unit on the last support position;
    * m=+-1: eleven/ten coset-minimal unit entries with one norm-7 or two
      norm-4 replacements; each replacement's change of the z-sum is
      tabulated per digit, so only the replacements that meet the z-sum
      condition are built.

    The coset entries are tabulated once per digit as (a, b, z mod theta),
    so the loops over the Golay words only look them up.  Returns a list
    of flat int tuples.
    """
    out = []
    words = golay12().words()

    # family m=0, c=0: 3z with z two units summing to 0 mod theta
    for i, j in combinations(range(12), 2):
        for ui in UNITS:
            for uj in UNITS:
                if (ui.mod_theta() + uj.mod_theta()) % 3 == 0:
                    flat = [0] * 24
                    flat[2 * i: 2 * i + 2] = 3 * ui.a, 3 * ui.b
                    flat[2 * j: 2 * j + 2] = 3 * uj.a, 3 * uj.b
                    out.append(tuple(flat))

    # family m=0, weight-6 words: entries theta * d * eta, eta in {1, w, w^2};
    # the three etas of a digit have distinct z residues, so the last one is
    # the eta whose residue brings the sum to 0
    etas = {d: [_coset_entry(THETA * d * eta, 0, d) for eta in (ONE, OMEGA, OMEGA2)]
            for d in (-1, 1)}
    closing = {d: {-e[2] % 3: e for e in etas[d]} for d in (-1, 1)}
    for c in words:
        support = [i for i, d in enumerate(c) if d]
        if len(support) != 6:
            continue
        last = closing[c[support[5]]]
        for choice in product(*(etas[c[i]] for i in support[:5])):
            choice += (last[sum(e[2] for e in choice) % 3],)
            flat = [0] * 24
            for pos, (a, b, _) in zip(support, choice):
                flat[2 * pos: 2 * pos + 2] = a, b
            out.append(tuple(flat))

    # families m=+-1: per-coordinate coset contains one unit u, one
    # norm-4 element -2u and two norm-7 elements u(1+3w), u(1+3w^2)
    for m in (1, -1):
        cosets, res_u = {}, {}
        for d in (-1, 0, 1):
            u = next(u for u in UNITS if Eis(3, 0).divides(u - m - THETA * d))
            entries = [_coset_entry(x, m, d)
                       for x in (u, -2 * u, u * Eis(1, 3), u * Eis(-2, -3))]
            res_u[d] = entries[0][2]
            # (a, b) of each entry and its change of the z residue from u's
            cosets[d] = [((a, b), (r - res_u[d]) % 3) for a, b, r in entries]
        for c in words:
            cols = [cosets[d] for d in c]
            base = [t for col in cols for t in col[0][0]]
            # the z-sum condition asks the replacements to change u's
            # residues by need in all
            need = (m - sum(res_u[d] for d in c)) % 3
            for pos, col in enumerate(cols):
                for ab, delta in col[2:]:
                    if delta == need:
                        flat = base.copy()
                        flat[2 * pos: 2 * pos + 2] = ab
                        out.append(tuple(flat))
            # two norm-4 replacements at p < q, their changes summing to need
            by_delta = ([], [], [])
            for q, col in enumerate(cols):
                by_delta[col[1][1]].append(q)
            for p, col in enumerate(cols):
                for q in by_delta[(need - col[1][1]) % 3]:
                    if q > p:
                        flat = base.copy()
                        flat[2 * p: 2 * p + 2] = col[1][0]
                        flat[2 * q: 2 * q + 2] = cols[q][1][0]
                        out.append(tuple(flat))
    return out


def _coset_candidates(m, d):
    """The entries x = m + theta*d + 3z of norm <= 18 as (a, b, norm,
    z mod theta), listed from the box |e|, |f| <= 3 of z = e + f w."""
    base = Eis(m, 0) + THETA * Eis(d, 0)
    cands = []
    for e, f in product(range(-3, 4), repeat=2):
        x = base + Eis(3 * e, 3 * f)
        if x.norm() <= 18:
            cands.append((x.a, x.b, x.norm(), Eis(e, f).mod_theta()))
    return cands


def _extend_groups(groups, col, cap):
    """Partial flat tuples one coordinate longer: groups maps (norm, z
    residue) to tuples; each is extended by every entry of col that keeps
    the norm at most cap."""
    out = {}
    for (n, r), tuples in groups.items():
        for a, b, nx, zr in col:
            if n + nx <= cap:
                out.setdefault((n + nx, (r + zr) % 3), []).extend(t + (a, b) for t in tuples)
    return out


def first_shell_by_coset_search():
    """Independent enumeration: per-(m, c) search over cosets, joined by
    blocks of 4 coordinates.

    For each coordinate the allowed entries are the elements of
    m + theta*c_i + 3E of norm <= 18, listed exhaustively from a bounding
    box.  For each m the 4-coordinate blocks are tabulated by their digit
    tuple, grouping the block's partial vectors by (norm, z residue); a
    block extends the table of its 3-digit prefix by one coordinate.  A
    partial vector is kept only while some Golay word leaves it room: its
    norm plus the least norms of that word's other coordinates is at most
    18.  A word's vectors join its three blocks: for each group of the
    first two blocks, the third block's group with the remaining norm and
    the residue that makes sum(z) = m mod theta.  Returns a set of flat
    int tuples.
    """
    words = golay12().words()
    found = set()
    for m in (0, 1, -1):
        target = m % 3
        cols = {d: _coset_candidates(m, d) for d in (-1, 0, 1)}
        least = {d: min(e[2] for e in col) for d, col in cols.items()}
        # digit prefix of a block -> the largest norm its partial vectors may
        # have; a prefix is entered before its extensions
        cap = {}
        for c in words:
            rest = 18 - sum(least[d] for d in c)
            for k in (0, 4, 8):
                room = rest
                for i in range(k, k + 4):
                    room += least[c[i]]
                    cap[c[k:i + 1]] = max(cap.get(c[k:i + 1], room), room)
        # digit prefix -> groups; the next m's tables replace this m's
        memo = {(): {(0, 0): [()]}}
        for key, room in cap.items():
            memo[key] = _extend_groups(memo[key[:-1]], cols[key[-1]], room)
        for c in words:
            g1, g2, g3 = memo[c[0:4]], memo[c[4:8]], memo[c[8:12]]
            for (n1, r1), xs in g1.items():
                for (n2, r2), ys in g2.items():
                    zs = g3.get((18 - n1 - n2, (target - r1 - r2) % 3))
                    if zs:
                        found.update(x + y + z for x in xs for y in ys for z in zs)
    return found


def flat_norm6(flat) -> bool:
    """True iff the flat Leech vector has norm -6 (coordinate norms sum to 18)."""
    return flat_norm(flat) == 18


def re_row(u) -> tuple:
    """The int row of a flat vector u whose dot product with a flat v is
    2 Re sum conj(u_i) v_i.  With u_i = c + dw and v_i = a + bw the term
    is (2a - b)c + (2b - a)d, so the row holds 2c - d, 2d - c."""
    return tuple(x for c, d in zip(u[::2], u[1::2]) for x in (2 * c - d, 2 * d - c))


def im_row(u) -> tuple:
    """The int row of a flat vector u whose dot product with a flat v is
    (2/sqrt 3) Im sum conj(u_i) v_i = sum b_i c_i - a_i d_i (u_i = c + dw,
    v_i = a + bw): three times 2[v, u], [x, y] = Im<x, y>/sqrt 3 for the
    Leech form.  The row holds -d, c."""
    return tuple(x for c, d in zip(u[::2], u[1::2]) for x in (-d, c))


# ---------------------------------------------------------------------------
# lattice descriptors


class HermitianLattice:
    """A lattice with a fixed basis and ambient form."""

    def __init__(self, basis, ip):
        self.basis = tuple(tuple(v) for v in basis)
        self.ip = ip

    def discriminant(self) -> int:
        d = mat_det(gram_of(self.basis, self))
        if d.b != 0:
            raise ValueError("Gram determinant not real")
        return abs(d.a)


def _hnf_basis(rows):
    """A triangular basis of the row span over the Euclidean domain Z[w]."""
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0])
    basis = []
    col = 0
    while work and col < ncols:
        live = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: r[col].norm())
            piv = live[0]
            new_live = [piv]
            for r in live[1:]:
                q, _ = divmod(r[col], piv[col])
                rr = [x - q * y for x, y in zip(r, piv)]
                if rr[col]:
                    new_live.append(rr)
                elif any(rr):
                    rest.append(rr)
            if len(new_live) == len(live) and all(
                r[col] == live[i][col] for i, r in enumerate(new_live)
            ):
                break
            live = new_live
        basis.append(tuple(live[0]))
        for r in live[1:]:
            rest.append(r)
        work = rest
        col += 1
    return tuple(basis)


@cache
def leech_basis():
    """A deterministic E-basis of the complex Leech lattice.

    Built by Hermite reduction of a standard spanning set: the ones-vector
    shifted into the lattice, theta-lifts of the Golay generator rows,
    3(e_i - e_{i+1}) and 3*theta*e_1.  Validity is certified by membership
    of every row plus discriminant 3^6 (tested), which together force the
    row span to be the whole lattice.
    """
    gens = []
    ones = [Eis(1, 0)] * 12
    ones[0] = Eis(4, 0)  # m=1, c=0, z=e_1
    gens.append(tuple(ones))
    for g in GOLAY12_GENS:
        gens.append(tuple(THETA * Eis(x, 0) for x in g))
    for i in range(11):
        row = [ZERO] * 12
        row[i] = Eis(3, 0)
        row[i + 1] = Eis(-3, 0)
        gens.append(tuple(row))
    row = [ZERO] * 12
    row[0] = Eis(3, 0) * THETA
    gens.append(tuple(row))
    basis = _hnf_basis(gens)
    if len(basis) != 12:
        raise ArithmeticError("Leech spanning set does not have rank 12")
    return basis


@cache
def e8_basis():
    gens = []
    for g in TETRACODE_GENS:
        gens.append(tuple(Eis(x, 0) for x in g))
    for i in range(4):
        row = [ZERO] * 4
        row[i] = THETA
        gens.append(tuple(row))
    basis = _hnf_basis(gens)
    if len(basis) != 4:
        raise ArithmeticError("E8 spanning set does not have rank 4")
    return basis


def lattice_lambda() -> HermitianLattice:
    return HermitianLattice(leech_basis(), leech_ip)


def lattice_e8() -> HermitianLattice:
    return HermitianLattice(e8_basis(), negdef_ip)


def lattice_h() -> HermitianLattice:
    """The hyperbolic cell: the last two basis vectors of 3E8+H."""
    return HermitianLattice(lattice_3e8_h().basis[12:], FORM_E8H.ip)


def lattice_leech_h() -> HermitianLattice:
    basis = []
    for row in leech_basis():
        basis.append(tuple(row) + (ZERO, ZERO))
    basis.append((ZERO,) * 12 + (ONE, ZERO))
    basis.append((ZERO,) * 12 + (ZERO, ONE))
    return HermitianLattice(basis, FORM_LEECH_H.ip)


def lattice_3e8_h() -> HermitianLattice:
    basis = []
    for blk in range(3):
        for row in e8_basis():
            v = [ZERO] * 14
            for i, x in enumerate(row):
                v[4 * blk + i] = x
            basis.append(tuple(v))
    basis.append((ZERO,) * 12 + (ONE, ZERO))
    basis.append((ZERO,) * 12 + (ZERO, ONE))
    return HermitianLattice(basis, FORM_E8H.ip)


def in_l_e8h(v) -> bool:
    """Membership of a 14-coordinate vector in L = 3E8+H coordinates."""
    return all(e8_contains(v[4 * b: 4 * b + 4]) for b in range(3))


def in_l_leech_h(v) -> bool:
    return leech_contains(v[:12]) is not None
