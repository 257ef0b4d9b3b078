"""The complex Leech lattice, complex E8, the hyperbolic cell and L.

A Leech vector is a point of E^12 that
decomposes as m*(1,...,1) + theta*c + 3*z with m in {0, +-1}, c a ternary
Golay word and sum(z) = m mod theta.  E8 is the theta-lift of the
tetracode in E^4.  Inner products: <u,v> = -(1/3) sum conj(u_i) v_i on the
Leech side, -sum conj(u_i) v_i per E8 block, and the hyperbolic cell has
Gram ((0, conj(theta)), (theta, 0)).

First-shell enumeration for the Leech lattice is done twice, by
independent strategies (explicit shape families vs. generic coset search),
and the two vector sets are compared elsewhere as an acceptance gate.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from .rings import Eis, THETA, UNITS, ZERO, ONE
from .linalg import (
    mat_det,
    hermitian_ip,
    vec_is_zero,
)
from .codes import golay12, tetracode

# flat int encoding of an E^12 vector: (a1, b1, a2, b2, ..., a12, b12)
FlatVec = tuple


def to_flat(v) -> FlatVec:
    out = []
    for x in v:
        out.append(x.a)
        out.append(x.b)
    return tuple(out)


def from_flat(f) -> tuple:
    return tuple(Eis(f[2 * i], f[2 * i + 1]) for i in range(len(f) // 2))


def negdef_ip(u, v, div3: bool) -> Eis:
    """<u,v> = -(1/3 if div3 else 1) * sum conj(u_i) v_i."""
    s = ZERO
    for x, y in zip(u, v):
        if x and y:
            s = s + x.conj() * y
    if div3:
        qa, ra = divmod(s.a, 3)
        qb, rb = divmod(s.b, 3)
        if ra or rb:
            raise ValueError("pairing not divisible by 3")
        s = Eis(qa, qb)
    return -s


def leech_ip(u, v) -> Eis:
    return negdef_ip(u, v, div3=True)


def e8_ip(u, v) -> Eis:
    return negdef_ip(u, v, div3=False)


H_GRAM = ((ZERO, -THETA), (THETA, ZERO))  # ((0, conj(theta)), (theta, 0))


def h_ip(u, v) -> Eis:
    return hermitian_ip(u, v, H_GRAM)


@cache
def golay_words():
    code = golay12()
    code.words()
    return code


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
    if c not in golay_words():
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


@cache
def tetra_words():
    code = tetracode()
    code.words()
    return code


def e8_contains(v) -> bool:
    """True iff v mod theta lies in the tetracode."""
    if len(v) != 4:
        raise ValueError("E8 vectors have 4 coordinates")
    word = tuple((x.mod_theta() + 1) % 3 - 1 for x in v)
    return word in tetra_words()


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


def _unit_for_class(target: Eis) -> Eis:
    """The unique unit congruent to target mod 3."""
    for u in UNITS:
        d = u - target
        if d.a % 3 == 0 and d.b % 3 == 0:
            return u
    raise ValueError(f"no unit matches {target} mod 3")


def first_shell_by_shapes():
    """The 196560 norm -6 Leech vectors, enumerated by (m, c) shape family.

    * m=0, c=0: v = 3z with two unit entries of opposite class mod theta;
    * m=0, c of weight 6: v = theta*(unit lift of c) on the support,
      filtered by the z-sum condition;
    * m=+-1: eleven/ten coset-minimal unit entries with one norm-7 or two
      norm-4 replacements, z-sum filtered.

    Returns a list of flat int tuples.
    """
    out = []
    golay = golay_words()

    # family m=0, c=0: 3z with z two units summing to 0 mod theta
    plus = [u for u in UNITS if u.mod_theta() == 1]
    minus = [u for u in UNITS if u.mod_theta() == 2]
    for i, j in combinations(range(12), 2):
        for ui in UNITS:
            pool = minus if ui.mod_theta() == 1 else plus
            for uj in pool:
                flat = [0] * 24
                flat[2 * i], flat[2 * i + 1] = 3 * ui.a, 3 * ui.b
                flat[2 * j], flat[2 * j + 1] = 3 * uj.a, 3 * uj.b
                out.append(tuple(flat))

    # family m=0, weight-6 words: entries theta * (c_i * eta_i)
    # z_i mod theta for eta in {1, w, w^2} is {0, c_i, -c_i}
    eta_res = (0, 1, -1)
    etas = (Eis(1, 0), Eis(0, 1), Eis(-1, -1))
    for c in golay.words():
        support = [i for i, ci in enumerate(c) if ci]
        if len(support) != 6:
            continue
        csup = [c[i] for i in support]
        for combo in product(range(3), repeat=6):
            if sum(eta_res[k] * ci for k, ci in zip(combo, csup)) % 3:
                continue
            flat = [0] * 24
            for pos, k, ci in zip(support, combo, csup):
                e = THETA * (Eis(ci, 0) * etas[k])
                flat[2 * pos], flat[2 * pos + 1] = e.a, e.b
            out.append(tuple(flat))

    # families m=+-1: per-coordinate coset contains one unit u0, one
    # norm-4 element -2*u0 and two norm-7 elements u0*(1+3w), u0*(1+3w^2)
    for m in (1, -1):
        me = Eis(m, 0)
        for c in golay.words():
            base_units = []
            for ci in c:
                base_units.append(_unit_for_class(me + THETA * Eis(ci, 0)))
            base_res = []
            base_flat = []
            for x, ci in zip(base_units, c):
                z = (x - me - THETA * Eis(ci, 0)).exact_div(Eis(3, 0))
                base_res.append(z.mod_theta())
                base_flat.append((x.a, x.b))
            res0 = sum(base_res) % 3
            target = m % 3

            def emit(repls):
                flat = [0] * 24
                for i, (a, b) in enumerate(base_flat):
                    flat[2 * i], flat[2 * i + 1] = a, b
                r = res0
                for pos, e in repls:
                    flat[2 * pos], flat[2 * pos + 1] = e.a, e.b
                    znew = (e - me - THETA * Eis(c[pos], 0)).exact_div(Eis(3, 0))
                    r = (r - base_res[pos] + znew.mod_theta()) % 3
                if r == target:
                    out.append(tuple(flat))

            for pos in range(12):
                u0 = base_units[pos]
                for mult in (Eis(1, 3), Eis(1, 3).conj()):
                    emit([(pos, u0 * mult)])
            for p, q in combinations(range(12), 2):
                emit([(p, Eis(-2, 0) * base_units[p]),
                      (q, Eis(-2, 0) * base_units[q])])
    return out


def first_shell_by_coset_search():
    """Independent enumeration: per-(m, c) depth-first search over cosets.

    For each coordinate the allowed entries are the elements of
    m + theta*c_i + 3E of norm <= 18, listed exhaustively from a bounding
    box; a budgeted DFS walks all 12 coordinates, and the z-sum condition
    is applied at the leaves.  Returns a set of flat int tuples.
    """
    golay = golay_words()
    # per (m in {0,1,-1}, digit in {-1,0,1}): list of (a, b, norm, z_res)
    tables = {}
    for m in (0, 1, -1):
        me = Eis(m, 0)
        for d in (-1, 0, 1):
            base = me + THETA * Eis(d, 0)
            cands = []
            for e, f in product(range(-3, 4), repeat=2):
                x = base + Eis(3 * e, 3 * f)
                n = x.norm()
                if n <= 18:
                    z = Eis(e, f)
                    cands.append((x.a, x.b, n, z.mod_theta()))
            cands.sort(key=lambda t: t[2])
            tables[(m, d)] = tuple(cands)

    found = set()
    for m in (0, 1, -1):
        target = m % 3
        for c in golay.words():
            cols = [tables[(m, d)] for d in c]
            minsuffix = [0] * 13
            for i in range(11, -1, -1):
                minsuffix[i] = minsuffix[i + 1] + cols[i][0][2]
            if minsuffix[0] > 18:
                continue
            flat = [0] * 24
            def dfs(i, budget, res):
                if i == 12:
                    if budget == 0 and res == target:
                        found.add(tuple(flat))
                    return
                rest = minsuffix[i + 1]
                for a, b, n, zr in cols[i]:
                    if n + rest > budget:
                        break
                    flat[2 * i], flat[2 * i + 1] = a, b
                    dfs(i + 1, budget - n, (res + zr) % 3)
                flat[2 * i], flat[2 * i + 1] = 0, 0
            dfs(0, 18, 0)
    return found


def flat_norm6(flat) -> bool:
    s = 0
    for i in range(12):
        a, b = flat[2 * i], flat[2 * i + 1]
        s += a * a - a * b + b * b
    return s == 18


def flat_re_ip2(u, v) -> int:
    """2 * Re(sum conj(u_i) v_i) for flat vectors (integer, exact).

    With u_i = a + bw, v_i = c + dw: Re(conj(u_i) v_i) = A - B/2 where
    A = (a-b)c + bd and B = (a-b)d - bc + bd.
    """
    s = 0
    for i in range(0, 24, 2):
        a, b = u[i], u[i + 1]
        c, d = v[i], v[i + 1]
        ab = a - b
        s += 2 * (ab * c + b * d) - (ab * d - b * c + b * d)
    return s


def flat_sub(u, v) -> FlatVec:
    return tuple(x - y for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# lattice descriptors


class HermitianLattice:
    """A lattice with a fixed basis, ambient form and membership test."""

    def __init__(self, name, basis, ip, membership=None):
        self.name = name
        self.basis = tuple(tuple(v) for v in basis)
        self.rank = len(self.basis)
        self.ip = ip
        self.membership = membership
        self._gram = None

    def gram(self):
        if self._gram is None:
            self._gram = tuple(
                tuple(self.ip(u, v) for v in self.basis) for u in self.basis
            )
        return self._gram

    def discriminant(self) -> int:
        d = mat_det(self.gram())
        if d.b != 0:
            raise ValueError("Gram determinant not real")
        return abs(d.a)

    def contains(self, v) -> bool:
        if self.membership is None:
            raise NotImplementedError(f"{self.name} has no membership test")
        return self.membership(v)


def _hnf_basis(rows, ip):
    """A triangular basis of the row span over the Euclidean domain Z[w]."""
    work = [list(r) for r in rows if not vec_is_zero(r)]
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
    from .codes import GOLAY12_GENS

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
    basis = _hnf_basis(gens, leech_ip)
    if len(basis) != 12:
        raise ArithmeticError("Leech spanning set does not have rank 12")
    return basis


@cache
def e8_basis():
    gens = []
    from .codes import TETRACODE_GENS

    for g in TETRACODE_GENS:
        gens.append(tuple(Eis(x, 0) for x in g))
    for i in range(4):
        row = [ZERO] * 4
        row[i] = THETA
        gens.append(tuple(row))
    basis = _hnf_basis(gens, e8_ip)
    if len(basis) != 4:
        raise ArithmeticError("E8 spanning set does not have rank 4")
    return basis


def lattice_lambda() -> HermitianLattice:
    return HermitianLattice(
        "Leech", leech_basis(), leech_ip, lambda v: leech_contains(v) is not None
    )


def lattice_e8() -> HermitianLattice:
    return HermitianLattice("E8", e8_basis(), e8_ip, e8_contains)


def lattice_h() -> HermitianLattice:
    basis = ((ONE, ZERO), (ZERO, ONE))
    return HermitianLattice("H", basis, h_ip, lambda v: True)


def lattice_leech_h() -> HermitianLattice:
    from .linalg import FORM_LEECH_H

    basis = []
    for row in leech_basis():
        basis.append(tuple(row) + (ZERO, ZERO))
    basis.append((ZERO,) * 12 + (ONE, ZERO))
    basis.append((ZERO,) * 12 + (ZERO, ONE))
    return HermitianLattice("Leech+H", basis, FORM_LEECH_H.ip, in_l_leech_h)


def lattice_3e8_h() -> HermitianLattice:
    from .linalg import FORM_E8H

    basis = []
    for blk in range(3):
        for row in e8_basis():
            v = [ZERO] * 14
            for i, x in enumerate(row):
                v[4 * blk + i] = x
            basis.append(tuple(v))
    basis.append((ZERO,) * 12 + (ONE, ZERO))
    basis.append((ZERO,) * 12 + (ZERO, ONE))
    return HermitianLattice("3E8+H", basis, FORM_E8H.ip, in_l_e8h)


def in_l_e8h(v) -> bool:
    """Membership of a 14-coordinate vector in L = 3E8+H coordinates."""
    return all(e8_contains(v[4 * b: 4 * b + 4]) for b in range(3))


def in_l_leech_h(v) -> bool:
    return leech_contains(v[:12]) is not None


def is_primitive(v) -> bool:
    """No non-unit of Z[w] divides every coordinate."""
    from .rings import eis_gcd

    g = ZERO
    for x in v:
        g = eis_gcd(g, x)
        if g.is_unit():
            return True
    return bool(g) and g.is_unit()


def affine_e8_check(c, d, e, f, bprime, ip) -> bool:
    """The lowest-root relation b' + (2+w)c + 2d + (2+w)e + f = 0 plus the
    affine chain shape (b'-c-d-e-f consecutive adjacency, norms -3)."""
    chain = (bprime, c, d, e, f)
    for x in chain:
        if ip(x, x) != Eis(-3, 0):
            return False
    for i in range(5):
        for j in range(i + 1, 5):
            n = ip(chain[i], chain[j]).norm()
            want = 3 if j == i + 1 else 0
            if n != want:
                return False
    lam = Eis(2, 1)
    acc = [bprime[k] + lam * c[k] + Eis(2, 0) * d[k] + lam * e[k] + f[k]
           for k in range(len(c))]
    return all(not x for x in acc)
