"""Vectors, matrices and Hermitian forms over Z[w] (and Z[zeta_12]).

Vectors are tuples of ring elements, matrices are tuples of row tuples.
Matrices and forms have Z[w] entries; a vector may have Z[w] or Z[zeta_12]
entries, and one pairing and one image map serve both rings.
Hermitian forms are conjugate linear in the FIRST argument and linear in
the second.  Lattice automorphisms are held as ``AutMatrix``: an exact
coordinate-space matrix A / theta^k (theta-denominators arise because the
coordinate lattice E^n may be strictly larger than the lattice acted on).
One fraction-free elimination over Z[w] serves the determinant, the
inverse, the choice of independent vectors and the kernel.  Nothing leaves
Z[w]: an inverse is an integral matrix over one pivot d, and
``AutMatrix.over`` clears such a denominator into a theta power.
"""

from __future__ import annotations

from itertools import chain, starmap
from operator import matmul

from .rings import Cyclo12, Eis, OMEGA, THETA, ZERO, ONE, power

EMatrix = tuple


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_scale(s, u):
    return tuple(s * x for x in u)


def mat_vec(m, v):
    """m v for a Z[w] matrix m and a Z[w] or Z[zeta_12] vector v."""
    rows = [_pairs(row) for row in m]
    return _join([[_dot(support, row) for row in rows] for support in map(_support, _split(v))])


def mat_mul(a, b):
    cols = [_pairs(col) for col in zip(*b)]
    supports = [_support(_pairs(row)) for row in a]
    return tuple(_eis(_dot(support, col) for col in cols) for support in supports)


# ---------------------------------------------------------------------------
# the int pair kernels: each converts its Eis arguments to int pairs (a, b)
# once and builds Eis only for the values it returns


def _pairs(xs):
    """The Z[w] entries a + b w of xs as int pairs (a, b)."""
    return [(x.a, x.b) for x in xs]


def _eis(pairs):
    return tuple(starmap(Eis, pairs))


def _support(pairs):
    """(j, a, b) for each nonzero int pair (a, b), j its place."""
    return [(j, a, b) for j, (a, b) in enumerate(pairs) if a or b]


def _dot(support, pairs):
    """sum u_j v_j as an int pair, u given by its support and v as int
    pairs: (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w."""
    s = t = 0
    for j, a, b in support:
        c, d = pairs[j]
        bd = b * d
        s += a * c - bd
        t += a * d + b * c - bd
    return s, t


def _times(pairs, s, n=1):
    """The int pairs x s / n, s an int pair and every division by the int n
    exact, else ValueError."""
    c, d = s
    return _exact([(a * c - b * d, a * d + b * c - b * d) for a, b in pairs], n)


def _exact(pairs, n):
    """The int pairs over the int n, each division exact, else ValueError."""
    if n == 1:
        return pairs
    out = []
    for a, b in pairs:
        qa, ra = divmod(a, n)
        qb, rb = divmod(b, n)
        if ra or rb:
            raise ValueError(f"{a},{b} not divisible by {n}")
        out.append((qa, qb))
    return out


def _split(v):
    """A vector as int pair vectors over Z[w]: (v,) for Z[w] entries, and
    (u, u') with v = u + z u' for Z[zeta_12] entries (z^2 = 1 + w), as
    c0 + c1 z + c2 z^2 + c3 z^3 = (c0 + c2) + c2 w + z ((c1 + c3) + c3 w).
    The halves go through the same Z[w] products."""
    if v and isinstance(v[0], Cyclo12):
        cs = [x.c for x in v]
        return [(c0 + c2, c2) for c0, _, c2, _ in cs], [(c1 + c3, c3) for _, c1, _, c3 in cs]
    return (_pairs(v),)


def _join(halves):
    """The vector that _split gave as halves: a + b w + z (c + d w) joins
    back as (a - b) + (c - d) z + b z^2 + d z^3."""
    if len(halves) == 1:
        return _eis(halves[0])
    return tuple(Cyclo12(a - b, c - d, b, d) for (a, b), (c, d) in zip(*halves))


def mat_conj_transpose(m):
    return tuple(tuple(x.conj() for x in col) for col in zip(*m))


def mat_identity(n) -> EMatrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_scalar(n, s) -> EMatrix:
    s = s if isinstance(s, Eis) else Eis(s)
    return tuple(tuple(s if i == j else ZERO for j in range(n)) for i in range(n))


def gram_of(rows, form):
    """The Gram matrix of the rows under ``form.ip``, a Hermitian pairing:
    each unordered pair of rows is paired once, and the entry below the
    diagonal is the conjugate of the one above."""
    n = len(rows)
    g = [[None] * n for _ in range(n)]
    for i, u in enumerate(rows):
        for j in range(i, n):
            g[i][j] = x = form.ip(u, rows[j])
            g[j][i] = x.conj()
    return tuple(map(tuple, g))


def negdef_ip(u, v, den=1):
    """-(1/den) sum conj(u_i) v_i, the division by den exact."""
    s = ZERO
    for x, y in zip(u, v):
        if x and y:
            s = s + x.conj() * y
    if den != 1:
        s = s.divide_exact_int(den)
    return -s


# ---------------------------------------------------------------------------
# the exact elimination core


def _eliminate(rows, width=None):
    """Bareiss's fraction-free Gauss-Jordan elimination of a Z[w] matrix.

    Pivots are taken column by column among the first ``width`` columns
    (all by default), each from the first row at or below the current one
    with a nonzero entry there.  A step sets row_i <- (p row_i - f row_p) / q
    for every other row, with p the new pivot, f the row's entry in the
    pivot column and q the previous pivot; the division is exact because
    every entry stays a minor of the input.  Afterwards each pivot row holds
    the last pivot d at its pivot column and zeros at the other pivot
    columns, so the reduced row echelon form over Q(w) is the result / d.

    Returns (rows, pivot columns, d, sign of the row permutation); d is
    sign * det for a nonsingular square input.
    """
    a = [_pairs(row) for row in rows]
    n = len(a)
    width = len(a[0]) if width is None else width
    pivots = []
    prev = (1, 0)
    sign = 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c] != (0, 0)), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        # dividing by q is multiplying by conj(q), then dividing by norm(q)
        qa, qb = prev
        conj_q, norm_q = (qa - qb, -qb), qa * qa - qa * qb + qb * qb
        (pa, pb), = _times([p], conj_q)
        for i in range(n):
            row = a[i]
            f = row[c]
            if i == r or (f == (0, 0) and p == prev):
                continue
            (fa, fb), = _times([f], conj_q)
            a[i] = _exact([(pa * x - pb * y - fa * u + fb * v,
                            pa * y + pb * x - pb * y - fa * v - fb * u + fb * v)
                           for (x, y), (u, v) in zip(row, prow)], norm_q)
        prev = p
        pivots.append(c)
    return [list(_eis(row)) for row in a], pivots, Eis(*prev), sign


def mat_det(m) -> Eis:
    """Exact determinant over Z[w]."""
    _, pivots, d, sign = _eliminate(m)
    if len(pivots) < len(m):
        return ZERO
    return -d if sign < 0 else d


def mat_inverse(m):
    """(adj, d) with m adj = d I, both over Z[w], so m^-1 = adj / d; a
    singular m raises ValueError."""
    return spanning_basis(tuple(zip(*m)))[1]


def kernel(rows) -> list:
    """Kernel basis of a matrix acting on column vectors, in Z[w]: one
    vector per free column, with the last pivot d there and 0 at the other
    free columns."""
    a, pivots, d, _ = _eliminate(rows)
    out = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        t = [ZERO] * len(rows[0])
        t[f] = d
        for row, c in zip(a, pivots):
            t[c] = -row[f]
        out.append(tuple(t))
    return out


def spanning_basis(vectors):
    """(indices, (adj, d)): the first vectors that span the whole space,
    and the ``mat_inverse`` of the matrix with those vectors as columns,
    from one elimination of [vectors^T | I] (a column with no pivot moves
    no row, so the right block is that of the picked columns alone)."""
    m = len(vectors)
    aug = [col + e for col, e in zip(zip(*vectors), mat_identity(len(vectors[0])))]
    a, picked, d, _ = _eliminate(aug, m)
    if len(picked) != len(aug):
        raise ValueError("vectors do not span the coordinate space")
    return picked, (tuple(tuple(row[m:]) for row in a), d)


def aut_from_images(sources, targets, spanning=None) -> "AutMatrix":
    """The lattice map sending sources[i] to targets[i] for every i.

    It is solved on the first spanning sources (``spanning`` may pass their
    cached ``spanning_basis``), theta-cleared and checked on every pair.
    Raises ValueError when no lattice map sends each source to its target.
    """
    picked, (adj, d) = spanning or spanning_basis(sources)
    cols = tuple(zip(*(targets[i] for i in picked)))
    aut = AutMatrix.over(mat_mul(cols, adj), d)
    # mat / theta^k sends every source to its target: one product with the
    # sources as columns, against the targets times theta^k
    scale = THETA ** aut.k
    images = tuple(zip(*(vec_scale(scale, t) for t in targets)))
    if mat_mul(aut.mat, tuple(zip(*sources))) != images:
        raise ValueError("images are not those of one lattice map")
    return aut


# ---------------------------------------------------------------------------
# Hermitian forms of the two coordinate systems


class LorentzForm:
    """The Hermitian form of a 14-dim Lorentzian coordinate system.

    <u, v> = conj(u)^T gram v / den with the integral Hermitian matrix

    * gram[i][i] = -1 on the first 12 coordinates, so that block is minus
      the plain sum (den = 1, 3E8+H system) or minus one third of it
      (den = 3, Leech+H system);
    * den times the hyperbolic cell ((0, conj(theta)), (theta, 0)) on the
      last two coordinates.
    """

    def __init__(self, name: str, den: int):
        self.name = name
        self.den = den
        g = [[ZERO] * 14 for _ in range(14)]
        for i in range(12):
            g[i][i] = -ONE
        g[12][13] = -THETA * den  # conj(theta) = -theta
        g[13][12] = THETA * den
        self.gram = tuple(tuple(row) for row in g)
        # the nonzero entries of each gram column, as (row index, entry)
        self._cols = tuple(tuple((i, x) for i, x in enumerate(col) if x)
                           for col in zip(*self.gram))

    def ip(self, u, v):
        """<u, v> for Z[w] or Z[zeta_12] entries, in the ring of the entries."""
        if len(u) != 14 or len(v) != 14:
            raise ValueError("LorentzForm expects 14 coordinates")
        h = u[13].conj() * THETA * v[12] - u[12].conj() * THETA * v[13]
        return h + negdef_ip(u[:12], v[:12], self.den)

    #: the same pairing under a second name, so that a trace counts the
    #: pairings with the Z[zeta_12] vector rho_hat apart
    ip12 = ip

    def row(self, u):
        """The row conj(u)^T gram as int rows, one per int coordinate of
        the ring of u (a, b in Z[w]; c0..c3 in Z[zeta_12]): for a Z[w]
        vector v, coordinate k of <u, v> is
        sum(row[k][i] * to_flat(v)[i]) / den, the division exact when the
        pairing is integral.  Entry t_j of the row meets v_j = a + b w as
        a t_j + b (w t_j), so it fills the two flat places of v_j."""
        zero = ZERO * u[0]  # in the ring of u, so that every t has its width
        places = []
        for col in self._cols:
            t = sum((u[i].conj() * x for i, x in col if u[i]), start=zero)
            places += (_coords(t), _coords(t * OMEGA if t else t))
        return tuple(zip(*places))


def _coords(x):
    """The int coordinates of a Z[w] or Z[zeta_12] element."""
    return x.c if isinstance(x, Cyclo12) else (x.a, x.b)


FORM_E8H = LorentzForm("3E8+H", den=1)
FORM_LEECH_H = LorentzForm("Leech+H", den=3)


# ---------------------------------------------------------------------------
# Automorphisms as exact coordinate matrices A / theta^k


def _v3(n, cap):
    """min(cap, v_3(n)) for an int n != 0.  For a nonzero x in Z[w] the
    theta-valuation is v_3(norm x), because 3 = -theta^2 ramifies."""
    v = 0
    while v < cap and n % 3 == 0:
        n //= 3
        v += 1
    return v


def _untheta(pairs, j):
    """The int pairs over theta^j, each divisible: theta^-j = (-theta)^j / 3^j."""
    s = (-THETA) ** j
    return _times(pairs, (s.a, s.b), 3 ** j)


class AutMatrix:
    """A lattice automorphism as a coordinate matrix with theta denominator.

    value = mat / theta^k in lowest terms: after reduction k = 0 or some
    entry of mat is not divisible by theta.  k has no fixed bound (the
    change of basis Leech+H -> 3E8+H has k = 3); products are reduced again.
    """

    __slots__ = ("mat", "k", "n")

    def __init__(self, mat, k=0):
        self.mat = tuple(tuple(row) for row in mat)
        self.k = k
        self.n = len(self.mat)
        self._reduce()

    def _reduce(self):
        # strip theta^j at once, j the least theta-valuation of an entry
        j = self.k
        for x in chain.from_iterable(self.mat):
            if not j:
                return
            if x:
                j = _v3(x.norm(), j)
        if j:
            self.mat = tuple(_eis(_untheta(_pairs(row), j)) for row in self.mat)
            self.k -= j

    @classmethod
    def identity(cls, n=14) -> "AutMatrix":
        return cls(mat_identity(n))

    @classmethod
    def over(cls, mat, d) -> "AutMatrix":
        """The AutMatrix equal to the Z[w] matrix mat / d.

        d splits once into theta^e (e = v_3 of its norm) times a part prime
        to theta; every entry is divided exactly by that part, which leaves
        mat' / theta^e.  A failed division raises ValueError: mat / d is
        then no lattice map; a zero d raises ZeroDivisionError.
        """
        if not d:
            raise ZeroDivisionError("AutMatrix.over a zero denominator")
        e = _v3(d.norm(), d.norm())  # v_3(n) < n: the cap never binds
        d = Eis(*_untheta([(d.a, d.b)], e)[0])
        c = d.conj()
        try:
            mat = [_eis(_times(_pairs(row), (c.a, c.b), d.norm())) for row in mat]
        except ValueError:
            raise ValueError("matrix is not theta-integral; not a lattice map") from None
        return cls(mat, e)

    def __eq__(self, other):
        if not isinstance(other, AutMatrix):
            return NotImplemented
        return self.k == other.k and self.mat == other.mat

    def __hash__(self):
        return hash((self.k, self.mat))

    def __matmul__(self, other: "AutMatrix") -> "AutMatrix":
        return AutMatrix(mat_mul(self.mat, other.mat), self.k + other.k)

    def __pow__(self, n: int) -> "AutMatrix":
        return power(self, n, AutMatrix.identity(self.n), matmul)

    def apply(self, v):
        """Image of a coordinate vector with Z[w] or Z[zeta_12] entries."""
        w = mat_vec(self.mat, v)
        return _join([_untheta(half, self.k) for half in _split(w)]) if self.k else w

    def is_identity(self) -> bool:
        return self.k == 0 and self.mat == mat_identity(self.n)

    def scalar(self):
        """The scalar s when self == s * I, else None."""
        if self.k != 0:
            return None
        s = self.mat[0][0]
        return s if self.mat == mat_scalar(self.n, s) else None

    def inverse(self) -> "AutMatrix":
        # value = mat / theta^k, so the inverse is theta^k adj / d
        adj, d = mat_inverse(self.mat)
        s = THETA ** self.k
        return AutMatrix.over([_eis(_times(_pairs(row), (s.a, s.b))) for row in adj], d)

    def preserves_form(self, form: LorentzForm, target: LorentzForm | None = None) -> bool:
        """Exact check that self maps ``form`` onto ``target`` (by default
        ``form`` again): <M u, M v>_target == <u, v>_form for all u, v, as
        conj(mat)^T G_target mat den_form == 3^k G_form den_target on the
        integral grams, M = mat / theta^k."""
        target = target or form
        lhs = mat_mul(mat_conj_transpose(self.mat), mat_mul(target.gram, self.mat))
        scale = 3 ** self.k * target.den  # conj(theta^k) theta^k = 3^k
        return all(x.a * form.den == y.a * scale and x.b * form.den == y.b * scale
                   for lrow, grow in zip(lhs, form.gram) for x, y in zip(lrow, grow))


# ---------------------------------------------------------------------------
# characteristic polynomials


def poly_mul(a, b, zero=0):
    """The product of two coefficient lists (either order, same for both)."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def charpoly(m) -> list:
    """det(x I - m) of a square Z[w] matrix, division-free (Berkowitz).

    Returns coefficients [c_0, ..., c_n] with p(x) = sum c_i x^i and c_n = 1.
    With M the leading r x r block, R and C the rest of row and column r,
    the leading (r+1)-block has polynomial T p_r, T lower-triangular
    Toeplitz with first column t = (1, -m_rr, -R C, -R M C, ...,
    -R M^(r-1) C): in descending coefficients, the product t p_r cut to
    r + 2 terms (S. J. Berkowitz, Inform. Process. Lett. 18, 1984).
    """
    rows = [_pairs(row) for row in m]
    p = [ONE]
    for r, row in enumerate(rows):
        t = [row[r]]
        col = [rows[i][r] for i in range(r)]
        # col has r places: row and rows[:r] act as R and M
        for _ in range(r):
            support = _support(col)
            t.append(_dot(support, row))
            col = [_dot(support, x) for x in rows[:r]]
        p = poly_mul([ONE, *(Eis(-a, -b) for a, b in t)], p, ZERO)[: r + 2]
    return p[::-1]
