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

The int kernels hold a Z[w] vector as the flat ints (a_0, b_0, a_1, ...)
of its coordinates a_i + b_i w, and ``to_flat``/``from_flat`` are the
package's one boundary to Eis: ``sparse``, ``_dot``, ``_mul``, ``_times``,
``_exact``, ``_conj``, ``flat_norm`` and ``_split``/``_join`` work on that
layout, and so do the elimination, ``charpoly`` and ``AutMatrix``'s rows.
"""

from __future__ import annotations

from itertools import chain
from operator import matmul

from .rings import Cyclo12, Eis, OMEGA, THETA, ZERO, ONE, power

def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_scale(s, u):
    return tuple(s * x for x in u)


def mat_mul(a, b):
    """a b for Z[w] matrices."""
    return tuple(map(from_flat, _mul(map(to_flat, a), [to_flat(col) for col in zip(*b)])))


# ---------------------------------------------------------------------------
# the flat int layout and its kernels: a Z[w] vector (a_0 + b_0 w, ...) is
# the int tuple (a_0, b_0, a_1, b_1, ...), and a matrix its flat rows


def to_flat(v):
    """The coordinates of v as one flat int tuple, hashed and compared in C."""
    return tuple([c for x in v for c in (x.a, x.b)])


def from_flat(flat):
    """The Eis vector of a flat int vector."""
    it = iter(flat)
    return tuple(map(Eis, it, it))


def sparse(flat):
    """(i, a, b) for each nonzero coordinate a + b w, i the flat index of a."""
    return [(i, a, b) for i, a, b in zip(range(0, len(flat), 2), flat[::2], flat[1::2])
            if a or b]


def _dot(entries, flat):
    """sum x_j y_j as an int pair, x given by its sparse entries and y flat:
    (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w."""
    s = t = 0
    for i, a, b in entries:
        c, d = flat[i], flat[i + 1]
        bd = b * d
        s += a * c - bd
        t += a * d + b * c - bd
    return s, t


def _mul(rows, cols):
    """The flat rows of a b, a given by its flat rows and b by its flat
    columns: entry (i, j) is row i dotted with column j."""
    return [tuple([x for col in cols for x in _dot(e, col)]) for e in map(sparse, rows)]


def _columns(rows):
    """The flat columns of the matrix with these flat rows."""
    t = list(zip(*rows))  # the a's and the b's of each column
    return [tuple(chain.from_iterable(zip(t[j], t[j + 1]))) for j in range(0, len(t), 2)]


def _times(flat, s, n=1):
    """The flat ints of x s / n, s an int pair and every division by the int
    n exact, else ValueError."""
    c, d = s
    it = iter(flat)
    return _exact([x for a, b in zip(it, it) for x in (a * c - b * d, a * d + b * c - b * d)], n)


def _exact(flat, n):
    """The ints over the int n, each division exact, else ValueError."""
    if n == 1:
        return flat
    if any(x % n for x in flat):
        raise ValueError(f"a coordinate is not divisible by {n}")
    return [x // n for x in flat]


def _conj(flat):
    """The conjugates: conj(a + b w) = (a - b) - b w."""
    it = iter(flat)
    return [x for a, b in zip(it, it) for x in (a - b, -b)]


def flat_norm(flat) -> int:
    """sum N(x_i) over the coordinates of a flat vector, N(a + b w) = a^2 - ab + b^2."""
    s = 0
    it = iter(flat)
    for a, b in zip(it, it):
        s += a * (a - b) + b * b
    return s


def _split(v):
    """A vector as flat Z[w] halves: (to_flat(v),) for Z[w] entries, and
    (u, u') with v = u + z u' for Z[zeta_12] entries (z^2 = 1 + w), as
    c0 + c1 z + c2 z^2 + c3 z^3 = (c0 + c2) + c2 w + z ((c1 + c3) + c3 w).
    The halves go through the same Z[w] products."""
    if v and isinstance(v[0], Cyclo12):
        cs = [x.c for x in v]
        return ([x for c0, _, c2, _ in cs for x in (c0 + c2, c2)],
                [x for _, c1, _, c3 in cs for x in (c1 + c3, c3)])
    return (to_flat(v),)


def _join(halves):
    """The vector that _split gave as halves: a + b w + z (c + d w) joins
    back as (a - b) + (c - d) z + b z^2 + d z^3."""
    if len(halves) == 1:
        return from_flat(halves[0])
    u, v = halves
    return tuple(Cyclo12(a - b, c - d, b, d)
                 for a, b, c, d in zip(u[::2], u[1::2], v[::2], v[1::2]))


def mat_identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_scalar(n, s):
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
    a = [to_flat(row) for row in rows]
    n = len(a)
    width = len(a[0]) // 2 if width is None else width
    pivots = []
    prev = (1, 0)
    sign = 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][2 * c] or a[i][2 * c + 1]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[2 * c], prow[2 * c + 1]
        # dividing by q is multiplying by conj(q), then dividing by norm(q)
        conj_q, norm_q = _conj(prev), flat_norm(prev)
        pa, pb = _times(p, conj_q)
        for i in range(n):
            row = a[i]
            f = row[2 * c], row[2 * c + 1]
            if i == r or (f == (0, 0) and p == prev):
                continue
            fa, fb = _times(f, conj_q)
            it, jt = iter(row), iter(prow)
            a[i] = _exact([z for x, y, u, v in zip(it, it, jt, jt)
                           for z in (pa * x - pb * y - fa * u + fb * v,
                                     pa * y + pb * x - pb * y - fa * v - fb * u + fb * v)],
                          norm_q)
        prev = p
        pivots.append(c)
    return [list(from_flat(row)) for row in a], pivots, Eis(*prev), sign


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
    # mat / theta^k sends every source to its target: the product of the
    # sources as rows with mat^T, against the targets times theta^k
    scale = THETA ** aut.k
    images = (vec_scale(scale, t) for t in targets)
    if _mul(map(to_flat, sources), aut.rows) != list(map(to_flat, images)):
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


def _v_theta(a, b, cap):
    """min(cap, v) for the theta-valuation v of a + b w != 0: theta divides
    it exactly when 3 divides a + b (w = 1 mod theta), and theta^2 = -3
    exactly when 3 divides a and b."""
    v = 0
    while v < cap and (a + b) % 3 == 0:
        if a % 3:
            return v + 1
        a, b, v = a // 3, b // 3, v + 2
    return min(v, cap)


def _untheta(flat, j):
    """The flat ints over theta^j, each divisible: theta^-j = (-theta)^j / 3^j."""
    s = (-THETA) ** j
    return _times(flat, (s.a, s.b), 3 ** j)


class AutMatrix:
    """A lattice automorphism as a coordinate matrix with theta denominator.

    value = mat / theta^k in lowest terms: after reduction k = 0 or some
    entry of mat is not divisible by theta.  k has no fixed bound (the
    change of basis Leech+H -> 3E8+H has k = 3); products are reduced again.
    The matrix is held as its flat int ``rows``; ``mat`` is its Eis view.
    """

    __slots__ = ("rows", "k", "n")

    def __init__(self, mat, k=0):
        self._reduce(map(to_flat, mat), k)

    @classmethod
    def _of(cls, rows, k) -> "AutMatrix":
        """The AutMatrix rows / theta^k of flat int rows."""
        (self := cls.__new__(cls))._reduce(rows, k)
        return self

    def _reduce(self, rows, k):
        # strip theta^j at once, j the least theta-valuation of an entry
        rows = tuple(map(tuple, rows))
        j = k
        it = chain.from_iterable(rows)
        for a, b in zip(it, it):
            if not j:
                break
            if a or b:
                j = _v_theta(a, b, j)
        if j:
            rows = tuple(tuple(_untheta(row, j)) for row in rows)
        self.rows, self.k, self.n = rows, k - j, len(rows)

    @property
    def mat(self):
        return tuple(map(from_flat, self.rows))

    @classmethod
    def identity(cls, n=14) -> "AutMatrix":
        return cls(mat_identity(n))

    @classmethod
    def over(cls, mat, d) -> "AutMatrix":
        """The AutMatrix equal to the Z[w] matrix mat / d.

        d splits once into theta^e (e its theta-valuation) times a part
        prime to theta; every entry is divided exactly by that part, which
        leaves mat' / theta^e.  A failed division raises ValueError: mat / d
        is then no lattice map; a zero d raises ZeroDivisionError.
        """
        if not d:
            raise ZeroDivisionError("AutMatrix.over a zero denominator")
        e = _v_theta(d.a, d.b, d.norm())  # e < norm d: the cap never binds
        d = _untheta((d.a, d.b), e)
        c, n = _conj(d), flat_norm(d)
        try:
            rows = [_times(to_flat(row), c, n) for row in mat]
        except ValueError:
            raise ValueError("matrix is not theta-integral; not a lattice map") from None
        return cls._of(rows, e)

    def __eq__(self, other):
        if not isinstance(other, AutMatrix):
            return NotImplemented
        return self.k == other.k and self.rows == other.rows

    def __hash__(self):
        return hash((self.k, self.rows))

    def __matmul__(self, other: "AutMatrix") -> "AutMatrix":
        return AutMatrix._of(_mul(self.rows, _columns(other.rows)), self.k + other.k)

    def __pow__(self, n: int) -> "AutMatrix":
        return power(self, n, AutMatrix.identity(self.n), matmul)

    def apply(self, v):
        """Image of a coordinate vector with Z[w] or Z[zeta_12] entries."""
        if len(v) != self.n:
            raise ValueError(f"AutMatrix.apply expects {self.n} coordinates")
        halves = _mul(_split(v), self.rows)
        return _join([_untheta(h, self.k) for h in halves] if self.k else halves)

    def is_identity(self) -> bool:
        return self == AutMatrix.identity(self.n)

    def scalar(self):
        """The scalar s when self == s * I, else None."""
        s = from_flat(self.rows[0][:2])[0]
        return s if self == AutMatrix(mat_scalar(self.n, s)) else None

    def inverse(self) -> "AutMatrix":
        # value = mat / theta^k, so the inverse is theta^k adj / d
        adj, d = mat_inverse(self.mat)
        return AutMatrix.over([vec_scale(THETA ** self.k, row) for row in adj], d)

    def preserves_form(self, form: LorentzForm, target: LorentzForm | None = None) -> bool:
        """Exact check that self maps ``form`` onto ``target`` (by default
        ``form`` again): <M u, M v>_target == <u, v>_form for all u, v, as
        conj(mat)^T G_target mat den_form == 3^k G_form den_target on the
        integral grams, M = mat / theta^k."""
        target = target or form
        cols = _columns(self.rows)
        # the conjugate columns of mat against the columns of G_target mat
        lhs = _mul(map(_conj, cols), _columns(_mul(map(to_flat, target.gram), cols)))
        scale = 3 ** self.k * target.den  # conj(theta^k) theta^k = 3^k
        return all(x * form.den == y * scale
                   for lrow, grow in zip(lhs, map(to_flat, form.gram)) for x, y in zip(lrow, grow))


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
    rows = [to_flat(row) for row in m]
    p = [ONE]
    for r, row in enumerate(rows):
        t = [row[2 * r:2 * r + 2]]
        col = [x for y in rows[:r] for x in y[2 * r:2 * r + 2]]
        # col has r places: row and rows[:r] act as R and M
        for _ in range(r):
            e = sparse(col)
            t.append(_dot(e, row))
            col = [x for y in rows[:r] for x in _dot(e, y)]
        p = poly_mul([ONE, *(Eis(-a, -b) for a, b in t)], p, ZERO)[: r + 2]
    return p[::-1]
