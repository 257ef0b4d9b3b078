"""Complex reflections and canonical unit representatives of roots.

A root is a primitive lattice vector of norm -3; the w-reflection
    phi_r^mu(v) = v - r (1 - mu) <r, v> / |r|^2
fixes the orthogonal complement of r and multiplies r by mu.  Roots that
differ by a unit give the same reflections, so root sets are kept in a
canonical unit representative: the least coordinate-key sequence over the
six unit multiples (keys order Z[w] by norm, then a, then b).

Chains of reflections in the 26 diagram roots run on ``NodeKernel`` in
plain ints; ``reflect`` stays the independent 14-coordinate path.
``_shift`` and ``_add_scaled`` are the one flat step y += s r of the node
kernel, the certificate replay and the Conway step in ``reduction``.
"""

from __future__ import annotations

from .rings import Cyclo12, Eis, OMEGA, UNITS, cyclo12_abs_sq, sqrt3_sign
from .linalg import (
    AutMatrix, from_flat, mat_identity, row_dot, sparse, to_flat, vec_add, vec_scale,
)

MINUS3 = Eis(-3, 0)


def canonical_root(v):
    """The least unit multiple of v under the coordinate key order."""
    best = None
    for u in UNITS:
        cand = tuple(u * x for x in v)
        key = tuple(x.key() for x in cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def reflect(r, mu, v, form):
    """phi_r^mu(v) = v - r (1-mu) <r,v> / |r|^2 with |r|^2 = -3, exactly.

    mu must be a non-1 unit; lattice automorphy needs mu in {w, conj(w)}.
    """
    if form.ip(r, r) != MINUS3:
        raise ValueError("reflection requires a norm -3 root")
    q = form.ip(r, v)
    s = ((Eis(1, 0) - mu) * q).exact_div(Eis(3, 0))
    return vec_add(v, vec_scale(s, r))


def mirror(form, flat):
    """What a flat reflection step in the root r with these flat ints
    reads: its form row and its nonzero coordinates as (flat index, a, b);
    None when <r, r> is not -3."""
    row = form.flat_row(flat)
    if row_dot(row, flat) != [-3 * form.den, 0]:
        return None
    return row, sparse(flat)


def word_matrix(letters, form) -> AutMatrix:
    """The AutMatrix of the product of the reflections phi_r^mu, one per
    letter (r, mu), leftmost acting last.  The letters act right to left on
    the columns d e_j, d = 3 den, whose pairings and shifts stay in Z[w]."""
    d = Eis(3 * form.den, 0)
    cols = [vec_scale(d, e) for e in mat_identity(14)]
    for r, mu in reversed(letters):
        cols = [reflect(r, mu, v, form) for v in cols]
    return AutMatrix.over(map(to_flat, zip(*cols)), (d.a, d.b))


# ---------------------------------------------------------------------------
# chains of node reflections on node pairings


class NodeKernel:
    """Chains of w-reflections in the node roots r_j, run on pairings.

    The node roots span L (x) Q and the form is nondegenerate, so a vector
    y is fixed by its pairings q_j = <r_j, y>.  The reflection
    y -> y + s r_k with s = (1 - eps) q_k / 3 moves them by one Gram
    column, q_j += s <r_j, r_k>, and moves <rho_hat, y> by
    s <rho_hat, r_k>.  Pairings are flat int lists (a_0, b_0, a_1, ...)
    for a_j + b_j w, and |<rho_hat, y>|^2 = p + q sqrt 3 is the int pair
    (p, q).

    With rho = <rho_hat, y> and t_k = <rho_hat, r_k>, that move changes
    the height by
        sa F_k(rho) + sb G_k(rho) + N(s) |t_k|^2,   s = sa + sb w,
    where F_k(rho) = 2 Re(conj(rho) t_k) and G_k(rho) = 2 Re(conj(rho) w t_k)
    are Z-linear in rho's four coefficients with values in Z[sqrt 3].
    """

    def __init__(self, gram, mirrors, rho_row):
        """From the Gram matrix of the node roots, their ``mirror``s in the
        form of 3E8+H (den 1) and the form row of rho_hat; a ValueError
        when a node root has no mirror."""
        if None in mirrors:
            raise ValueError("a node root does not have norm -3")
        # column k: the nonzero <r_j, r_k> as (2j, a, b)
        self.cols = tuple(sparse(to_flat(col)) for col in zip(*gram))
        # root k: its form row, and its nonzero coordinates as (2i, a, b)
        self.rows = tuple(row for row, _ in mirrors)
        self.coords = tuple(coords for _, coords in mirrors)
        self.rho_row = rho_row
        # <rho_hat, r_k> off rho_hat's row, and w <rho_hat, r_k>:
        # (a + b w) t = a t + b (w t)
        t0 = [Cyclo12(*(sum(r[i] * a + r[i + 1] * b for i, a, b in coords) for r in rho_row))
              for coords in self.coords]
        self.rho_cols = tuple((t.c, (t * OMEGA).c) for t in t0)
        #: every unit multiple of a node root has one of these heights
        self.node_heights = frozenset(cyclo12_abs_sq(t.c) for t in t0)
        # node k: the rows (p, q) of F_k, the rows of G_k, and |t_k|^2
        self.height_forms = tuple(
            (*_re_rows(t), *_re_rows(t * OMEGA), cyclo12_abs_sq(t.c)) for t in t0)

    def column(self, k, unit):
        """The pairings of unit * r_k: unit times column k of the Gram matrix."""
        q = [0] * (2 * len(self.cols))
        _add_scaled(q, self.cols[k], unit.a, unit.b)
        return q

    def reflect(self, q, k, eps_name):
        """Reflect the vector with pairings q (changed in place) in node k
        with eps = w or wbar; returns s as an int pair."""
        sa, sb = _shift(q[2 * k], q[2 * k + 1], eps_name)
        _add_scaled(q, self.cols[k], sa, sb)
        return sa, sb


class NodeChain:
    """One vector y followed along node reflections: its pairings, its
    Z[zeta_12] pairing with rho_hat, its height and y itself, all in ints.
    The pairings start off the kernel's form rows.  A chain belongs to one
    descent."""

    __slots__ = ("kernel", "q", "rho", "height", "y")

    def __init__(self, kernel, y):
        self.kernel = kernel
        self.y = list(to_flat(y))
        self.q = [x for row in kernel.rows for x in row_dot(row, self.y)]
        self.rho = tuple(row_dot(kernel.rho_row, self.y))
        self.height = cyclo12_abs_sq(self.rho)

    def vector(self):
        return from_flat(self.y)

    def reflect(self, k, eps_name):
        sa, sb = self.kernel.reflect(self.q, k, eps_name)
        _add_scaled(self.y, self.kernel.coords[k], sa, sb)
        self.rho = _rho_moved(self.rho, self.kernel.rho_cols[k], sa, sb)
        self.height = cyclo12_abs_sq(self.rho)

    def descend(self):
        """Reflect by the first (node, eps) in scan order that strictly
        lowers the height and return it; None when none does.

        The sign of each change of height is read off the kernel's
        ``height_forms``: four 4-term dot products per node, shared by
        both eps."""
        q = self.q
        r0, r1, r2, r3 = self.rho
        for k, forms in enumerate(self.kernel.height_forms):
            a, b = q[2 * k], q[2 * k + 1]
            if not (a or b):
                continue
            # F_k(rho) = fp + fq sqrt 3 and G_k(rho) = gp + gq sqrt 3
            (f0, f1, f2, f3), (f4, f5, f6, f7), (g0, g1, g2, g3), (g4, g5, g6, g7), \
                (tp, tq) = forms
            fp = f0 * r0 + f1 * r1 + f2 * r2 + f3 * r3
            fq = f4 * r0 + f5 * r1 + f6 * r2 + f7 * r3
            gp = g0 * r0 + g1 * r1 + g2 * r2 + g3 * r3
            gq = g4 * r0 + g5 * r1 + g6 * r2 + g7 * r3
            # s for eps = w and wbar, as in _shift
            c, rem = divmod(a + b, 3)
            if rem:
                raise ValueError("a pairing is not divisible by theta")
            for eps_name, sa, sb in (("w", c, b - c), ("wbar", a - c, c)):
                n = sa * sa - sa * sb + sb * sb
                if sqrt3_sign(sa * fp + sb * gp + n * tp, sa * fq + sb * gq + n * tq) < 0:
                    self.reflect(k, eps_name)
                    return k, eps_name
        return None


def _re_rows(t):
    """The int rows (p_0..p_3), (q_0..q_3) with 2 Re(conj(rho) t) =
    sum_j rho_j (p_j + q_j sqrt 3) for rho = sum_j rho_j z^j: coefficient
    j contributes conj(z^j) t + z^j conj(t), a real element of Z[zeta_12]."""
    parts = [(e.conj() * t + e * t.conj()).to_sqrt3() for e in _POWERS_Z]
    return tuple(x.p for x in parts), tuple(x.q for x in parts)


_POWERS_Z = (Cyclo12(1), Cyclo12(0, 1), Cyclo12(0, 0, 1), Cyclo12(0, 0, 0, 1))


def _shift(a, b, eps_name):
    """s = (1 - eps) (a + b w) / 3 as an int pair, with (1 - w) = (1, -1)
    and (1 - wbar) = (2, 1); a ValueError unless theta divides a + b w."""
    c, rem = divmod(a + b, 3)
    if rem:
        raise ValueError("a pairing is not divisible by theta")
    return (c, b - c) if eps_name == "w" else (a - c, c)


def _add_scaled(v, entries, sa, sb):
    """v += s * x in place, for the flat vector v and the ``sparse``
    entries (2i, a, b) of x: ``linalg._dot``'s product, written out in the
    node kernel's loop."""
    for i, a, b in entries:
        t = sb * b
        v[i] += sa * a - t
        v[i + 1] += sa * b + sb * a - t


def _rho_moved(rho, col, sa, sb):
    """rho + s <rho_hat, r_k> for col = (<rho_hat, r_k>, w <rho_hat, r_k>)."""
    (t0, t1, t2, t3), (u0, u1, u2, u3) = col
    r0, r1, r2, r3 = rho
    return (r0 + sa * t0 + sb * u0, r1 + sa * t1 + sb * u1,
            r2 + sa * t2 + sb * u2, r3 + sa * t3 + sb * u3)
