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

from .rings import Eis, OMEGA, UNITS, cyclo12_abs_sq, sqrt3_sign
from .linalg import AutMatrix, from_flat, mat_identity, sparse, to_flat, vec_add, vec_scale

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


def word_matrix(letters, form) -> AutMatrix:
    """The AutMatrix of the product of the reflections phi_r^mu, one per
    letter (r, mu), leftmost acting last.  The letters act right to left on
    the columns d e_j, d = 3 den, whose pairings and shifts stay in Z[w]."""
    d = Eis(3 * form.den, 0)
    cols = [vec_scale(d, e) for e in mat_identity(14)]
    for r, mu in reversed(letters):
        cols = [reflect(r, mu, v, form) for v in cols]
    return AutMatrix.over(zip(*cols), d)


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
    """

    def __init__(self, form, roots, gram, rho_hat):
        self.form = form
        self.roots = tuple(roots)
        self.rho_hat = rho_hat
        # column k: the nonzero <r_j, r_k> as (2j, a, b)
        self.cols = tuple(sparse(to_flat(col)) for col in zip(*gram))
        # root k: its nonzero coordinates as (2i, a, b)
        self.coords = tuple(sparse(to_flat(r)) for r in self.roots)
        # <rho_hat, r_k> and w <rho_hat, r_k>: (a + b w) t = a t + b (w t)
        t0 = [form.ip12(rho_hat, r) for r in self.roots]
        self.rho_cols = tuple((t.c, (t * OMEGA).c) for t in t0)
        #: every unit multiple of a node root has one of these heights
        self.node_heights = frozenset(cyclo12_abs_sq(t.c) for t in t0)

    def column(self, k, unit):
        """The pairings of unit * r_k: unit times column k of the Gram matrix."""
        q = [0] * (2 * len(self.roots))
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
    A chain belongs to one descent."""

    __slots__ = ("kernel", "q", "rho", "height", "y")

    def __init__(self, kernel, y):
        self.kernel = kernel
        self.q = list(to_flat(kernel.form.ip(r, y) for r in kernel.roots))
        self.rho = kernel.form.ip12(kernel.rho_hat, y).c
        self.height = cyclo12_abs_sq(self.rho)
        self.y = list(to_flat(y))

    def vector(self):
        return from_flat(self.y)

    def reflect(self, k, eps_name):
        sa, sb = self.kernel.reflect(self.q, k, eps_name)
        _add_scaled(self.y, self.kernel.coords[k], sa, sb)
        self.rho = _rho_moved(self.rho, self.kernel.rho_cols[k], sa, sb)
        self.height = cyclo12_abs_sq(self.rho)

    def descend(self):
        """Reflect by the first (node, eps) in scan order that strictly
        lowers the height and return it; None when none does."""
        hp, hq = self.height
        q = self.q
        for k, col in enumerate(self.kernel.rho_cols):
            a, b = q[2 * k], q[2 * k + 1]
            if not (a or b):
                continue
            for eps_name in ("w", "wbar"):
                sa, sb = _shift(a, b, eps_name)
                p, r = cyclo12_abs_sq(_rho_moved(self.rho, col, sa, sb))
                if sqrt3_sign(p - hp, r - hq) < 0:
                    self.reflect(k, eps_name)
                    return k, eps_name
        return None


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
