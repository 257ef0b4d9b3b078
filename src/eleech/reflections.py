"""Complex reflections and canonical unit representatives of roots.

A root is a primitive lattice vector of norm -3; the w-reflection
    phi_r^mu(v) = v - r (1 - mu) <r, v> / |r|^2
fixes the orthogonal complement of r and multiplies r by mu.  Roots that
differ by a unit give the same reflections, so root sets are kept in a
canonical unit representative: the least coordinate-key sequence over the
six unit multiples (keys order Z[w] by norm, then a, then b).
"""

from __future__ import annotations

from fractions import Fraction

from .rings import Eis, UNITS
from .linalg import AutMatrix, mat_vec, vec_add, vec_scale

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


def reflection_matrix(r, mu, form) -> AutMatrix:
    """The coordinate matrix of phi_r^mu as an exact AutMatrix."""
    n = len(r)
    # den <r, e_j> = (conj(r)^T gram)_j = conj((gram r)_j), gram Hermitian
    frow = tuple(x.conj() for x in mat_vec(form.gram, r))
    # phi(v) = v - r (1-mu) <r,v> / (-3) = v + r (1-mu) <r,v> / 3
    scale = (Eis(1, 0) - mu) * Eis(Fraction(1, 3 * form.den), Fraction(0))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = r[i] * scale * frow[j]
            if i == j:
                x = x + Eis(1, 0)
            row.append(x)
        rows.append(tuple(row))
    return AutMatrix.from_rational(rows)
