"""Relations in Aut(L): spider, deflation, Coxeter orders, hand flips.

Group words are products of w-reflections in diagram roots, leftmost
letter acting last: the matrix of a word is built by applying its letters
right to left to the basis columns (``reflections.word_matrix``).

``matrix_order`` decides finite vs infinite exactly: eigenvalues must be
roots of unity (every irreducible factor of the integer polynomial
p conj(p), p the characteristic polynomial over Z[w], cyclotomic) and the
matrix semisimple (checked by powering to the lcm of the cyclotomic
orders, which is then the order).
"""

from __future__ import annotations

import math
from functools import cache

from .rings import Eis, OMEGA, OMEGA2, THETA, ZERO, UNITS
from .linalg import FORM_LEECH_H, AutMatrix, aut_from_images, charpoly, poly_mul
from .reflections import word_matrix
from .diagram import orbit, presentation_generators
from .isomorphism import m666_from_e1prime, M666_ORDER
from .reduction import RHO_NULL

INFINITE = "infinite"


class GroupWord:
    """An ordered product of w-reflections in named diagram nodes."""

    def __init__(self, diagram, letters):
        self.diagram = diagram
        self.letters = tuple(letters)

    def matrix(self) -> AutMatrix:
        return word_matrix([(self.diagram.by_name[name].root, OMEGA) for name in self.letters],
                           self.diagram.form)


# ---------------------------------------------------------------------------
# exact order of an automorphism


@cache
def cyclotomic_poly(d: int):
    """Coefficients of Phi_d, ascending, exact integers."""
    # x^d - 1 = prod_{e | d} Phi_e
    num = [-1] + [0] * (d - 1) + [1]
    den = [1]
    for e in range(1, d):
        if d % e == 0:
            den = poly_mul(den, cyclotomic_poly(e))
    q, r = _poly_divmod(num, den)
    if any(r):
        raise ArithmeticError(f"Phi_{d} division left a remainder")
    return tuple(q)


def _poly_divmod(num, den):
    """(q, r) with num = q den + r, for a monic integer divisor den."""
    num = list(num)
    dl = len(den) - 1
    q = [0] * max(1, len(num) - dl)
    while len(num) - 1 >= dl and any(num):
        k = len(num) - 1 - dl
        c = num[-1]
        q[k] = c
        for i, y in enumerate(den):
            num[k + i] -= c * y
        while num and num[-1] == 0:
            num.pop()
    return q, num


def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d, by trial division."""
    out, rest, q = d, d, 2
    while q * q <= rest:
        if rest % q == 0:
            out -= out // q
            while rest % q == 0:
                rest //= q
        q += 1
    return out - out // rest if rest > 1 else out


def _charpoly(m: AutMatrix):
    """The integer polynomial p conj(p), p the characteristic polynomial
    of m over Q(w), or None when p is not integral (then p conj(p) is no
    product of cyclotomics)."""
    p = charpoly(m.mat)
    n = len(p) - 1
    # p_m(x) = theta^(-kn) p_mat(theta^k x): coefficient j is c_j / theta^(k(n-j))
    try:
        p = [c.exact_div(THETA ** (m.k * (n - j))) for j, c in enumerate(p)]
    except ValueError:
        return None
    # the coefficients of p conj(p) are real, so b = 0
    return [c.a for c in poly_mul(p, [c.conj() for c in p], ZERO)]


def matrix_order(m: AutMatrix):
    """The exact order of m, or INFINITE.

    Cyclotomic analysis of the characteristic polynomial: a residual
    non-cyclotomic factor certifies infinite order.  Each factor Phi_d
    gives an eigenvalue of exact order d, so every d divides a finite
    order; hence with N the lcm of the d the order is N when m^N = I, and
    m has infinite order (it is not semisimple) otherwise.  Phi_d is tried
    only when its degree phi(d) fits the residual's degree, and the scan
    stops at d > 2 deg^2, past which phi(d) >= sqrt(d/2) exceeds it.
    """
    p = _charpoly(m)
    if p is None:
        return INFINITE
    orders = []
    d = 1
    while len(p) > 1 and d <= 2 * (len(p) - 1) ** 2:
        if _totient(d) < len(p):
            q, r = _poly_divmod(p, cyclotomic_poly(d))
            if not any(r):
                orders.append(d)
                p = q
                continue
        d += 1
    if len(p) > 1:
        return INFINITE
    big_n = math.lcm(*orders)
    return big_n if (m ** big_n).is_identity() else INFINITE


# ---------------------------------------------------------------------------
# spider and deflation


SPIDER = ("a", "b1", "c1", "a", "b2", "c2", "a", "b3", "c3")


def spider_check(diagram):
    """S^20 = 1 for S = a b1 c1 a b2 c2 a b3 c3; returns (ok, true_order)."""
    s = GroupWord(diagram, SPIDER).matrix()
    ok = (s ** 20).is_identity()
    true_order = matrix_order(s)
    return ok, true_order


TWELVE_GON = ("f1", "e1", "d1", "c1", "b1", "a", "b2", "c2", "d2", "e2", "f2", "a3")


def deflate_unit(diagram, gon_roots):
    """The unit u with phi_{y1} ... phi_{y10}(y11) == u * y12 for a
    labeled 12-gon of node roots (each up to a unit), or None when no unit
    works.

    Runs on node pairings: from the Gram column of y11, ten steps of the
    node kernel, then a comparison with u times the column of y12; equal
    pairings mean equal vectors.
    """
    kernel = diagram.node_kernel
    hits = [diagram.node_of(r) for r in gon_roots]
    if None in hits:
        raise ValueError("a 12-gon root is no unit multiple of a node root")
    q = kernel.column(*hits[10])
    for k, _ in reversed(hits[:10]):
        kernel.reflect(q, k, "w")
    k, unit = hits[11]
    for u in UNITS:
        if q == kernel.column(k, u * unit):
            return u
    return None


def twelve_gon_orbit(diagram):
    """All labeled 12-gons in the Q-orbit of the base one (node indices)."""
    x, y = presentation_generators()
    perms = [diagram.g_permutation(x), diagram.g_permutation(y), diagram.sigma_permutation()]
    return orbit(tuple(diagram.by_name[n].index for n in TWELVE_GON), perms)


def deflate_check(diagram, transports=True):
    """The deflation relation: the base 12-gon identity (with the exact
    unit w^2), A^11 = 1, and, with transports, deflate_transports.

    Returns a dict report: "base" and "A11", and with transports also
    "transports_ok" and "distinct_12gons".
    """
    base_roots = tuple(diagram.by_name[n].root for n in TWELVE_GON)
    ok_base = deflate_unit(diagram, base_roots) == OMEGA2

    a_word = GroupWord(
        diagram,
        ("a", "b2", "c2", "d2", "e2", "f2", "a3", "f1", "e1", "d1", "c1", "b1"),
    ).matrix()
    ok_a11 = (a_word ** 11).is_identity()

    report = {"base": ok_base, "A11": ok_a11}
    if transports:
        report["transports_ok"], report["distinct_12gons"] = deflate_transports(diagram)
    return report


def deflate_transports(diagram):
    """The identity transported around the full Q-orbit of labeled
    12-gons: (whether every labeling has a unit, w^2 whenever it starts
    at a line node, and the number of distinct 12-gons)."""
    seen = twelve_gon_orbit(diagram)
    ok = True
    for gon in sorted(seen):
        u = deflate_unit(diagram, tuple(diagram.nodes[i].root for i in gon))
        if u is None or (diagram.nodes[gon[0]].kind == "line" and u != OMEGA2):
            ok = False
            break
    return ok, len({frozenset(g) for g in seen})


def rad_m666_covers_d(diagram):
    """Constructive check that every diagram root lies in the radical of
    the 16-node subdiagram: chain deflation witnesses, each proving its
    completing node reachable by ten reflections in already-known roots.

    Returns the list of (new_node_name, via_gon) additions; raises if the
    chain cannot cover all 26 nodes.
    """
    known = {diagram.by_name[n].index for n in M666_NODES}
    gons = sorted(twelve_gon_orbit(diagram))
    additions = []
    progress = True
    while progress and len(known) < 26:
        progress = False
        for gon in gons:
            if gon[11] in known or not all(i in known for i in gon[:11]):
                continue
            roots = tuple(diagram.nodes[i].root for i in gon)
            if deflate_unit(diagram, roots) is None:
                raise RuntimeError("witness identity failed during chaining")
            known.add(gon[11])
            additions.append((diagram.nodes[gon[11]].name, gon))
            progress = True
    if len(known) < 26:
        raise RuntimeError("deflation witnesses do not cover the 26 nodes")
    return additions


# ---------------------------------------------------------------------------
# Coxeter elements of free Dynkin subdiagrams of the 16-node diagram


M666_NODES = (
    "a",
    "b1", "c1", "d1", "e1", "f1",
    "b2", "c2", "d2", "e2", "f2",
    "b3", "c3", "d3", "e3", "f3",
)

COXETER_TABLE = {
    "A1": 3, "A2": 6, "A3": 12, "A4": 30, "A5": INFINITE, "A6": 42,
    "A7": 24, "A8": 18, "A9": 30, "A10": 66, "A11": 12,
    "D4": INFINITE, "D5": 24, "D6": 15, "D7": 12, "D8": 21,
    "E6": 12, "E7": 9, "E8": 15,
}


def dynkin_edges(name):
    """Edge list of the Dynkin graph on vertices 0..n-1."""
    kind, n = name[0], int(name[1:])
    if kind == "A":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "D":
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((n - 3, n - 1))
        return n, edges
    if kind == "E":
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
        return n, edges
    raise ValueError(name)


def free_embeddings(diagram, name, limit=None):
    """Induced embeddings of the Dynkin graph into the 16-node diagram, in
    the order of the depth-first search: lexicographic in the positions of
    the images in M666_NODES, not in their node indices (A2 lists (17, 1),
    b1 then c1, before (1, 17))."""
    n, edges = dynkin_edges(name)
    nodes = [diagram.by_name[m] for m in M666_NODES]
    idxs = [m.index for m in nodes]
    adj = diagram.adjacency
    eset = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    out = []

    def bt(assign):
        if limit is not None and len(out) >= limit:
            return
        k = len(assign)
        if k == n:
            out.append(tuple(assign))
            return
        for cand in idxs:
            if cand in assign:
                continue
            ok = True
            for prev in range(k):
                want = (prev, k) in eset
                if adj[assign[prev]][cand] != want:
                    ok = False
                    break
            if ok:
                bt(assign + [cand])

    bt([])
    return out


def coxeter_table(diagram):
    """Realized Coxeter element orders for every free spherical Dynkin
    subdiagram type, on its first embedding, against the expected table.

    Returns a list of (name, expected, got, ok) tuples.
    """
    rows = []
    for name, expected in COXETER_TABLE.items():
        embs = free_embeddings(diagram, name, limit=1)
        if not embs:
            rows.append((name, expected, None, False))
            continue
        word = GroupWord(diagram, [diagram.nodes[idx].name for idx in embs[0]])
        got = matrix_order(word.matrix())
        rows.append((name, expected, got, got == expected))
    return rows


# ---------------------------------------------------------------------------
# the hand-exchange automorphisms phi_12, phi_23


def hand_swap(roots, i, j):
    """The automorphism of Leech+H exchanging hands i and j (digits "1",
    "2", "3") of the M666 configuration: each named root goes to the root
    whose name has i and j exchanged; a and the third hand stay fixed.

    roots: dict name -> root, keyed by M666_ORDER.
    """
    swap = str.maketrans(i + j, j + i)
    return aut_from_images(list(roots.values()), [roots[n.translate(swap)] for n in roots])


FIXED_CELL_VECTOR = (
    Eis(-2, 0), Eis(-1, -1), Eis(-1, -1), Eis(1, 0), Eis(0, 1), Eis(0, -2),
    Eis(1, 0), Eis(-1, -1), Eis(1, 0), Eis(1, 0), Eis(1, 0), Eis(0, 1),
    Eis(1, 0), Eis(1, 2),
)


def verify_phi_flips(e1p):
    """All the order-2 / S3 / fixed-vector checks for phi_12 and phi_23.

    Returns a dict report; every value must be True.
    """
    roots = dict(zip(M666_ORDER, m666_from_e1prime(e1p)))
    phi12 = hand_swap(roots, "1", "2")
    phi23 = hand_swap(roots, "2", "3")
    rep = {}
    rep["phi12_order2"] = (phi12 @ phi12).is_identity()
    rep["phi23_order2"] = (phi23 @ phi23).is_identity()
    rep["phi12_form"] = phi12.preserves_form(FORM_LEECH_H)
    rep["phi23_form"] = phi23.preserves_form(FORM_LEECH_H)
    rep["phi12_fixes_rho"] = phi12.apply(RHO_NULL) == RHO_NULL
    rep["phi23_fixes_rho"] = phi23.apply(RHO_NULL) == RHO_NULL
    rep["phi12_fixes_cell"] = phi12.apply(FIXED_CELL_VECTOR) == FIXED_CELL_VECTOR
    rep["phi23_fixes_cell"] = phi23.apply(FIXED_CELL_VECTOR) == FIXED_CELL_VECTOR
    prod = phi12 @ phi23
    rep["s3_order3"] = (prod ** 3).is_identity() and not prod.is_identity()
    els = {AutMatrix.identity(14), phi12, phi23, prod, phi23 @ phi12, phi12 @ phi23 @ phi12}
    rep["s3_six_elements"] = len(els) == 6
    rep["braid_flip_eq"] = (phi12 @ phi23 @ phi12) == (phi23 @ phi12 @ phi23)
    return rep
