"""The 26-root diagram of L = 3E8+H, its projective-plane structure,
diagram automorphisms, the fixed lattice F, the Weyl vector and heights.

The 26 roots live in the coordinate system 3E8+H: three E8 blocks of four
coordinates followed by a hyperbolic pair.  Node adjacency is computed
from exact inner products and realizes the incidence graph of P2(F3):
every incident (point, line) pair of roots pairs to -w*theta exactly.

The scaled Weyl representative rho_hat = Sigma_P + xi * Sigma_L (26 times
the Weyl vector) has Z[zeta_12] coordinates; every height statement is
made on the exact square |<rho_hat, r>|^2 in Z[sqrt 3], against its value
NODE_HEIGHT_SQ on the node roots.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import product

from .rings import (
    Cyclo12,
    Eis,
    SqrtThree,
    THETA,
    OMEGA,
    OMEGA2,
    ONE,
    ZERO,
    UNITS,
    XI,
    cyclo12_abs_sq,
    power,
)
from .lattices import HermitianLattice
from .linalg import (
    AutMatrix, FORM_E8H, _times, aut_from_images, gram_of, row_dot, spanning_basis, to_flat,
    vec_add, vec_scale,
)
from .reflections import NodeKernel, mirror
from .textio import InputError, data_text

E = Eis
_O = ZERO
_1 = ONE
W = OMEGA
W2 = OMEGA2
MTW2 = E(-1, 1)   # -theta * w^2
TW2 = E(1, -1)    # theta * w^2

NODE_NAMES = (
    "a",
    "c1", "c2", "c3",
    "e1", "e2", "e3",
    "a1", "a2", "a3",
    "g1", "g2", "g3",
    "f",
    "f1", "f2", "f3",
    "b1", "b2", "b3",
    "z1", "z2", "z3",
    "d1", "d2", "d3",
)

#: |<rho_hat, r>|^2 = (4 sqrt3 - 3)^2 on every node root r: height 1
NODE_HEIGHT_SQ = SqrtThree(57, -24)

POINT_NAMES = frozenset(
    ["a", "c1", "c2", "c3", "e1", "e2", "e3", "a1", "a2", "a3", "g1", "g2", "g3"]
)


def _blocks(i, block_i=None, block_jk=None):
    """Place 4-entry blocks at position i (1-based) and at the other two."""
    out = [[_O] * 4, [_O] * 4, [_O] * 4]
    if block_i is not None:
        out[i - 1] = list(block_i)
    if block_jk is not None:
        j = i % 3
        k = (i + 1) % 3
        out[j] = list(block_jk)
        out[k] = list(block_jk)
    return out


def _mk(blocks, alpha=_O, beta=_O):
    v = []
    for b in blocks:
        v.extend(b)
    v.append(alpha)
    v.append(beta)
    return tuple(v)


def _build_roots():
    roots = {}
    roots["a"] = _mk(_blocks(1), alpha=_1, beta=W2)
    for i in (1, 2, 3):
        roots[f"c{i}"] = _mk(_blocks(i, block_i=(MTW2, _O, _O, _O)))
        roots[f"e{i}"] = _mk(_blocks(i, block_i=(_O, MTW2, _O, _O)))
        roots[f"a{i}"] = _mk(
            _blocks(i, block_jk=(_O, _O, _O, MTW2)), alpha=W, beta=W2
        )
        roots[f"g{i}"] = _mk(
            _blocks(i, block_i=(_O, _O, _O, MTW2), block_jk=(_O, _O, TW2, MTW2)),
            alpha=E(0, 2),
            beta=E(-2, -2),
        )
        roots[f"f{i}"] = _mk(_blocks(i, block_i=(_O, _1, _1, _1)))
        roots[f"b{i}"] = _mk(
            _blocks(i, block_i=(_1, _O, _1, E(-1, 0))), alpha=E(-1, 0)
        )
        roots[f"z{i}"] = _mk(
            _blocks(i, block_i=(_O, _1, _1, E(-2, 0)), block_jk=(_1, _O, _1, E(-1, 0))),
            alpha=MTW2,
            beta=E(-1, -2),
        )
        roots[f"d{i}"] = _mk(_blocks(i, block_i=(_1, _1, E(-1, 0), _O)))
    roots["f"] = _mk(
        [(_O, _1, _1, E(-2, 0))] * 3, alpha=E(-2, 1), beta=E(-1, -2)
    )
    return roots


class DiagramNode:
    """A vertex of D: a named root plus its P2(F3) point or line."""

    __slots__ = ("index", "name", "kind", "root", "triple")

    def __init__(self, index, name, kind, root, triple):
        self.index = index
        self.name = name
        self.kind = kind  # "point" | "line"
        self.root = root
        self.triple = triple

    def __repr__(self):
        return f"DiagramNode({self.index}, {self.name!r}, {self.kind!r})"


def _dot3(u, v) -> int:
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % 3


def _canon_triple(t):
    t = tuple(x % 3 for x in t)
    nz = next((x for x in t if x), 0)
    if nz == 0:
        raise ValueError("zero triple")
    if nz == 2:
        t = tuple((2 * x) % 3 for x in t)
    return t


class Diagram:
    """The 26 nodes, their adjacency, constants and automorphism builders."""

    def __init__(self):
        raw = _build_roots()
        self.nodes = []
        labeling = _load_labeling()
        for idx, name in enumerate(NODE_NAMES):
            kind = "point" if name in POINT_NAMES else "line"
            self.nodes.append(
                DiagramNode(idx, name, kind, raw[name], labeling[name])
            )
        self.roots = tuple(n.root for n in self.nodes)
        self.by_name = {n.name: n for n in self.nodes}
        self._by_triple = {(n.kind, n.triple): n.index for n in self.nodes}
        # the node roots are pairwise not unit multiples: 156 distinct keys
        self._by_root = {
            tuple(_times(flat, (u.a, u.b))): (n.index, u)
            for n, flat in zip(self.nodes, map(to_flat, self.roots)) for u in UNITS
        }
        self.form = FORM_E8H
        self.points = [n for n in self.nodes if n.kind == "point"]
        self.lines = [n for n in self.nodes if n.kind == "line"]
        self._line_points = {
            l.index: frozenset(p.index for p in self.points if _dot3(l.triple, p.triple) == 0)
            for l in self.lines
        }
        self._line_through = {pts: i for i, pts in self._line_points.items()}

    # -- derived data, each built on first use and then kept -------------------

    @cached_property
    def gram(self):
        return gram_of(self.roots, self.form)

    @cached_property
    def adjacency(self):
        """26x26 boolean matrix: |<r_i, r_j>|^2 = 3."""
        g = self.gram
        return tuple(
            tuple(i != j and g[i][j].norm() == 3 for j in range(26))
            for i in range(26)
        )

    def neighbors(self, idx):
        return [j for j in range(26) if self.adjacency[idx][j]]

    def relation_sum(self, node):
        """c r + the sum of the roots adjacent to the node's root r, with
        c = w^2 theta = sqrt3 xi on a line and c = -w theta = sqrt3 conj(xi)
        on a point: w_P on every line and w_L on every point."""
        c = W2 * THETA if node.kind == "line" else -W * THETA
        return reduce(vec_add, (self.roots[j] for j in self.neighbors(node.index)),
                      vec_scale(c, node.root))

    @cached_property
    def w_p(self):
        return self.relation_sum(self.lines[0])

    @cached_property
    def w_l(self):
        return self.relation_sum(self.points[0])

    @cached_property
    def sigma_p(self):
        return reduce(vec_add, (p.root for p in self.points))

    @cached_property
    def sigma_l(self):
        return reduce(vec_add, (l.root for l in self.lines))

    @cached_property
    def rho_hat(self):
        return tuple(p + XI * l for p, l in zip(self.sigma_p, self.sigma_l))

    @cached_property
    def rho_hat_minus(self):
        return tuple(p - XI * l for p, l in zip(self.sigma_p, self.sigma_l))

    @cached_property
    def rho_row(self):
        """The form row of rho_hat: four int rows, one per Z[zeta_12] coordinate."""
        return self.form.row(self.rho_hat)

    def fixed_lattice(self):
        return HermitianLattice((self.w_p, self.w_l), self.form.ip)

    def node_of(self, flat):
        """(index, unit) with flat == to_flat(unit * root of node index), or
        None when the flat vector is no unit multiple of a node root."""
        return self._by_root.get(tuple(flat))

    @cached_property
    def node_mirrors(self):
        """The ``mirror`` of each node root: its form row and its nonzero
        coordinates, or None when its norm is not -3."""
        return tuple(mirror(self.form, to_flat(r)) for r in self.roots)

    @cached_property
    def node_kernel(self) -> NodeKernel:
        """The integer kernel for chains of node reflections."""
        return NodeKernel(self.gram, self.node_mirrors, self.rho_row)

    # -- node-root basis ---------------------------------------------------

    @cached_property
    def root_basis(self):
        """(indices, (adj, d)): 14 nodes whose roots form a Q(w)-basis, and
        the ``mat_inverse`` of the matrix with those roots as columns."""
        return spanning_basis([to_flat(r) for r in self.roots])

    # -- diagram automorphisms ----------------------------------------------

    def g_permutation(self, g):
        """The node permutation of g in GL3(F3) mod scalars, as a tuple
        index -> image index: points map by x -> g x, and each line to the
        line through the images of its points.  A singular g sends some
        point to the zero triple and raises ValueError."""
        perm = {p.index: self._by_triple["point", _canon_triple(_matvec3(g, p.triple))]
                for p in self.points}
        for l in self.lines:
            images = frozenset(perm[i] for i in self._line_points[l.index])
            perm[l.index] = self._line_through[images]
        return tuple(perm[i] for i in range(len(self.nodes)))

    def g_action(self, g) -> AutMatrix:
        """The lattice automorphism induced by g in GL3(F3) mod scalars:
        the node permutation extends linearly to L and preserves the form."""
        images = [self.roots[j] for j in self.g_permutation(g)]
        return aut_from_images(self.roots, images, self.root_basis)

    def sigma_permutation(self):
        """The node permutation of sigma: each node to the node of the other
        kind with the same triple."""
        other = {"point": "line", "line": "point"}
        return tuple(self._by_triple[other[n.kind], n.triple] for n in self.nodes)

    def sigma(self) -> AutMatrix:
        """The order-12 lift of the polarity: x -> -w l, l -> x (same triple)."""
        images = [vec_scale(-W, self.roots[j]) if n.kind == "point" else self.roots[j]
                  for n, j in zip(self.nodes, self.sigma_permutation())]
        return aut_from_images(self.roots, images, self.root_basis)

    def verify_linear_relations(self) -> bool:
        """sqrt3 rho_i + Sigma_i is one fixed vector over the lines (w_P)
        and one fixed vector over the points (xi w_L), exactly: on a point
        the relation is taken times the unit conj(xi), which keeps it in
        Z[w], so every node's ``relation_sum`` is w_P or w_L.

        The twelve independent differences of these relations generate all
        linear relations among the 26 roots.
        """
        return all(self.relation_sum(n) == (self.w_p if n.kind == "line" else self.w_l)
                   for n in self.nodes)

    def rho_vec(self, idx):
        """rho_i as a Z[zeta_12] vector: points as-is, lines times xi."""
        n = self.nodes[idx]
        return vec_scale(XI if n.kind == "line" else Cyclo12(1), n.root)

    def height_sq(self, r) -> SqrtThree:
        """|<rho_hat, r>|^2 in Z[sqrt 3]: ht(r)^2 = height_sq(r) / (4 sqrt3 - 3)^2,
        so ht(r) <= 1 exactly when height_sq(r) <= NODE_HEIGHT_SQ."""
        return SqrtThree(*height_pair(self.rho_row, to_flat(r)))


def height_pair(rho_row, flat):
    """|<rho_hat, y>|^2 = p + q sqrt 3 as the int pair (p, q), for y given by
    its flat ints and rho_row = ``Diagram.rho_row``.  The form of
    3E8+H has den 1, so each row dot product is one coordinate of
    <rho_hat, y>."""
    return cyclo12_abs_sq(row_dot(rho_row, flat))


# ---------------------------------------------------------------------------
# numeric local-maximum probe (floating point diagnostic, not acceptance)


def _to_complex_vec(v):
    w = complex(-0.5, 3 ** 0.5 / 2)
    out = []
    for x in v:
        if isinstance(x, Cyclo12):
            c0, c1, c2, c3 = x.c
            z = complex(3 ** 0.5 / 2, 0.5)  # zeta_12
            out.append(c0 + c1 * z + c2 * z * z + c3 * z ** 3)
        else:
            out.append(x.a + x.b * w)
    return out


def _cip(u, v):
    s = 0j
    for i in range(12):
        s += u[i].conjugate() * v[i]
    th = complex(0.0, 3 ** 0.5)
    h = u[12].conjugate() * (-th) * v[13] + u[13].conjugate() * th * v[12]
    return h - s


def local_max_probe(diagram, samples=1000, eps=1e-4, tol=1e-9, seed=0):
    """Numeric check that the Weyl point locally maximizes the distance
    to the 26 mirrors: generic perturbations do not raise the minimum
    sinh^2-distance, and along the special direction i*rho_minus every
    single mirror distance grows.  Returns a report dict (diagnostic only)."""
    import random as _random

    rng = _random.Random(seed)
    rho = _to_complex_vec(diagram.rho_hat)
    rho_m = _to_complex_vec(diagram.rho_hat_minus)
    mirrors = [_to_complex_vec(r) for r in diagram.roots]

    def dists(x):
        nx = _cip(x, x).real
        out = []
        for r in mirrors:
            ip = _cip(x, r)
            out.append((abs(ip) ** 2) / (nx * 3.0))  # -c^2 = sinh^2 distance
        return out

    base = dists(rho)
    base_min = min(base)
    increases = 0
    for _ in range(samples):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(14)]
        x = [r + eps * vv for r, vv in zip(rho, v)]
        if min(dists(x)) > base_min + tol:
            increases += 1
    # i * rho_minus lies in the 13-dimensional space where every first-order
    # change vanishes; the exact second-order computation (see
    # weyl_second_order_sign) shows every mirror distance grows there.
    x = [r + eps * complex(0, 1) * m for r, m in zip(rho, rho_m)]
    special = dists(x)
    special_all_drop = all(s < b for s, b in zip(special, base))
    special_all_increase = all(s > b for s, b in zip(special, base))
    zero = dists([r + 0.0 for r in rho])
    return {
        "samples": samples,
        "eps": eps,
        "tol": tol,
        "increases": increases,
        "special_all_drop": special_all_drop,
        "special_all_increase": special_all_increase,
        "zero_shift_unchanged": max(abs(a - b) for a, b in zip(zero, base)) == 0.0,
        "base_min": base_min,
    }


def weyl_second_order_sign(diagram) -> int:
    """Exact sign of d/d(eps^2) of sinh^2 d(rho + i eps rho_minus, mirror)
    at eps = 0 (the same for all 26 mirrors).

    With A = <rho_hat, rho_j>, B = <rho_hat_minus, rho_j> (both real up to
    the sign bookkeeping) and N+ > 0 > N- the Weyl norms, the ratio
    (A^2 + e B^2)/(3(N+ + e N-)) has derivative (B^2 N+ - A^2 N-)/(3 N+^2)
    at e = 0; both terms are positive, so every mirror distance increases
    along this direction.
    """
    a = SqrtThree(-3, 4)
    b = SqrtThree(-3, -4)
    n_plus = SqrtThree(-78, 104)
    n_minus = SqrtThree(-78, -104)
    # orthogonality of the two Weyl representatives makes the cross terms
    # vanish; check it rather than assume it
    if diagram.form.ip12(diagram.rho_hat, diagram.rho_hat_minus):
        raise ValueError("the two Weyl representatives are not orthogonal")
    return (b * b * n_plus - a * a * n_minus).sign()


# ---------------------------------------------------------------------------
# plane labeling: pinned assignment node name -> triple


def _load_labeling():
    """Node name -> canonical F3 triple.  Raises InputError unless the file
    names each of the 26 nodes once, each with a nonzero triple, and no two
    points and no two lines share a triple."""
    out = {}
    for line in data_text("plane_labeling.txt").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        name, *triple = fields
        try:
            if name not in NODE_NAMES or name in out or len(triple) != 3:
                raise ValueError
            out[name] = _canon_triple(int(x) for x in triple)
        except ValueError:
            raise InputError(f"plane_labeling.txt: bad line {line.strip()!r}") from None
    if len(out) != len(NODE_NAMES):
        raise InputError(f"plane_labeling.txt: no triple for {set(NODE_NAMES) - set(out)}")
    if len({(name in POINT_NAMES, t) for name, t in out.items()}) != len(out):
        raise InputError("plane_labeling.txt: two points or two lines share a triple")
    return out


# ---------------------------------------------------------------------------
# F3 matrices acting on triples, and PGL3(F3) as permutations of the plane


def _matvec3(g, x):
    return tuple(sum(g[i][j] * x[j] for j in range(3)) % 3 for i in range(3))


#: the 13 points of P2(F3) as canonical triples
PLANE = tuple(t for t in product((0, 1, 2), repeat=3) if any(t) and _canon_triple(t) == t)

#: the (x, y) pair of the PGL3(F3) presentation, as matrices over F3
PRESENTATION_PAIR = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 1, 0), (1, 1, 1), (0, 1, 2)),
)


def plane_permutation(g):
    """The permutation x -> g x of the 13 points, as a tuple of indices
    into PLANE.  PGL3(F3) acts faithfully on the points."""
    index = {t: i for i, t in enumerate(PLANE)}
    return tuple(index[_canon_triple(_matvec3(g, t))] for t in PLANE)


def orbit(start, perms):
    """Every image of the index tuple start under products of perms: the
    images i -> perm[i] of its entries, closed by breadth-first search."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for perm in perms:
                img = tuple(perm[i] for i in t)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def long_relator(xy, xyi, mul):
    """((xy)^4 x y^-1)^2 (xy)^2 (x y^-1)^2 x y (x y^-1)^2 (xy)^2 x y^-1,
    from xy, x y^-1 and the product mul of two group elements."""
    head = reduce(mul, (xy, xy, xy, xy, xyi))
    return reduce(mul, (head, head, xy, xy, xyi, xyi, xy, xyi, xyi, xy, xy, xyi))


@cache
def presentation_generators():
    """PRESENTATION_PAIR, checked on the plane: x, y and xy are not 1,
    x^2 = y^3 = (xy)^13 = 1, the long relator holds and x, y generate
    all 5616 elements.  Raises RuntimeError naming the failed checks."""
    x, y = PRESENTATION_PAIR
    px, py = plane_permutation(x), plane_permutation(y)
    pyi = tuple(py.index(i) for i in range(len(py)))
    one = tuple(range(len(PLANE)))

    def mul(a, b):  # the permutation of the matrix product a b
        return tuple(a[i] for i in b)

    pxy, pxyi = mul(px, py), mul(px, pyi)
    failed = [name for name, ok in (
        ("x, y, xy != 1", one not in (px, py, pxy)),
        ("x^2 = y^3 = (xy)^13 = 1",
         power(px, 2, one, mul) == power(py, 3, one, mul) == power(pxy, 13, one, mul) == one),
        ("long relator", long_relator(pxy, pxyi, mul) == one),
        ("order 5616", len(orbit(one, (px, py))) == 5616),
    ) if not ok]
    if failed:
        raise RuntimeError(f"the presentation pair fails: {', '.join(failed)}")
    return x, y
