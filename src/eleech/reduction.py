"""Generators of the reflection group, height reduction and certificates.

* Heisenberg translations T_{lambda,z} act on Leech+H fixing the null
  vector rho = (0^12; 0, 1); applied to the two base roots they give the
  standard 50-root generating set, transported to 3E8+H coordinates.
* ``HeightReducer.reduce`` walks a root down to a unit multiple of one of
  the 26 diagram roots by reflections that strictly decrease the exact
  height, with at most one perturbation by an already-certified generator.
* ``conway_reduce`` is the other reduction: it lowers h(r) = |<r, rho>/theta|
  by reflections in the h = 1 root family, using an exact closest-vector
  search in the Leech lattice (the covering radius bound makes it work).
* ``min_height_scan`` enumerates every root of height <= 1 from the case
  split over <r, w_P> and the point-pairing tuple, confirming the 26
  diagram roots are exactly the minimal-height roots up to units; the
  placements of the pairing values on the 13 points are walked as prefix
  sums of flat ints.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, permutations
from operator import add, mul

from .rings import (
    Cyclo12,
    Eis,
    SQRT3_C,
    SqrtThree,
    THETA,
    OMEGA,
    OMEGA2,
    ONE,
    ZERO,
    UNITS,
    round_half_even,
    sqrt3_sign,
    unit_name,
    unit_from_name,
)
from .codes import golay12
from .diagram import NODE_HEIGHT_SQ, height_pair
from .linalg import (
    FORM_E8H, FORM_LEECH_H, _conj, _dot, _exact, _times, flat_norm, from_flat, mat_det, sparse,
    to_flat,
)
from .lattices import in_l_e8h, leech_contains, leech_ip, re_row
from .reflections import NodeChain, _add_scaled, _shift, reflect, canonical_root
from .isomorphism import psi_tail
from .textio import data_text, parse_matrix, parse_entry, format_vector

R1 = (ZERO,) * 12 + (ONE, OMEGA2)          # (0^12; 1, w^2)
R2 = (ZERO,) * 12 + (ONE, -OMEGA)          # (0^12; 1, -w)
RHO_NULL = (ZERO,) * 12 + (ZERO, ONE)      # (0^12; 0, 1)


def translate(lam, v):
    """T_{lambda, z}(v) for v = (mu; alpha, beta) in Leech+H, at the least
    admissible z = theta * z2 / 2, z2 = |lambda|^2 mod 2."""
    n = leech_ip(lam, lam)  # real: -1/3 of a sum of norms
    m3, r = divmod(n.a, 3)
    if r:
        raise ValueError("lambda norm is not a multiple of 3; not a Leech vector")
    mu, al, be = v[:12], v[12], v[13]
    t1 = leech_ip(lam, mu).exact_div(THETA)
    # conj(theta)^{-1} (z - |lam|^2/2) = -(z2 + theta*m)/2 with m = |lam|^2/3
    t2 = Eis(-(n.a % 2 + m3), -2 * m3).divide_exact_int(2) * al
    return tuple(m + al * l for m, l in zip(mu, lam)) + (al, t1 + t2 + be)


def load_z_basis():
    """The pinned 24-vector Z-basis of the Leech lattice; an InputError
    unless every row is a Leech vector."""
    return parse_matrix(data_text("leech_zbasis.txt"), "leech_zbasis.txt", 12,
                        lambda v: leech_contains(v) is not None)


def is_z_basis(rows) -> bool:
    """True iff the Leech vectors ``rows`` are a Z-basis of the Leech
    lattice.  The real form (2 s.a - s.b)/9, s = sum conj(u_i) v_i, makes
    Leech an even unimodular Z-lattice of rank 24, so 24 of its vectors
    span it exactly when their Gram matrix has an even diagonal and
    determinant 1 (the index squared).  ``re_row`` gives 2 s.a - s.b."""
    if len(rows) != 24:
        return False
    flats = [to_flat(v) for v in rows]
    gram = []
    for u in flats:
        re_u = re_row(u)
        row = []
        for v in flats:
            g, r = divmod(sum(map(mul, re_u, v)), 9)
            if r:
                return False
            row.append(Eis(g))
        gram.append(row)
    return all(gram[i][i].a % 2 == 0 for i in range(24)) and mat_det(gram) == 1


def build_generators(chg):
    """The 50 generating roots in 3E8+H coordinates.

    g_1 = r_1, g_2 = r_2, then T_{lambda_j, z_j}(r_1), T_{lambda_j, z_j}(r_2)
    for the 24 pinned basis vectors; everything transported by the
    isomorphism ``chg`` and checked to be norm -3 lattice vectors.
    """
    gens_lh = [R1, R2]
    for lam in load_z_basis():
        gens_lh += [translate(lam, R1), translate(lam, R2)]
    out = []
    for g in gens_lh:
        if FORM_LEECH_H.ip(g, g) != Eis(-3, 0):
            raise ValueError("a generator is not a norm -3 root of Leech+H")
        h = chg.to_e8h(g)
        if not in_l_e8h(h) or FORM_E8H.ip(h, h) != Eis(-3, 0):
            raise ValueError("a transported generator is not a root of 3E8+H")
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# height reduction with certificates


class ReductionCertificate:
    """A replayable witness that a root reduces to a diagram root.

    steps: ("node", k, eps_name) or ("perturb", j, eps_name); terminal
    (node_index, unit_name).  Node indices are 0-based positions in the
    table order, generator indices are 1-based as in g_1..g_50.
    """

    def __init__(self, target, steps, terminal):
        self.target = tuple(target)
        self.steps = list(steps)
        self.terminal = terminal

    def perturbation_count(self) -> int:
        return sum(1 for s in self.steps if s[0] == "perturb")

    def serialize(self) -> str:
        lines = [f"target: {format_vector(self.target)}"]
        for s in self.steps:
            if s[0] == "node":
                lines.append(f"step: node={s[1] + 1} eps={s[2]}")
            else:
                lines.append(f"step: perturb={s[1]} eps={s[2]}")
        k, u = self.terminal
        lines.append(f"terminal: node={k + 1} unit={u}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ReductionCertificate":
        target = None
        steps = []
        terminal = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(":")
            rest = rest.strip()
            if key == "target":
                target = tuple(parse_entry(t) for t in rest.split())
                if len(target) != 14:
                    raise ValueError("a certificate target has 14 entries")
            elif key == "step":
                fields = dict(p.split("=") for p in rest.split())
                if "node" in fields:
                    k, eps = _index(fields["node"], 26) - 1, fields.get("eps")
                    steps.append(("node", k, _choice(eps, _EPS)))
                else:
                    j, eps = _index(fields.get("perturb"), 50), fields.get("eps", "w")
                    steps.append(("perturb", j, _choice(eps, _EPS)))
            elif key == "terminal":
                fields = dict(p.split("=") for p in rest.split())
                unit = _choice(fields.get("unit"), _UNIT_NAMES)
                terminal = (_index(fields.get("node"), 26) - 1, unit)
        if target is None or terminal is None:
            raise ValueError("malformed certificate")
        return cls(target, steps, terminal)


def _index(text, count) -> int:
    """The 1-based index ``text`` names, at most ``count``."""
    k = int(text or "0")
    if not 1 <= k <= count:
        raise ValueError(f"certificate index {text!r} is outside 1..{count}")
    return k


def _choice(name, allowed):
    if name not in allowed:
        raise ValueError(f"certificate field value {name!r} is not one of {sorted(allowed)}")
    return name


_EPS = {"w": OMEGA, "wbar": OMEGA2}
_UNIT_NAMES = frozenset(map(unit_name, UNITS))
#: descent steps one reduction may take before it gives up
REDUCE_BUDGET = 10_000
#: generators (1-based) certified without perturbation; in this order they
#: are the perturbation sources of all the others
PERTURB_SOURCES = (3, 4, 6)
#: perturbations a generator's certificate may use
MAX_PERTURB = 1


class HeightReducer:
    """Shared state for reducing many roots against one diagram."""

    def __init__(self, diagram):
        self.diagram = diagram
        self.form = diagram.form
        self.kernel = diagram.node_kernel

    def reduce(self, y0, perturb_sources=(), max_perturb=1):
        """A certificate for y0, or None when stuck beyond the policy.

        perturb_sources: list of (index, root) usable for perturbation, in
        preference order; each is tried with eps = w then wbar.
        """
        found = self._search(tuple(y0), perturb_sources, max_perturb, REDUCE_BUDGET)
        if found is None:
            return None
        steps, (k, u) = found
        return ReductionCertificate(y0, steps, (k, unit_name(u)))

    def _search(self, y, perturb_sources, max_perturb, budget):
        """(steps, terminal hit) by strict descent from y, perturbing once
        by a source when stuck and max_perturb allows; None when stuck.

        The descent runs on a NodeChain; every unit multiple of a node
        root has a node height, so only there is y looked up."""
        chain = NodeChain(self.kernel, y)
        steps = []
        while budget > 0:
            budget -= 1
            if chain.height in chain.kernel.node_heights:
                hit = self.diagram.node_of(chain.vector())
                if hit is not None:
                    return steps, hit
            step = chain.descend()
            if step is not None:
                steps.append(("node",) + step)
                continue
            if max_perturb < 1:
                return None
            y = chain.vector()
            for idx, root in perturb_sources:
                for eps_name in ("w", "wbar"):
                    y2 = reflect(root, _EPS[eps_name], y, self.form)
                    found = self._search(y2, (), 0, budget)
                    if found is not None:
                        tail, hit = found
                        return steps + [("perturb", idx, eps_name)] + tail, hit
            return None
        raise RuntimeError("height reduction budget exhausted")


def certify_generators(diagram, generators):
    """Certificates for all 50 generators.

    The generators in PERTURB_SOURCES are certified without perturbation;
    the rest may perturb by those, in the listed order.
    """
    red = HeightReducer(diagram)
    certs = {}
    sources = []
    for j in PERTURB_SOURCES:
        cert = red.reduce(generators[j - 1], (), max_perturb=0)
        if cert is None:
            raise RuntimeError(f"generator g_{j} failed perturbation-free reduction")
        certs[j] = cert
        sources.append((j, generators[j - 1]))
    for j in range(1, len(generators) + 1):
        if j in certs:
            continue
        cert = red.reduce(generators[j - 1], sources, max_perturb=MAX_PERTURB)
        if cert is None:
            raise RuntimeError(f"generator g_{j} stuck beyond perturbation policy")
        certs[j] = cert
    return [certs[j] for j in range(1, len(generators) + 1)]


def check_certificate(cert, diagram, generators) -> bool:
    """Exact replay: strict height decrease off perturbations, terminal
    equal to the stated unit multiple of the stated node.  A target that
    is no root of L, and a node root or named generator whose norm is not
    -3, fail before the replay.

    The replay runs on flat ints and does not use the ``NodeKernel`` that
    wrote the certificate.  Each reflecting root r is read once per call
    as its form row; the form of 3E8+H has den 1, so <r, y> is two int
    dot products, and a step is y += s r with s = (1 - eps) <r, y> / 3
    by the node kernel's ``_shift`` and ``_add_scaled``.  The height is
    read off rho_hat's row by ``height_pair``, as ``Diagram.height_sq``
    reads it."""
    y = cert.target
    if not in_l_e8h(y) or diagram.form.ip(y, y) != Eis(-3, 0):
        return False
    roots = {("node", n.index): n.root for n in diagram.nodes}
    roots.update((("perturb", j), generators[j - 1]) for kind, j, _ in cert.steps
                 if kind == "perturb")
    mirrors = {}
    for key, r in roots.items():
        row, flat = diagram.form.row(r), to_flat(r)
        if [sum(map(mul, x, flat)) for x in row] != [-3, 0]:
            return False
        # the row and the nonzero coordinates of r as (flat index, a, b)
        mirrors[key] = row, sparse(flat)
    rho_row = diagram.rho_row
    y = list(to_flat(y))
    last = height_pair(rho_row, y)
    for kind, k, eps_name in cert.steps:
        (ra, rb), coords = mirrors[kind, k]
        _add_scaled(y, coords, *_shift(sum(map(mul, ra, y)), sum(map(mul, rb, y)), eps_name))
        p, q = height_pair(rho_row, y)
        if kind == "node" and sqrt3_sign(p - last[0], q - last[1]) >= 0:
            return False
        last = p, q
    k, uname = cert.terminal
    return diagram.node_of(from_flat(y)) == (k, unit_from_name(uname))


# ---------------------------------------------------------------------------
# Conway-style reduction in Leech+H coordinates


def h_value_sq(r) -> int:
    """h(r)^2 = norm of the middle coordinate (h(r) = |<r, rho>/theta|)."""
    return r[12].norm()


#: lattice-norm bound of ``LeechCVP.find_within``: the Leech lattice has
#: minimal norm 6 and covering radius sqrt 3 here, so every point lies
#: within norm 3 of a lattice vector, and a point with none is impossible
COVERING_BOUND = 3


class LeechCVP:
    """Exact closest-vector machinery for Q(w)-points against Leech.

    find_within(num, den): for the point t = num / den (num the 24 flat
    ints of twelve Z[w] numerators, den a positive int), the flat ints of
    the best lattice vector lam with
    sum |t_i - lam_i|^2 <= 3*COVERING_BOUND in plain coordinate terms
    (lattice norm |t - lam|^2 >= -COVERING_BOUND), scanning the
    (m, codeword) families with per-coordinate nearest rounding and a
    one-residue repair; None only when no family admits a vector within
    the bound (which would falsify the covering-radius input).  All
    arithmetic is in ints, scaled by den.

    Per m the 12 coordinates split into three blocks of 4, and each block
    gets one table of packed ints (cost << 5) + residue sum over its 81
    digit patterns (``_block_table``), so a word's nearest rounding costs
    3 lookups and 2 additions and meets the cap in one comparison.  The
    108 (coordinate, m, digit) entries come from ``_nearest``; the full
    rounding options of ``_coset_options`` are built, once per call, only
    where they are read.  Only a word that gets under the cap is repaired:
    its repair is the least (pen << 4) + i over its 12 coordinates i, read
    off the rounding options, so the cheapest coordinate wins and the
    first one on ties.  The first strict minimum in (m, word) order wins;
    only the winner's lattice vector is built.
    """

    def __init__(self):
        self.words = golay12().words()
        self.blocks = _word_blocks()

    def find_within(self, num, den):
        pairs = list(zip(num[::2], num[1::2]))
        full = {}

        def options(m, i, d):
            """The ``_coset_options`` of coordinate i at m + theta*d + 3E."""
            key = m, i, d
            if key not in full:
                a, b = pairs[i]
                full[key] = _coset_options(a - den * (m + d), b - 2 * den * d, den)
            return full[key]

        # a scanned total below cap is within the bound and below the best so far
        cap = 9 * COVERING_BOUND * den * den + 1
        best = None
        for m in (0, 1, -1):
            # [coord][digit + 1] -> the packed entry of m + theta*digit + 3E nearest t
            near = [[_nearest(a - den * (m + d), b - 2 * den * d, den) for d in (-1, 0, 1)]
                    for a, b in pairs]
            t0, t1, t2 = (_block_table(near, 4 * b) for b in range(3))
            cap5 = cap << 5
            for c, (i0, i1, i2) in zip(self.words, self.blocks):
                packed = t0[i0] + t1[i1] + t2[i2]
                if packed < cap5:
                    need = (m - (packed & 31)) % 3
                    # the repair: the least pen, then the first coordinate
                    key = min((options(m, i, d)[2 + need][0] << 4) + i
                              for i, d in enumerate(c)) if need else 0
                    total = (packed >> 5) + (key >> 4)
                    if total < cap:
                        cap, cap5 = total, total << 5
                        best = (m, c, need, key & 15)
        if best is None:
            return None
        m, c, need, k = best
        zs = [options(m, i, d)[1] for i, d in enumerate(c)]
        if need:
            zs[k] = options(m, k, c[k])[2 + need][1]
        return tuple([x for d, (za, zb) in zip(c, zs) for x in (m + d + 3 * za, 2 * d + 3 * zb)])


@cache
def _word_blocks():
    """Each Golay word's three block indices, in ``golay12().words()``
    order: the digits d_0..d_3 of coordinates 4b..4b+3 sit at index
    sum (d_j + 1) * 3**(3 - j) of block b's table."""
    return tuple(tuple(sum((d + 1) * 3 ** (3 - j) for j, d in enumerate(c[b:b + 4]))
                       for b in (0, 4, 8)) for c in golay12().words())


def _block_table(near, first):
    """The 81 digit patterns of coordinates first..first+3, in the index
    order of ``_word_blocks``, as one int each: (cost << 5) + residue sum.
    A word's residue sum is at most 2 * 12 < 32, so the sum of its three
    blocks' entries packs its cost and residue sum the same way."""
    e0, e1, e2, e3 = near[first:first + 4]
    high = [x + y for x in e0 for y in e1]
    low = [x + y for x in e2 for y in e3]
    return [x + y for x in high for y in low]


def _nearest(na, nb, den):
    """(cost << 5) + residue of the nearest z of ``_coset_options``:
    fields 0 and 2 of its tuple, from the rounded point and at most four
    neighbour costs.

    With d3 = 3*den, the rounding puts a0 = na - d3*ra and b0 = nb - d3*rb
    in [-d3/2, d3/2), and the cost of box position (i, j) is N(a, b) =
    a^2 - ab + b^2 at its offsets.  Against position 0 at (a0, b0), the
    positions 4 (a0 + d3, b0 + d3) and 8 (a0 - d3, b0 - d3) cost
    d3*(d3 + a0 + b0) >= 0 and d3*(d3 - a0 - b0) > 0 more, so 4 only ties
    position 0, which comes first, and 8 never wins; position 5
    (a0 + d3, b0 - d3) costs d3*(2*d3 + a0 - 2*b0) > d3^2/2 more than
    position 3 (a0 + d3, b0), and position 7 (a0 - d3, b0 + d3) likewise
    d3*(2*d3 - 2*a0 + b0) more than position 1 (a0, b0 + d3).  So the
    winner is the first least cost among the positions 0, 1, 2, 3 and 6,
    whose costs exceed position 0's by d3 times d3 + u, d3 - u, d3 + v and
    d3 - v, with u = 2*b0 - a0 and v = 2*a0 - b0; they shift the residue
    ra + rb of position 0 by 2, 1, 2 and 1."""
    d3 = 3 * den
    ra = (2 * na + d3) // (2 * d3)
    rb = (2 * nb + d3) // (2 * d3)
    a0 = na - d3 * ra
    b0 = nb - d3 * rb
    u, v = 2 * b0 - a0, 2 * a0 - b0
    extra = shift = 0
    if (x := d3 + u) < extra:
        extra, shift = x, 2
    if (x := d3 - u) < extra:
        extra, shift = x, 1
    if (x := d3 + v) < extra:
        extra, shift = x, 2
    if (x := d3 - v) < extra:
        extra, shift = x, 1
    # N(a0 + b0 w) written out, as linalg.flat_norm computes it, in the block tables' loop
    return ((a0 * a0 - a0 * b0 + b0 * b0 + d3 * extra) << 5) + (ra + rb + shift) % 3


def _coset_options(na, nb, den):
    """The nearest z to q = (na + nb*w)/(3*den), as (cost, z, z mod theta,
    repair 1, repair 2) with cost = 9*den^2*|q - z|^2 and z an int pair;
    repair s is (extra cost, z) of the nearest z whose residue is shifted
    by s mod 3.  Candidates are the 3x3 box around the rounded q, which
    holds every residue; box position 3*i + j has za = ra, ra - 1, ra + 1
    for i = 0, 1, 2 and zb likewise for j.  As in ``_nearest``, a cost
    exceeds position 0's by d3 times an extra, with u = 2*b0 - a0,
    v = 2*a0 - b0 and t = a0 + b0: d3 - u, d3 + t, d3 - v at positions
    2, 4, 6 (residue shifted by 1), d3 + u, d3 + v, d3 - t at 1, 3, 8
    (by 2); position 0 wins the unshifted class, as 5 and 7 cost
    3*d3*(d3 +- (a0 - b0)) > 0 more.  Each class keeps its least
    (extra, position), and the least of the three wins."""
    d3 = 3 * den
    ra = (2 * na + d3) // (2 * d3)
    rb = (2 * nb + d3) // (2 * d3)
    a0 = na - d3 * ra
    b0 = nb - d3 * rb
    u, v, t = 2 * b0 - a0, 2 * a0 - b0, a0 + b0
    e1, p1, z1 = min((d3 - u, 2, (ra, rb + 1)), (d3 + t, 4, (ra - 1, rb - 1)),
                     (d3 - v, 6, (ra + 1, rb)))
    e2, p2, z2 = min((d3 + u, 1, (ra, rb - 1)), (d3 + v, 3, (ra - 1, rb)),
                     (d3 - t, 8, (ra + 1, rb + 1)))
    # c0 = N(a0 + b0 w) written out, as linalg.flat_norm computes it
    c0, z0, r = a0 * a0 - a0 * b0 + b0 * b0, (ra, rb), ra + rb
    if e1 >= 0 and e2 >= 0:
        return c0, z0, r % 3, (d3 * e1, z1), (d3 * e2, z2)
    if (e1, p1) < (e2, p2):
        return c0 + d3 * e1, z1, (r + 1) % 3, (d3 * (e2 - e1), z2), (-d3 * e1, z0)
    return c0 + d3 * e2, z2, (r + 2) % 3, (-d3 * e2, z0), (d3 * (e1 - e2), z1)


def conway_reduce(mu, max_steps=200):
    """Reflections in h = 1 roots taking mu down to h(mu) = 1.

    Follows the transitivity proof: normalize to middle coordinate 1,
    pick a lattice vector within the covering bound of the Leech part,
    center the imaginary part b with the integer shift k, then reflect
    with eps = w or w^2 according to the sign of b.  Returns (steps, y):
    the step list of (root, eps_name) and the reduced root y with
    h(y) = 1; h^2 strictly decreases in Z at every step.

    A step holds y as one flat int list (a_0, b_0, ..., a_13, b_13) and
    runs on the flat kernels of ``linalg``; Eis is built for the returned
    roots and y.  The normalized point y[:12] / y[12] is held as the flat
    numerators y_i * conj(y[12]) over the int denominator |y[12]|^2 = h^2.
    """
    cvp = LeechCVP()
    steps = []
    y = list(to_flat(mu))
    h2 = h_value_sq(mu)
    for _ in range(max_steps):
        if h2 == 1:
            return steps, from_flat(y)
        if h2 == 0:
            raise ValueError("h = 0: input is orthogonal to rho; not a valid start")
        num = _times(y[:24], _conj(y[24:26]))
        lam = cvp.find_within(num, h2)
        if lam is None:
            raise RuntimeError("covering-radius bound violated; axiom falsified")
        root, eps_name = _conway_step(y, num, h2, lam)
        if not (h2_next := flat_norm(y[24:26])) < h2:
            raise RuntimeError("a Conway step did not decrease h; the proof's bound failed")
        steps.append((from_flat(root), eps_name))
        h2 = h2_next
    raise RuntimeError("conway_reduce exceeded max_steps")


def _conway_step(y, num, n, lam):
    """The reflecting root r = (lam; 1, tail) of one step, with tail =
    theta(-3-|lam|^2)/6 + beta + k, and eps, for the point l = num / n
    (y, num and lam flat ints, n = |y[12]|^2); then ``reflect`` in r on y,
    in place: y += s r with s = (1 - eps) <r, y> / 3 by the node kernel's
    ``_shift`` and ``_add_scaled``, with the norm -3 check on r and every
    division exact, as there.  Returns (r as flat ints, eps).  Every
    fraction below has denominator 2n, 18n or 54n and is kept as its int
    numerator."""
    # w = (l; 1, alpha - theta |l|^2/6) with y[13]/y[12] = nb/n; the real
    # part alpha1 = (2 nb.a - nb.b)/(2n) of alpha, as |l|^2 cancels there
    nba, nbb = _times(y[26:28], _conj(y[24:26]))
    # third = sum N(lam_i) / 3 = -|lam|^2; beta = beta2/2 with
    # 2 beta + 1 = |lam|^2 mod 2
    third = _exact([flat_norm(lam)], 3)[0]
    beta2 = 1 if third % 2 == 0 else 0
    # the entries of conj(lam): <lam, l>/theta = p/(9n) with
    # p = theta * sum conj(lam_i) num_i, so [lam, l] = (2 p.a - p.b)/(18n);
    # for p = theta (s + t w) that is -3t, t the w part of the sum
    mirror = sparse(_conj(lam))
    _, t = _dot(mirror, num)
    # b = theta * (base - k/3) with base = (alpha1 - beta - [lam, l])/3,
    # and base54 = 54n * base
    base54 = 9 * (2 * nba - nbb) - 9 * n * beta2 + 3 * t
    # the nearest k centers b: |base - k/3| <= 1/6
    k = round_half_even(base54, 18 * n)
    eps_name = "wbar" if base54 - 18 * n * k <= 0 else "w"
    ta, tb = tail = psi_tail(-third, beta2 + 2 * k)
    # in the form <u, v> = conj(u13) theta v12 - conj(u12) theta v13 -
    # sum conj(u_i) v_i / 3 the root's u12 = 1 gives <r, r> = 3 tb - third
    # and <r, y> = conj(tail) theta y12 - theta y13 - (g + h w), with
    # conj(tail) theta = (ta + tb) + (2 ta - tb) w, theta = 1 + 2w and
    # g + h w = sum conj(lam_i) y_i / 3
    if 3 * tb - third != -3:
        raise ValueError("reflection requires a norm -3 root")
    g, h = _exact(_dot(mirror, y), 3)
    qa, qb = _dot([(24, ta + tb, 2 * ta - tb), (26, -1, -2)], y)
    root = lam + (1, 0) + tail
    _add_scaled(y, sparse(root), *_shift(qa - g, qb - h, eps_name))
    return root, eps_name


# ---------------------------------------------------------------------------
# the minimal-height scan

#: 4 + sqrt 3 in Z[zeta_12], the factor of s in 3 ht
SQRT3_PLUS4 = SQRT3_C + Cyclo12(4)


def min_height_scan(diagram):
    """All roots of height <= 1, up to units: the case analysis over
    s = <r, w_P> in {0, theta, 3} with sum |<x_i, r>|^2 = 9, 12, 18.

    Height is prescreened on the unit multiset (it only depends on the
    sum of the pairings), and surviving patterns are expanded over point
    positions and checked for lattice membership; every root found equals
    a unit multiple of a diagram node.
    """
    points = [n.root for n in diagram.points]
    found = set()

    cases = (
        (Eis(0, 0), 9),
        (THETA, 12),
        (Eis(3, 0), 18),
    )
    patterns = {
        9: ((9,), (3, 3, 3)),
        12: ((9, 3), (3, 3, 3, 3)),
        18: ((9, 9), (9, 3, 3, 3), (3, 3, 3, 3, 3, 3)),
    }

    for s, total in cases:
        for pat in patterns[total]:
            big = sum(1 for x in pat if x == 9)
            small = len(pat) - big
            for bu in combinations_with_replacement(UNITS, big):
                for su in combinations_with_replacement(UNITS, small):
                    tsum = sum((Eis(3, 0) * u for u in bu), start=ZERO)
                    tsum = tsum + sum((THETA * u for u in su), start=ZERO)
                    # 3 ht = |s(4+sqrt3) - sum t_i|, exactly:
                    val = SQRT3_PLUS4 * s - tsum
                    ht9 = val.abs_sq()  # 9 * ht^2
                    if ht9 > SqrtThree(9, 0):
                        continue
                    found.update(
                        _expand_positions(diagram, points, s, bu, su)
                    )
    return sorted(found, key=lambda v: tuple(x.key() for x in v))


def _expand_positions(diagram, points, s, big_units, small_units):
    """Place the pairing values 3u (big) and theta*u (small) on distinct
    points, reconstruct r = sum -t_i x_i / 3 + s w_P / 3 and keep the
    lattice roots of height 1 or less.

    3r is a prefix sum of flat ints, extended point by point by the rows
    -t x_p tabulated once per call; r is integral exactly when every int
    of 3r is divisible by 3, so the last value's point is read off an index
    of its rows mod 3."""
    values = [Eis(3, 0) * u for u in big_units] + [THETA * u for u in small_units]
    tables = {}
    for t in set(values):
        rows = [to_flat(-t * x for x in pt) for pt in points]
        # -row mod 3 -> the points whose row completes a sum to 0 mod 3
        index = {}
        for p, row in enumerate(rows):
            index.setdefault(tuple(-x % 3 for x in row), []).append(p)
        tables[t] = rows, index
    start = to_flat(s * y for y in diagram.w_p)
    sums = []
    for order in set(permutations(values)):
        _walk([tables[t] for t in order], 0, start, sums)
    out = []
    for acc in sums:
        r = from_flat([x // 3 for x in acc])
        if not in_l_e8h(r):
            continue
        if diagram.form.ip(r, r) != Eis(-3, 0):
            continue
        if diagram.height_sq(r) <= NODE_HEIGHT_SQ:
            out.append(canonical_root(r))
    return out


#: x -> x % 3
_MOD3 = (3).__rmod__


def _walk(steps, start, acc, sums):
    """Place the steps on increasing points from start on, each (rows,
    index) step adding its row at its point to the flat prefix sum acc.
    Appends to sums each full sum that is 0 mod 3."""
    rows, index = steps[0]
    if len(steps) == 1:
        sums += [tuple(map(add, acc, rows[p]))
                 for p in index.get(tuple(map(_MOD3, acc)), ()) if p >= start]
        return
    for p in range(start, len(rows) - len(steps) + 1):
        _walk(steps[1:], p + 1, tuple(map(add, acc, rows[p])), sums)
