"""Generators of the reflection group, height reduction and certificates.

* Heisenberg translations T_{lambda,z} act on Leech+H fixing the null
  vector rho = (0^12; 0, 1); applied to the two base roots they give the
  standard 50-root generating set, transported to 3E8+H coordinates.
* ``reduce_height`` walks a root down to a unit multiple of one of the 26
  diagram roots by reflections that strictly decrease the exact height,
  with at most one perturbation by an already-certified generator.
* ``conway_reduce`` is the other reduction: it lowers h(r) = |<r, rho>/theta|
  by reflections in the h = 1 root family, using an exact closest-vector
  search in the Leech lattice (the covering radius bound makes it work).
* ``min_height_scan`` enumerates every root of height <= 1 from the case
  split over <r, w_P> and the point-pairing tuple, confirming the 26
  diagram roots are exactly the minimal-height roots up to units.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

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
    unit_name,
    unit_from_name,
)
from .linalg import FORM_LEECH_H, FORM_E8H
from .lattices import e8_ip, leech_ip, golay_words, in_l_e8h
from .reflections import reflect, canonical_root
from .textio import parse_matrix, parse_entry, format_vector

R1 = (ZERO,) * 12 + (ONE, OMEGA2)          # (0^12; 1, w^2)
R2 = (ZERO,) * 12 + (ONE, -OMEGA)          # (0^12; 1, -w)
RHO_NULL = (ZERO,) * 12 + (ZERO, ONE)      # (0^12; 0, 1)


class Translation:
    """T_{lambda, z} with z = theta * zhalf (zhalf a Fraction, 2*zhalf an
    integer congruent to |lambda|^2 mod 2)."""

    def __init__(self, lam, zhalf):
        self.lam = tuple(lam)
        self.zhalf = Fraction(zhalf)
        n = leech_ip(self.lam, self.lam)
        if n.b != 0:
            raise ValueError("lambda norm not real")
        self.norm = n.a
        two_z = 2 * self.zhalf
        if two_z.denominator != 1 or (int(two_z) - self.norm) % 2:
            raise ValueError("z = theta*alpha/2 needs alpha = |lambda|^2 mod 2")

    def apply(self, v):
        """Image of (mu; alpha, beta) in Leech+H."""
        mu, al, be = v[:12], v[12], v[13]
        mu2 = tuple(m + al * l for m, l in zip(mu, self.lam))
        ip = leech_ip(self.lam, mu)
        t1 = ip.exact_div(THETA)
        # conj(theta)^{-1} (z - |lam|^2/2) = -(alpha0 + theta*m)/2 with
        # alpha0 = 2*zhalf, m = |lam|^2/3
        alpha0 = int(2 * self.zhalf)
        m3, r = divmod(self.norm, 3)
        if r:
            raise ValueError("lambda norm is not a multiple of 3; not a Leech vector")
        half = Eis(-(alpha0 + m3), -2 * m3)
        qa, ra = divmod(half.a, 2)
        qb, rb = divmod(half.b, 2)
        if ra or rb:
            raise ValueError("translation tail is not integral")
        t2 = Eis(qa, qb) * al
        return mu2 + (al, t1 + t2 + be)

    def compose(self, other: "Translation") -> "Translation":
        """The map v -> self(other(v)):
        T_{a} o T_{b} = T_{lam_a + lam_b, z_a + z_b + im<lam_b, lam_a>}."""
        lam = tuple(x + y for x, y in zip(self.lam, other.lam))
        ip = leech_ip(other.lam, self.lam)
        t = ip.exact_div(THETA)
        bracket = Fraction(2 * t.a - t.b, 2)  # im<b,a> = theta * bracket
        return Translation(lam, self.zhalf + other.zhalf + bracket)

    def inverse(self) -> "Translation":
        return Translation(tuple(-x for x in self.lam), -self.zhalf)


def minimal_zhalf(norm: int) -> Fraction:
    """The smallest admissible z/theta for a lambda of the given norm."""
    return Fraction(abs(norm) % 2, 2)


def load_z_basis():
    """The pinned 24-vector Z-basis of the Leech lattice."""
    from .diagram import data_text

    return parse_matrix(data_text("leech_zbasis.txt"))


def build_generators(chg):
    """The 50 generating roots in 3E8+H coordinates.

    g_1 = r_1, g_2 = r_2, then T_{lambda_j, z_j}(r_1), T_{lambda_j, z_j}(r_2)
    for the 24 pinned basis vectors; everything transported by the
    isomorphism ``chg`` and checked to be norm -3 lattice vectors.
    """
    lams = load_z_basis()
    gens_lh = [R1, R2]
    for lam in lams:
        t = Translation(lam, minimal_zhalf(leech_ip(lam, lam).a))
        gens_lh.append(t.apply(R1))
        gens_lh.append(t.apply(R2))
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
        c = diagram.constants()
        self.rho_hat = c.rho_hat
        self.t0 = [
            self.form.ip12(self.rho_hat, n.root) for n in diagram.nodes
        ]

    def ip_rho(self, y) -> Cyclo12:
        return self.form.ip12(self.rho_hat, y)

    def height_ns(self, y) -> SqrtThree:
        """|<rho_hat, y>|^2; proportional to ht^2, exact, cheap to compare."""
        return self.ip_rho(y).abs_sq()

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
        by a source when stuck and max_perturb allows; None when stuck."""
        steps = []
        while budget > 0:
            budget -= 1
            hit = self.diagram.node_of(y)
            if hit is not None:
                return steps, hit
            nxt = self._descend_step(y)
            if nxt is not None:
                k, eps_name, y = nxt
                steps.append(("node", k, eps_name))
                continue
            if max_perturb < 1:
                return None
            for idx, root in perturb_sources:
                for eps_name in ("w", "wbar"):
                    y2 = reflect(root, _EPS[eps_name], y, self.form)
                    found = self._search(y2, (), 0, budget)
                    if found is not None:
                        tail, hit = found
                        return steps + [("perturb", idx, eps_name)] + tail, hit
            return None
        raise RuntimeError("height reduction budget exhausted")

    def _descend_step(self, y):
        """First (node, eps) strictly decreasing |<rho_hat, .>|^2."""
        cur_ip = self.ip_rho(y)
        cur_ns = cur_ip.abs_sq()
        for k, node in enumerate(self.diagram.nodes):
            q = self.form.ip(node.root, y)
            if not q:
                continue
            for eps_name in ("w", "wbar"):
                eps = _EPS[eps_name]
                s = ((ONE - eps) * q).exact_div(Eis(3, 0))
                new_ip = cur_ip + Cyclo12.from_eis(s) * self.t0[k]
                if new_ip.abs_sq() < cur_ns:
                    y2 = reflect(node.root, eps, y, self.form)
                    return k, eps_name, y2
        return None


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
    is no root of L fails before the replay."""
    y = cert.target
    if not in_l_e8h(y) or diagram.form.ip(y, y) != Eis(-3, 0):
        return False
    red = HeightReducer(diagram)
    last = red.height_ns(y)
    for s in cert.steps:
        if s[0] == "node":
            y = reflect(diagram.nodes[s[1]].root, _EPS[s[2]], y, diagram.form)
            ns = red.height_ns(y)
            if not ns < last:
                return False
            last = ns
        else:
            y = reflect(generators[s[1] - 1], _EPS[s[2]], y, diagram.form)
            last = red.height_ns(y)
    k, uname = cert.terminal
    return diagram.node_of(y) == (k, unit_from_name(uname))


# ---------------------------------------------------------------------------
# Conway-style reduction in Leech+H coordinates


def h_value_sq(r) -> int:
    """h(r)^2 = norm of the middle coordinate (h(r) = |<r, rho>/theta|)."""
    return r[12].norm()


class LeechCVP:
    """Exact closest-vector machinery for Q(w)-points against Leech.

    find_within(t, bound): the best lattice vector lam with
    sum |t_i - lam_i|^2 <= 3*bound in plain coordinate terms (lattice
    norm |t - lam|^2 >= -bound), scanning the (m, codeword) families with
    per-coordinate nearest rounding and a one-residue repair; None only
    when no family admits a vector within the bound (which would falsify
    the covering-radius input).  All arithmetic is scaled-integer.
    """

    def __init__(self):
        self.words = golay_words().words()

    def find_within(self, t, bound=3):
        den = math.lcm(*(c.denominator for x in t for c in (x.a, x.b)))
        ti = [(int(x.a * den), int(x.b * den)) for x in t]
        limit = 9 * bound * den * den
        best = None
        best_total = None
        for m in (0, 1, -1):
            cost = []  # [coord][digit] -> sorted list of (c, z, zres)
            for a, b in ti:
                percoord = {}
                for d in (-1, 0, 1):
                    base = Eis(m, 0) + THETA * Eis(d, 0)
                    percoord[d] = _round_options_scaled(
                        a - den * base.a, b - den * base.b, den
                    )
                cost.append(percoord)
            for c in self.words:
                total0 = 0
                cap = limit if best_total is None else min(limit, best_total)
                for i, d in enumerate(c):
                    total0 += cost[i][d][0][0]
                    if total0 > cap:
                        break
                if total0 > cap:
                    continue
                res = 0
                for i, d in enumerate(c):
                    res += cost[i][d][0][2]
                need = (m - res) % 3
                total = total0
                repair = None
                if need:
                    bestpen = None
                    for i, d in enumerate(c):
                        opts = cost[i][d]
                        base_r = opts[0][2]
                        for opt in opts[1:]:
                            if (opt[2] - base_r) % 3 == need:
                                pen = opt[0] - opts[0][0]
                                if bestpen is None or pen < bestpen[0]:
                                    bestpen = (pen, i, opt)
                                break
                    if bestpen is None:
                        continue
                    total = total0 + bestpen[0]
                    repair = bestpen
                if total <= limit and (best_total is None or total < best_total):
                    lam = []
                    for i, d in enumerate(c):
                        opt = cost[i][d][0]
                        if repair is not None and repair[1] == i:
                            opt = repair[2]
                        lam.append(Eis(m, 0) + THETA * Eis(d, 0) + Eis(3, 0) * opt[1])
                    best_total = total
                    best = tuple(lam)
        return best


def _round_options_scaled(na, nb, den):
    """Candidates z near (na + nb*w)/(3*den), as (cost, z, zres) with
    cost = 9*den^2*|q - z|^2, sorted ascending."""
    d3 = 3 * den
    ra = (2 * na + d3) // (2 * d3)
    rb = (2 * nb + d3) // (2 * d3)
    opts = []
    for da in (0, -1, 1):
        for db in (0, -1, 1):
            za, zb = ra + da, rb + db
            ea, eb = na - d3 * za, nb - d3 * zb
            cost = ea * ea - ea * eb + eb * eb
            opts.append((cost, Eis(za, zb), (za + zb) % 3))
    opts.sort(key=lambda o: o[0])
    return opts


def conway_reduce(mu, max_steps=200):
    """Reflections in h = 1 roots taking mu down to h(mu) = 1.

    Follows the transitivity proof: normalize to middle coordinate 1,
    pick a lattice vector within the covering bound of the Leech part,
    center the imaginary part b with the integer shift n, then reflect
    with eps = w or w^2 according to the sign of b.  Returns the step
    list of (root, eps_name); h^2 strictly decreases in Z at every step.
    """
    cvp = LeechCVP()
    steps = []
    y = tuple(mu)
    for _ in range(max_steps):
        h2 = h_value_sq(y)
        if h2 == 1:
            return steps, y
        if h2 == 0:
            raise ValueError("h = 0: input orthogonal concerns rho; not a valid start")
        al = y[12]
        w_l = tuple(x.frac_div(al) for x in y[:12])
        lam = cvp.find_within(w_l, bound=3)
        if lam is None:
            raise RuntimeError("covering-radius bound violated; axiom falsified")
        r, eps_name = _conway_root(y, w_l, lam)
        y2 = reflect(r, _EPS[eps_name], y, FORM_LEECH_H)
        if not h_value_sq(y2) < h2:
            raise RuntimeError("a Conway step did not decrease h; the proof's bound failed")
        steps.append((r, eps_name))
        y = y2
    raise RuntimeError("conway_reduce exceeded max_steps")


def _conway_root(y, w_l, lam):
    """The reflecting root (lam; 1, theta(-3-|lam|^2)/6 + beta + n) and eps."""
    # w = (l; 1, alpha - theta |l|^2/6): alpha = w_beta + theta |l|^2 / 6
    w_beta = y[13].frac_div(y[12])
    l_ns = _frac_norm_sum(w_l)  # sum |l_i|^2 in plain coordinates
    # alpha = w_beta + theta * (-(l_ns/3))/6  (lattice norm is -l_ns/3)
    alpha = w_beta + THETA * Eis(Fraction(-l_ns, 18), Fraction(0))
    # alpha = alpha1 + theta*alpha2 with alpha1 = p - q/2, alpha2 = q/2
    p, q = Fraction(alpha.a), Fraction(alpha.b)
    alpha1 = p - q / 2
    lam_norm = leech_ip(lam, lam).a
    m3 = lam_norm // 3
    # beta parity: 2 beta + 1 = |lam|^2 mod 2
    beta = Fraction(1, 2) if lam_norm % 2 == 0 else Fraction(0)
    # b/theta = (-n + alpha1 - beta)/3... derive exactly below.
    ip = e8_ip(lam, w_l) * Fraction(1, 3)  # the Leech pairing over Q(w)
    t = ip.frac_div(THETA)
    bracket = Fraction(2 * Fraction(t.a) - Fraction(t.b), 2)  # [lam, l]
    # b = n/theta + alpha1/conj(theta) + beta/theta - im<lam,l>/3
    #   = theta * ( -n/3 + alpha1/3 - beta/3 - bracket/3 )
    base = (alpha1 - beta - bracket) / 3
    # choose n with base - n/3 in [-1/6, 1/6]
    n = round(3 * base)
    tb = base - Fraction(n, 3)
    if tb > Fraction(1, 6) or tb < Fraction(-1, 6):
        for cand in (n - 1, n + 1):
            tb2 = base - Fraction(cand, 3)
            if Fraction(-1, 6) <= tb2 <= Fraction(1, 6):
                n = cand
                tb = tb2
                break
    if not Fraction(-1, 6) <= tb <= Fraction(1, 6):
        raise RuntimeError("no shift n centers the reflection coefficient")
    tail_half = Fraction(-3 - m3 * 3, 6)  # theta coefficient (-3-|lam|^2)/6
    tail = (THETA * Eis(tail_half, Fraction(0)) + Eis(beta + n, Fraction(0))).integral()
    if tail is None:
        raise RuntimeError("the reflecting root has a non-integral tail")
    r = lam + (ONE, tail)
    if FORM_LEECH_H.ip(r, r) != Eis(-3, 0):
        raise RuntimeError("the reflecting vector is not a norm -3 root")
    eps_name = "wbar" if tb <= 0 else "w"
    return r, eps_name


def _frac_norm_sum(v):
    s = Fraction(0)
    for x in v:
        s += Fraction(x.a) ** 2 - Fraction(x.a) * Fraction(x.b) + Fraction(x.b) ** 2
    return s


def galois_norm_ht(diagram, r) -> int:
    """Nm(r): the rational norm of <r, rho_bar>/|rho_bar|^2 (diagnostic)."""
    c = diagram.constants()
    ipp = diagram.form.ip12(c.rho_hat, r).abs_sq()
    ipm = diagram.form.ip12(c.rho_hat_minus, r).abs_sq()
    np2 = SqrtThree(-78, 104) * SqrtThree(-78, 104)
    nm2 = SqrtThree(-78, -104) * SqrtThree(-78, -104)
    val = (ipp * 676 / np2) * (ipm * 676 / nm2)
    if val.q != 0 or val.p.denominator != 1:
        raise ArithmeticError("Nm(r) is not a rational integer")
    return int(val.p)


# ---------------------------------------------------------------------------
# the minimal-height scan


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
        s_c = Cyclo12.from_eis(s)
        for pat in patterns[total]:
            big = sum(1 for x in pat if x == 9)
            small = len(pat) - big
            for bu in combinations_with_replacement(UNITS, big):
                for su in combinations_with_replacement(UNITS, small):
                    tsum = sum((Eis(3, 0) * u for u in bu), start=ZERO)
                    tsum = tsum + sum((THETA * u for u in su), start=ZERO)
                    # 3 ht = |s(4+sqrt3) - sum t_i|, exactly:
                    val = s_c * _c12_sqrt3_plus4() - Cyclo12.from_eis(tsum)
                    ht9 = val.abs_sq()  # 9 * ht^2
                    if ht9 > SqrtThree(9, 0):
                        continue
                    found.update(
                        _expand_positions(diagram, points, s, bu, su)
                    )
    return sorted(found, key=lambda v: tuple(x.key() for x in v))


def _c12_sqrt3_plus4() -> Cyclo12:
    from .rings import SQRT3_C

    return SQRT3_C + Cyclo12(4)


def _expand_positions(diagram, points, s, big_units, small_units):
    """Place the pairing values 3u (big) and theta*u (small) on distinct
    points, reconstruct r = sum -t_i x_i / 3 + s w_P / 3 and keep the
    lattice roots of height 1 or less.  3r is accumulated in Z[w]; r is
    integral exactly when every component of 3r is divisible by 3."""
    from itertools import permutations

    out = []
    s_wp = [s * y for y in diagram.constants().w_p]
    values = [Eis(3, 0) * u for u in big_units] + [THETA * u for u in small_units]
    k = len(values)
    distinct_orders = set(permutations(values))
    for pos in combinations(range(13), k):
        for order in distinct_orders:
            acc = list(s_wp)
            for p, t in zip(pos, order):
                for i in range(14):
                    acc[i] = acc[i] - t * points[p][i]
            if any(x.a % 3 or x.b % 3 for x in acc):
                continue
            r = tuple(Eis(x.a // 3, x.b // 3) for x in acc)
            if not in_l_e8h(r):
                continue
            if diagram.form.ip(r, r) != Eis(-3, 0):
                continue
            if diagram.height_sq(r) <= SqrtThree(1, 0):
                out.append(canonical_root(r))
    return out
