import contextlib
import copy
import hashlib
import inspect
import io
import random
import tempfile
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import (
    Eis, ONE, OMEGA, OMEGA2, THETA, ZERO, UNITS, round_half_even, unit_name, unit_from_name,
)
from eleech.codes import golay12
from eleech.diagram import NODE_HEIGHT_SQ, DiagramNode
from eleech.linalg import FORM_LEECH_H, FORM_E8H, from_flat, to_flat
from eleech.isomorphism import psi_root
from eleech.lattices import leech_ip, leech_contains, in_l_e8h
from eleech.reflections import canonical_root, reflect
from eleech.textio import format_vector
from eleech import reduction
from eleech.reduction import (
    R1, R2, RHO_NULL,
    translate, load_z_basis, is_z_basis,
    HeightReducer, ReductionCertificate, check_certificate,
    conway_reduce, h_value_sq, LeechCVP, COVERING_BOUND,
    _coset_options, _nearest, _word_blocks,
)

EPS = {"w": OMEGA, "wbar": OMEGA2}


def _find_within(cvp, num, den):
    """``LeechCVP.find_within`` on Eis numerators, its flat result as Eis."""
    lam = cvp.find_within(to_flat(num), den)
    return None if lam is None else from_flat(lam)


def test_base_roots():
    assert FORM_LEECH_H.ip(R1, R1) == Eis(-3, 0)
    assert FORM_LEECH_H.ip(R2, R2) == Eis(-3, 0)
    assert FORM_LEECH_H.ip(R1, R2) == Eis(2, 0) * THETA * OMEGA


def _real_ip(u, v):
    s = ZERO
    for x, y in zip(u, v):
        s = s + x.conj() * y
    val = 2 * s.a - s.b
    assert val % 9 == 0
    return val // 9


def test_z_basis_spans_over_z():
    """Real-form Gram of the pinned 24 vectors has determinant 1."""
    rows = load_z_basis()
    assert len(rows) == 24
    for row in rows:
        assert leech_contains(row) is not None

    g = [[_real_ip(u, v) for v in rows] for u in rows]
    det = _int_det([row[:] for row in g])
    assert det == 1
    assert all(g[i][i] % 2 == 0 for i in range(24))
    assert is_z_basis(rows)


def test_doubled_row_is_no_z_basis():
    """Rows that are Leech vectors but span a sublattice of index 2 (Gram
    determinant 4), or are one short, fail the Z-basis check."""
    rows = list(load_z_basis())
    rows[5] = tuple(2 * x for x in rows[5])
    assert leech_contains(rows[5]) is not None
    assert _int_det([[_real_ip(u, v) for v in rows] for u in rows]) == 4
    assert not is_z_basis(rows)
    assert not is_z_basis(load_z_basis()[:23])


def _int_det(a):
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_translation_identity():
    zero = (ZERO,) * 12
    assert translate(zero, R1) == R1
    assert translate(zero, RHO_NULL) == RHO_NULL


def test_translate_rejects_a_non_leech_lambda():
    lam = (ONE, ONE, ONE) + (ZERO,) * 9  # norm -1
    with pytest.raises(ValueError, match="not a multiple of 3"):
        translate(lam, R1)


def test_translation_fixes_rho_and_form():
    zb = load_z_basis()
    assert translate(zb[3], RHO_NULL) == RHO_NULL
    vs = (R1, R2, tuple(zb[5]) + (ONE, ZERO))
    for a in vs:
        for b in vs:
            assert FORM_LEECH_H.ip(translate(zb[3], a), translate(zb[3], b)) == FORM_LEECH_H.ip(a, b)


def test_generators_count_and_norms(generators):
    assert len(generators) == 50
    for g in generators:
        assert in_l_e8h(g)
        assert FORM_E8H.ip(g, g) == Eis(-3, 0)


def test_reduce_node_gives_empty_certificate(diagram):
    red = HeightReducer(diagram)
    cert = red.reduce(diagram.nodes[7].root, ())
    assert cert is not None and cert.steps == []


def test_reduce_two_generators_and_replay(diagram, generators):
    red = HeightReducer(diagram)
    for j in (3, 4):
        cert = red.reduce(generators[j - 1], (), max_perturb=0)
        assert cert is not None
        assert check_certificate(cert, diagram, generators)


def test_certificate_roundtrip(diagram, generators):
    red = HeightReducer(diagram)
    cert = red.reduce(generators[2], (), max_perturb=0)
    back = ReductionCertificate.parse(cert.serialize())
    assert back.target == cert.target
    assert back.steps == cert.steps
    assert back.terminal == cert.terminal


_TARGET = "target: " + " ".join(["0,0"] * 14)
_TERMINAL = "terminal: node=1 unit=1"


@pytest.mark.parametrize("text", [
    "target: 1,0\n" + _TERMINAL,
    _TARGET + "\nterminal: node=0 unit=1",
    _TARGET + "\nterminal: node=27 unit=1",
    _TARGET + "\nstep: node=0 eps=w\n" + _TERMINAL,
    _TARGET + "\nstep: perturb=0 eps=w\n" + _TERMINAL,
    _TARGET + "\nstep: perturb=51 eps=w\n" + _TERMINAL,
    _TARGET + "\nstep: node=1 eps=i\n" + _TERMINAL,
    _TARGET + "\nstep: node=1\n" + _TERMINAL,
    _TARGET + "\nterminal: node=1 unit=i",
    _TARGET + "\nterminal: node=1 unit",
    _TARGET + "\nstep: node=1=2 eps=w\n" + _TERMINAL,
], ids=[
    "short_target", "terminal_node_0", "terminal_node_27", "step_node_0",
    "perturb_0", "perturb_51", "bad_eps", "missing_eps", "unknown_unit",
    "pair_without_value", "pair_with_two_values",
])
def test_certificate_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        ReductionCertificate.parse(text)


def test_reducer_keeps_no_search_state(diagram, generators):
    red = HeightReducer(diagram)
    before = dict(vars(red))
    cert = red.reduce(generators[2], [(4, generators[3])], max_perturb=0)
    assert cert is not None and cert.perturbation_count() == 0
    assert vars(red) == before


def test_corrupted_certificate_fails(diagram, generators):
    red = HeightReducer(diagram)
    cert = red.reduce(generators[2], (), max_perturb=0)
    bad = ReductionCertificate(cert.target, list(cert.steps), cert.terminal)
    k, eps = bad.steps[0][1], bad.steps[0][2]
    bad.steps[0] = ("node", (k + 1) % 26, eps)
    assert not check_certificate(bad, diagram, generators)


def test_empty_certificate_on_non_node_invalid(diagram, generators):
    cert = ReductionCertificate(generators[0], [], (0, "1"))
    assert not check_certificate(cert, diagram, generators)


@pytest.fixture(scope="module")
def sample_certs(diagram, generators):
    """g03 (no perturbation) and g34 (one perturbation), as ``reduce run``
    writes them."""
    red = HeightReducer(diagram)
    sources = [(j, generators[j - 1]) for j in (3, 4, 6)]
    certs = {
        3: red.reduce(generators[2], (), max_perturb=0),
        34: red.reduce(generators[33], sources, max_perturb=1),
    }
    assert certs[3].steps and certs[34].perturbation_count() == 1
    return certs


MUTANTS = settings(max_examples=25, deadline=None)
NAMED_UNITS = [unit_name(u) for u in UNITS]
NONZERO_EIS = st.builds(Eis, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)


@MUTANTS
@given(j=st.sampled_from((3, 34)), shift=st.one_of(
    st.tuples(st.integers(0, 25), st.integers(0, 5)).filter(any), st.none(),
    st.tuples(st.integers(0, 13), NONZERO_EIS)))
def test_mutated_certificate_fails_replay(sample_certs, diagram, generators, j, shift):
    """The terminal shifted to another of the 156 (node, unit) pairs,
    (shift None) the last step dropped, or (shift (i, delta)) target entry
    i moved by delta: the reducer tests for a node hit before every step,
    so the root it stepped from is no node multiple, and the replay of a
    moved target ends off the stated node multiple, or the target is no
    root of L at all."""
    cert = sample_certs[j]
    target, steps, terminal = list(cert.target), list(cert.steps), cert.terminal
    if shift is None:
        steps.pop()
    elif isinstance(shift[1], Eis):
        i, delta = shift
        target[i] = target[i] + delta
    else:
        k, u = terminal
        terminal = ((k + shift[0]) % 26,
                    NAMED_UNITS[(NAMED_UNITS.index(u) + shift[1]) % 6])
    assert check_certificate(ReductionCertificate(target, steps, terminal),
                             diagram, generators) is False


def _reference_check_certificate(cert, diagram, generators):
    """The replay as first written: one 14-coordinate ``reflect`` per step,
    and the height |<rho_hat, y>|^2 of the Z[zeta_12] pairing."""
    form = diagram.form
    rho_hat = diagram.rho_hat
    y = cert.target
    if not in_l_e8h(y) or form.ip(y, y) != Eis(-3, 0):
        return False
    last = form.ip12(rho_hat, y).abs_sq()
    for kind, k, eps_name in cert.steps:
        root = diagram.nodes[k].root if kind == "node" else generators[k - 1]
        y = reflect(root, EPS[eps_name], y, form)
        height = form.ip12(rho_hat, y).abs_sq()
        if kind == "node" and not height < last:
            return False
        last = height
    k, uname = cert.terminal
    return diagram.node_of(y) == (k, unit_from_name(uname))


@MUTANTS
@given(j=st.sampled_from((3, 34)), data=st.data(), change=st.sampled_from(
    (None, "eps", "node", "drop", "target")))
def test_replay_matches_the_reference(sample_certs, diagram, generators, j, data, change):
    """check_certificate on form rows gives the reference replay's verdict
    on the sample certificates and on mutants of them: one step's eps
    flipped, one node step's node swapped for another, one step dropped,
    or one target entry moved."""
    cert = sample_certs[j]
    target, steps = list(cert.target), list(cert.steps)
    if change == "target":
        i = data.draw(st.integers(0, 13))
        target[i] = target[i] + data.draw(NONZERO_EIS)
    elif change == "node":
        i = data.draw(st.sampled_from([i for i, s in enumerate(steps) if s[0] == "node"]))
        steps[i] = ("node", (steps[i][1] + data.draw(st.integers(1, 25))) % 26, steps[i][2])
    elif change is not None:
        i = data.draw(st.integers(0, len(steps) - 1))
        if change == "drop":
            del steps[i]
        else:
            kind, k, eps_name = steps[i]
            steps[i] = (kind, k, "wbar" if eps_name == "w" else "w")
    mutant = ReductionCertificate(target, steps, cert.terminal)
    want = _reference_check_certificate(mutant, diagram, generators)
    assert check_certificate(mutant, diagram, generators) is want
    assert want or change is not None


def test_replay_rejects_a_step_that_keeps_the_height(sample_certs, diagram, generators):
    """A node step in a root orthogonal to the current vector fixes it, so
    the height stays equal and the strict decrease fails the step.  The
    step goes in at the first such point of g03's replay."""
    cert = sample_certs[3]
    y = cert.target
    for i, (_, k, eps_name) in enumerate(cert.steps):
        y = reflect(diagram.nodes[k].root, EPS[eps_name], y, diagram.form)
        fixed = [n.index for n in diagram.nodes if not diagram.form.ip(n.root, y)]
        if fixed:
            break
    steps = cert.steps[:i + 1] + [("node", fixed[0], "w")] + cert.steps[i + 1:]
    stalled = ReductionCertificate(cert.target, steps, cert.terminal)
    assert _reference_check_certificate(stalled, diagram, generators) is False
    assert check_certificate(stalled, diagram, generators) is False


@pytest.mark.parametrize("named", (True, False), ids=("named_node", "other_node"))
def test_replay_rejects_a_node_root_of_wrong_norm(sample_certs, diagram, generators, named):
    """A diagram with a node root of norm -12 fails the replay with False,
    not an exception, whether or not a step names that node: every node
    norm is checked once, before the replay."""
    cert = sample_certs[3]
    used = {s[1] for s in cert.steps if s[0] == "node"}
    k = min(used) if named else min(set(range(26)) - used)
    bad = copy.copy(diagram)
    bad.nodes = list(diagram.nodes)
    n = diagram.nodes[k]
    bad.nodes[k] = DiagramNode(k, n.name, n.kind, tuple(2 * x for x in n.root), n.triple)
    assert check_certificate(cert, bad, generators) is False


def test_replay_rejects_a_perturbation_by_a_non_root(sample_certs, diagram, generators):
    """A perturb step naming a generator of norm -12 fails with False."""
    cert = sample_certs[34]
    j = next(s[1] for s in cert.steps if s[0] == "perturb")
    gens = list(generators)
    gens[j - 1] = tuple(2 * x for x in gens[j - 1])
    assert check_certificate(cert, diagram, gens) is False


@MUTANTS
@given(j=st.sampled_from((3, 34)), i=st.integers(0, 13), delta=NONZERO_EIS)
def test_mutated_target_fails_reduce_check(sample_certs, j, i, delta):
    from eleech.cli import main

    cert = sample_certs[j]
    target = list(cert.target)
    target[i] = target[i] + delta
    name = f"g{j:02d}.cert"
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, name).write_text(
            ReductionCertificate(target, cert.steps, cert.terminal).serialize())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["reduce", "check", tmp]) == 1
    assert f"bad: {name}\n" in out.getvalue()


def test_conway_reduce_trivial():
    steps, y = conway_reduce(R1)
    assert steps == [] and y == R1


def test_conway_reduce_rejects_a_vector_orthogonal_to_rho():
    """Middle coordinate 0 means <v, rho> = 0: a ValueError, before any
    deeper code runs.  No root of L has it (Leech has no norm -3 vector),
    so the inputs are rho itself and a Leech vector of norm -6."""
    lam = (Eis(3, 0), Eis(-3, 0)) + (ZERO,) * 10
    assert leech_contains(lam) is not None and leech_ip(lam, lam) == Eis(-6, 0)
    for v in (RHO_NULL, lam + (ZERO, ONE)):
        with pytest.raises(ValueError, match="input is orthogonal to rho"):
            conway_reduce(v)


#: sha256 of the 25 formatted (steps, y) of test_conway_reduce_random_words
CONWAY_WORDS_SHA256 = "11668a3f80f2c9b5fc506fe39584fc19c6ee6961ddbd7db41449ac83a6615615"


def test_conway_reduce_random_words(diagram, chg):
    """Each step lowers h^2 and the replay ends at y; the roots, eps and
    end points are pinned by a digest.  20 of the 380 steps round a
    half-integer shift, so a change of tie rule shows here."""
    random.seed(11)
    digest = hashlib.sha256()
    for _ in range(25):
        v = chg.to_e8h(R1)
        for _ in range(5):
            node = diagram.nodes[random.randrange(26)]
            eps = OMEGA if random.random() < 0.5 else OMEGA2
            v = reflect(node.root, eps, v, FORM_E8H)
        mu = chg.to_leech_h(v)
        steps, y = conway_reduce(mu)
        assert h_value_sq(y) == 1
        z = mu
        last = h_value_sq(z)
        for r, en in steps:
            z = reflect(r, EPS[en], z, FORM_LEECH_H)
            h2 = h_value_sq(z)
            assert h2 < last
            last = h2
        assert z == y
        line = ";".join(f"{format_vector(r)} {en}" for r, en in steps)
        digest.update(f"{line} -> {format_vector(y)}\n".encode())
    assert digest.hexdigest() == CONWAY_WORDS_SHA256


def test_conway_reduce_thousand_random_roots(diagram, chg):
    """Termination within the proof's bound on 10^3 randomized roots."""
    random.seed(13)
    total = 0
    for _ in range(1000):
        v = chg.to_e8h(R1)
        for _ in range(4):
            node = diagram.nodes[random.randrange(26)]
            eps = OMEGA if random.random() < 0.5 else OMEGA2
            v = reflect(node.root, eps, v, FORM_E8H)
        mu = chg.to_leech_h(v)
        h0 = h_value_sq(mu)
        steps, y = conway_reduce(mu, max_steps=h0 + 2)
        assert h_value_sq(y) == 1
        total += len(steps)
    assert total > 0


def _reference_conway_reduce(mu, max_steps=200):
    """conway_reduce as first written: y, the numerators and the root in
    Eis, and each step through ``reflect``."""
    cvp = LeechCVP()
    steps = []
    y = tuple(mu)
    for _ in range(max_steps):
        h2 = h_value_sq(y)
        if h2 == 1:
            return steps, y
        if h2 == 0:
            raise ValueError("h = 0: input is orthogonal to rho; not a valid start")
        al = y[12].conj()
        num = tuple(x * al for x in y[:12])
        lam = _find_within(cvp, num, h2)
        if lam is None:
            raise RuntimeError("covering-radius bound violated; axiom falsified")
        r, eps_name = _reference_conway_root(y, num, h2, lam)
        y2 = reflect(r, EPS[eps_name], y, FORM_LEECH_H)
        if not h_value_sq(y2) < h2:
            raise RuntimeError("a Conway step did not decrease h; the proof's bound failed")
        steps.append((r, eps_name))
        y = y2
    raise RuntimeError("conway_reduce exceeded max_steps")


def _reference_conway_root(y, num, n, lam):
    nb = y[13] * y[12].conj()
    beta2 = 1 if leech_ip(lam, lam).a % 2 == 0 else 0
    p = THETA * sum((x.conj() * v for x, v in zip(lam, num)), ZERO)
    base54 = 9 * (2 * nb.a - nb.b) - 9 * n * beta2 - (2 * p.a - p.b)
    k = round_half_even(base54, 18 * n)
    eps_name = "wbar" if base54 - 18 * n * k <= 0 else "w"
    return psi_root(lam, beta2 + 2 * k), eps_name


def test_conway_reduce_matches_the_eis_reference(diagram, chg):
    """The int step gives the Eis reference's roots, eps names and end
    point on the first 100 roots of test_conway_reduce_thousand_random_roots,
    and every returned entry is an Eis (Eis(3, 0) == 3 with equal hashes,
    so equality alone would pass on a leaked int).  A start with h = 0
    raises the reference's error."""
    rng = random.Random(13)
    for _ in range(100):
        v = chg.to_e8h(R1)
        for _ in range(4):
            node = diagram.nodes[rng.randrange(26)]
            eps = OMEGA if rng.random() < 0.5 else OMEGA2
            v = reflect(node.root, eps, v, FORM_E8H)
        mu = chg.to_leech_h(v)
        got = conway_reduce(mu, max_steps=h_value_sq(mu) + 2)
        assert got == _reference_conway_reduce(mu, max_steps=h_value_sq(mu) + 2)
        steps, y = got
        assert all(type(x) is Eis for r, _ in steps for x in r)
        assert all(type(x) is Eis for x in y) and len(y) == 14
    errors = []
    for reduce in (conway_reduce, _reference_conway_reduce):
        with pytest.raises(ValueError) as err:
            reduce(RHO_NULL)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def _packed_options(na, nb, den):
    cost, _, res, *_ = _coset_options(na, nb, den)
    return (cost << 5) + res


def test_nearest_matches_the_coset_options():
    """_nearest packs fields 0 and 2 of _coset_options: on every (na, nb)
    in [-12, 12]^2 for den 1 to 3, where exact cost ties are dense, and on
    10^4 seeded points with large numerators."""
    points = [(na, nb, den) for den in (1, 2, 3)
              for na in range(-12, 13) for nb in range(-12, 13)]
    rng = random.Random(31)
    for _ in range(10_000):
        den = rng.randint(1, 10 ** rng.randint(1, 9))
        span = 3 * den * rng.randint(1, 10 ** 4)
        points.append((rng.randint(-span, span), rng.randint(-span, span), den))
    for na, nb, den in points:
        assert _nearest(na, nb, den) == _packed_options(na, nb, den)


def _near_half(den):
    """Numerators at or next to the half steps of 3*den, where the
    rounding and the box costs tie."""
    return st.tuples(st.integers(-60, 60), st.integers(-2, 2)).map(
        lambda t: (t[0] * 3 * den) // 2 + t[1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 12).flatmap(lambda den: st.tuples(
    st.one_of(_near_half(den), st.integers(-10 ** 15, 10 ** 15)),
    st.one_of(_near_half(den), st.integers(-10 ** 15, 10 ** 15)),
    st.just(den))))
def test_nearest_matches_the_coset_options_up_to_large_denominators(point):
    assert _nearest(*point) == _packed_options(*point)
    assert _coset_options(*point) == _reference_coset_options(*point)


def test_cvp_within_covering_bound():
    random.seed(17)
    cvp = LeechCVP()
    zb = load_z_basis()
    for _ in range(20):
        num = [Eis(random.randint(-60, 60), random.randint(-60, 60)) for _ in range(12)]
        lam = _find_within(cvp, num, 7)
        assert lam is not None
        assert leech_contains(lam) is not None
        # coordinate distance: sum |num_i/7 - lam_i|^2 <= 9 (lattice norm >= -3)
        assert sum((x - 7 * y).norm() for x, y in zip(num, lam)) <= 9 * 49


def _reference_find_within(words, num, den, bound):
    """The coset scan as first written: the rounding options rebuilt per
    (m, coordinate, digit) as Eis triples, and a repair found by scanning
    each coordinate's sorted options per word."""
    ti = [(x.a, x.b) for x in num]
    limit = 9 * bound * den * den
    best = None
    best_total = None
    for m in (0, 1, -1):
        cost = []
        for a, b in ti:
            percoord = {}
            for d in (-1, 0, 1):
                base = Eis(m, 0) + THETA * Eis(d, 0)
                percoord[d] = _round_options_scaled(a - den * base.a, b - den * base.b, den)
            cost.append(percoord)
        for c in words:
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


def test_cvp_matches_reference_scan():
    """find_within on its per-digit int tables returns the lattice vector
    (or None) of the reference scan on 320 seeded points, denominators 1
    to 91 and numerator spans 3 to 500; the points put the winner in every
    family m = 0, 1, -1 and call for both residue repairs.  40 more points
    over denominators 1 to 3 repeat one to three numerators across their
    coordinates, so that equal repair costs tie between coordinates of
    one block, where the first coordinate must win."""
    rng = random.Random(19)
    cvp = LeechCVP()
    words = golay12().words()
    families = set()
    points = []
    for _ in range(320):
        den, span = rng.randint(1, 91), rng.randint(3, 500)
        points.append(([Eis(rng.randint(-span, span), rng.randint(-span, span))
                        for _ in range(12)], den))
    for _ in range(40):
        pool = [Eis(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))]
        points.append(([rng.choice(pool) for _ in range(12)], rng.randint(1, 3)))
    for num, den in points:
        lam = _find_within(cvp, num, den)
        assert lam == _reference_find_within(words, num, den, COVERING_BOUND)
        if lam is not None:
            families.add(leech_contains(lam)[0])
    assert families == {0, 1, -1}


def test_cvp_matches_reference_scan_at_large_denominators():
    """find_within on big ints: 30 seeded points with denominators 10^6 to
    10^12 and numerators up to 30 times the denominator, so the packed
    (cost << 5) + residue entries run past 2^80, give the reference scan's
    vector.  The winners fall in every family m = 0, 1, -1, and some need
    the repair of residue shift 1, some of shift 2."""
    rng = random.Random(29)
    cvp = LeechCVP()
    words = golay12().words()
    families, shifts = set(), set()
    for _ in range(30):
        den = rng.randint(10 ** 6, 10 ** rng.randint(6, 12))
        span = rng.randint(1, 30) * den
        num = [Eis(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(12)]
        lam = _find_within(cvp, num, den)
        assert lam == _reference_find_within(words, num, den, COVERING_BOUND)
        m, c, z = leech_contains(lam)
        families.add(m)
        for x, d, zi in zip(num, c, z):
            cost, near, res, *_ = _coset_options(x.a - den * (m + d), x.b - 2 * den * d, den)
            if (zi.a, zi.b) != near:
                shifts.add((zi.a + zi.b - res) % 3)
    assert families == {0, 1, -1}
    assert shifts == {1, 2}


def _reference_coset_options(na, nb, den):
    """The nearest z and its two residue repairs read off the sorted box:
    (cost, z, residue, (extra cost, z) per shift 1 and 2)."""
    opts = _round_options_scaled(na, nb, den)
    cost, z, res = opts[0]
    repairs = [next((c - cost, (zz.a, zz.b)) for c, zz, r in opts[1:] if (r - res) % 3 == s)
               for s in (1, 2)]
    return (cost, (z.a, z.b), res, *repairs)


def test_coset_options_match_sorted_box():
    """The one-pass box walk keeps the sorted box's choices: every (na, nb)
    in [-12, 12]^2 for den 1 to 3, where exact cost ties are dense, and
    10^4 seeded points with large numerators."""
    points = [(na, nb, den) for den in (1, 2, 3)
              for na in range(-12, 13) for nb in range(-12, 13)]
    rng = random.Random(23)
    for _ in range(10_000):
        den = rng.randint(1, 300)
        span = 3 * den * rng.randint(1, 200)
        points.append((rng.randint(-span, span), rng.randint(-span, span), den))
    for na, nb, den in points:
        assert _coset_options(na, nb, den) == _reference_coset_options(na, nb, den)


def test_word_blocks_decode_to_the_golay_words():
    """The cached block indices of each word give back its 12 digits, word
    for word in the order of golay12().words()."""
    def digits(i):
        return tuple((i // 3 ** (3 - j)) % 3 - 1 for j in range(4))

    decoded = [sum((digits(i) for i in idx), ()) for idx in _word_blocks()]
    assert decoded == list(golay12().words())
    assert len(decoded) == 729


def _reference_expand_positions(diagram, points, s, big_units, small_units):
    """Place the pairing values 3u (big) and theta*u (small) on distinct
    points, reconstruct r = sum -t_i x_i / 3 + s w_P / 3 and keep the
    lattice roots of height 1 or less.  3r is accumulated in Z[w]; r is
    integral exactly when every component of 3r is divisible by 3."""
    out = []
    s_wp = [s * y for y in diagram.w_p]
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
            if diagram.height_sq(r) <= NODE_HEIGHT_SQ:
                out.append(canonical_root(r))
    return out


def test_expand_positions_matches_the_eis_reference(diagram, monkeypatch):
    """The flat-int walk returns the Eis reference's list, in its order,
    on every case of min_height_scan that passes the height prescreen."""
    walk = reduction._expand_positions
    cases = []

    def record(*args):
        cases.append(args)
        return walk(*args)

    monkeypatch.setattr(reduction, "_expand_positions", record)
    reduction.min_height_scan(diagram)
    assert len(cases) == 39
    found = 0
    for args in cases:
        got = walk(*args)
        assert got == _reference_expand_positions(*args)
        found += len(got)
    assert found == 91


def test_reduction_has_no_float():
    """The Conway reduction stays in ints: no float and no infinity
    sentinel in the module."""
    source = inspect.getsource(reduction)
    assert "float" not in source
    assert "math.inf" not in source
