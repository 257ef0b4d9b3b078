import contextlib
import io
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import Eis, ONE, OMEGA, OMEGA2, THETA, ZERO, UNITS, SqrtThree, unit_name
from eleech.linalg import FORM_LEECH_H, FORM_E8H
from eleech.lattices import leech_ip, leech_contains, in_l_e8h
from eleech.reflections import reflect
from eleech.reduction import (
    R1, R2, RHO_NULL,
    Translation, minimal_zhalf, load_z_basis,
    HeightReducer, ReductionCertificate, check_certificate, certify_generators,
    conway_reduce, h_value_sq, LeechCVP, galois_norm_ht,
)

EPS = {"w": OMEGA, "wbar": OMEGA2}


def test_base_roots():
    assert FORM_LEECH_H.ip(R1, R1) == Eis(-3, 0)
    assert FORM_LEECH_H.ip(R2, R2) == Eis(-3, 0)
    assert FORM_LEECH_H.ip(R1, R2) == Eis(2, 0) * THETA * OMEGA


def test_z_basis_spans_over_z():
    """Real-form Gram of the pinned 24 vectors has determinant 1."""
    rows = load_z_basis()
    assert len(rows) == 24
    for row in rows:
        assert leech_contains(row) is not None

    def real_ip(u, v):
        s = ZERO
        for x, y in zip(u, v):
            s = s + x.conj() * y
        val = 2 * s.a - s.b
        assert val % 9 == 0
        return val // 9

    g = [[real_ip(u, v) for v in rows] for u in rows]
    det = _int_det([row[:] for row in g])
    assert det == 1
    assert all(g[i][i] % 2 == 0 for i in range(24))


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
    t = Translation((ZERO,) * 12, 0)
    assert t.apply(R1) == R1
    assert t.apply(RHO_NULL) == RHO_NULL


def test_translation_rejects_bad_parity():
    lam = load_z_basis()[0]  # norm -6, so alpha must be even
    with pytest.raises(ValueError):
        Translation(lam, Fraction(1, 2))


def test_translation_composition_law():
    random.seed(7)
    zb = load_z_basis()
    probe = tuple(zb[0]) + (ONE, Eis(2, -1))
    for _ in range(40):
        l1, l2 = zb[random.randrange(24)], zb[random.randrange(24)]
        t1 = Translation(l1, minimal_zhalf(leech_ip(l1, l1).a))
        t2 = Translation(l2, minimal_zhalf(leech_ip(l2, l2).a))
        t12 = t1.compose(t2)
        for w in (R1, R2, probe):
            assert t12.apply(w) == t1.apply(t2.apply(w))


def test_translation_fixes_rho_and_form():
    zb = load_z_basis()
    t = Translation(zb[3], minimal_zhalf(leech_ip(zb[3], zb[3]).a))
    assert t.apply(RHO_NULL) == RHO_NULL
    vs = (R1, R2, tuple(zb[5]) + (ONE, ZERO))
    for a in vs:
        for b in vs:
            assert FORM_LEECH_H.ip(t.apply(a), t.apply(b)) == FORM_LEECH_H.ip(a, b)


def test_translation_commutator_is_central_theta():
    zb = load_z_basis()
    target = -THETA * OMEGA
    pair = None
    for i in range(24):
        for j in range(24):
            for u in UNITS:
                cand = tuple(u * x for x in zb[j])
                if leech_ip(zb[i], cand) == target:
                    pair = (zb[i], cand)
                    break
            if pair:
                break
        if pair:
            break
    assert pair is not None
    l1, l2 = pair
    t1 = Translation(l1, minimal_zhalf(leech_ip(l1, l1).a))
    t2 = Translation(l2, minimal_zhalf(leech_ip(l2, l2).a))
    comm = t2.inverse().compose(t1.inverse()).compose(t2).compose(t1)
    assert all(not x for x in comm.lam)
    assert comm.zhalf == 1  # z = theta


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


def test_conway_reduce_random_words(diagram, chg):
    random.seed(11)
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


def test_cvp_within_covering_bound():
    random.seed(17)
    cvp = LeechCVP()
    zb = load_z_basis()
    for _ in range(20):
        t = [
            Eis(Fraction(random.randint(-60, 60), 7), Fraction(random.randint(-60, 60), 7))
            for _ in range(12)
        ]
        lam = cvp.find_within(t, bound=3)
        assert lam is not None
        assert leech_contains(lam) is not None
        # coordinate distance: sum |t_i - lam_i|^2 <= 9 (lattice norm >= -3)
        s = Fraction(0)
        for x, y in zip(t, lam):
            d = x - y
            s += Fraction(d.a) ** 2 - Fraction(d.a) * Fraction(d.b) + Fraction(d.b) ** 2
        assert s <= 9


def test_galois_norm_diagnostic(diagram):
    for n in diagram.nodes[:4]:
        assert galois_norm_ht(diagram, n.root) == 1
