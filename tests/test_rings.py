import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import eleech
from eleech.rings import (
    Eis, Cyclo12, SqrtThree,
    ONE, OMEGA, OMEGA2, THETA, UNITS, XI, SQRT3_C,
    eis_gcd, unit_name, unit_from_name, cyclo12_abs_sq, power, round_half_even, sqrt3_sign,
)

ZETA = Cyclo12(0, 1, 0, 0)     # e^{pi i/6}
I_C = Cyclo12(0, 0, 0, 1)      # zeta^3 = i


def test_unit_group_identities():
    assert OMEGA * OMEGA2 == ONE
    assert OMEGA ** 3 == ONE
    assert OMEGA2 == OMEGA * OMEGA
    assert len(set(UNITS)) == 6
    assert all(u.is_unit() for u in UNITS)


def test_theta_squared_is_minus_three():
    assert THETA == Eis(1, 2)
    assert THETA * THETA == Eis(-3, 0)
    assert THETA.conj() == -THETA


def test_norm_example():
    # norm(2 + w) = (2 + w)(1 - w) = 3
    x = Eis(2, 1)
    assert x.conj() == Eis(1, -1)
    assert x * x.conj() == Eis(3, 0)
    assert x.norm() == 3


def test_conj_involutive_automorphism():
    random.seed(2)
    for _ in range(300):
        x = Eis(random.randint(-40, 40), random.randint(-40, 40))
        y = Eis(random.randint(-40, 40), random.randint(-40, 40))
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.norm() * y.norm() == (x * y).norm()


def test_ring_axioms_random_triples():
    random.seed(3)
    for _ in range(200):
        a, b, c = (Eis(random.randint(-9, 9), random.randint(-9, 9)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_divides():
    assert THETA.divides(Eis(3, 0))           # 3 = -theta^2
    assert not THETA.divides(ONE)
    assert THETA.divides(THETA)
    with pytest.raises(ZeroDivisionError):
        Eis(0, 0).divides(ONE)


def test_euclidean_division():
    random.seed(4)
    for _ in range(500):
        x = Eis(random.randint(-99, 99), random.randint(-99, 99))
        d = Eis(random.randint(-9, 9), random.randint(-9, 9))
        if not d:
            continue
        q, r = divmod(x, d)
        assert q * d + r == x
        assert r.norm() < d.norm()


def test_gcd_divides_both():
    random.seed(5)
    for _ in range(100):
        x = Eis(random.randint(-30, 30), random.randint(-30, 30))
        y = Eis(random.randint(-30, 30), random.randint(-30, 30))
        if not x and not y:
            continue
        g, s, t = eis_gcd(x, y)
        assert g.divides(x) or not x
        assert g.divides(y) or not y
        assert g == s * x + t * y


def test_round_half_even_matches_fraction_round():
    """Ties go to the even neighbour, for either sign of q."""
    for p in range(-40, 41):
        for q in [*range(-12, 0), *range(1, 13)]:
            assert round_half_even(p, q) == round(Fraction(p, q))


def test_unit_names_roundtrip():
    for u in UNITS:
        assert unit_from_name(unit_name(u)) == u


def test_cyclo12_reduction_polynomial():
    # zeta^4 = zeta^2 - 1 pins all the identities
    assert ZETA ** 4 == ZETA * ZETA - Cyclo12(1)
    assert ZETA ** 12 == Cyclo12(1)
    assert ZETA ** 6 == Cyclo12(-1)


def test_xi_identities():
    assert XI * ZETA == Cyclo12(1)            # xi = zeta^{-1}
    assert XI * XI == Cyclo12.from_eis(-OMEGA)
    assert XI ** 12 == Cyclo12(1)
    assert SQRT3_C * SQRT3_C == Cyclo12(3)
    assert SQRT3_C * I_C == Cyclo12.from_eis(THETA)


def test_eisenstein_embedding_homomorphism():
    random.seed(6)
    assert Cyclo12.from_eis(OMEGA) == ZETA * ZETA - Cyclo12(1)
    for _ in range(200):
        x = Eis(random.randint(-20, 20), random.randint(-20, 20))
        y = Eis(random.randint(-20, 20), random.randint(-20, 20))
        assert Cyclo12.from_eis(x + y) == Cyclo12.from_eis(x) + Cyclo12.from_eis(y)
        assert Cyclo12.from_eis(x * y) == Cyclo12.from_eis(x) * Cyclo12.from_eis(y)
        assert Cyclo12.from_eis(x.conj()) == Cyclo12.from_eis(x).conj()


def test_cyclo12_conj_involution():
    random.seed(7)
    for _ in range(200):
        x = Cyclo12(*(random.randint(-9, 9) for _ in range(4)))
        y = Cyclo12(*(random.randint(-9, 9) for _ in range(4)))
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.abs_sq().sign() >= 0


def test_sqrt3_examples():
    assert SqrtThree(-3, 4).sign() > 0
    assert SqrtThree(2, 0) > SqrtThree(0, 1)
    x = SqrtThree(5, -7)
    assert not x < x and not x > x


def test_sqrt3_matches_float_on_clear_gaps():
    random.seed(8)
    for _ in range(10_000):
        s = SqrtThree(random.randint(-10 ** 6, 10 ** 6), random.randint(-10 ** 6, 10 ** 6))
        f = s.p + s.q * 3 ** 0.5
        if abs(f) > 1e-6:
            assert (s.sign() > 0) == (f > 0)


def test_cyclo12_abs_sq_is_the_product_with_the_conjugate():
    random.seed(12)
    for _ in range(2000):
        c = tuple(random.randint(-60, 60) for _ in range(4))
        x = Cyclo12(*c)
        assert SqrtThree(*cyclo12_abs_sq(c)) == (x * x.conj()).to_sqrt3()


def test_sqrt3_sign_on_ints_matches_float():
    """|p + q sqrt 3| >= 1 / |p - q sqrt 3| > 1/1000 here unless p = q = 0,
    so the float sign is exact."""
    random.seed(13)
    for _ in range(2000):
        p, q = random.randint(-200, 200), random.randint(-120, 120)
        f = p + q * 3 ** 0.5
        assert sqrt3_sign(p, q) == (f > 0) - (f < 0)
    assert sqrt3_sign(0, 0) == 0 and sqrt3_sign(-2, 1) == -1 and sqrt3_sign(2, -1) == 1


def test_sqrt3_field_operations():
    random.seed(9)
    for _ in range(200):
        a = SqrtThree(random.randint(-9, 9), random.randint(-9, 9))
        b = SqrtThree(random.randint(-9, 9), random.randint(-9, 9))
        assert a * b == b * a
        assert (a - b) + b == a


def test_power_matches_repeated_products():
    random.seed(15)
    for _ in range(50):
        x = Eis(random.randint(-5, 5), random.randint(-5, 5))
        c = Cyclo12(*(random.randint(-3, 3) for _ in range(4)))
        ex, ec = ONE, Cyclo12(1)
        for n in range(12):
            assert x ** n == ex and power(x, n, ONE) == ex
            assert c ** n == ec
            ex, ec = ex * x, ec * c
    assert XI ** 12 == 1 and XI ** 6 == -1
    assert power(3, 5, 1) == 243 and power(2, 0, 1) == 1


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (13, 5)])
def test_power_never_multiplies_by_one(n, products):
    """Square and multiply starts from the first power it multiplies in:
    x^n takes floor(log2 n) squarings and one product less than the set
    bits of n, and x^0 is the unit itself."""
    calls = []

    def mul(a, b):
        assert a != "one" and b != "one"
        calls.append((a, b))
        return a + b

    assert power(1, n, "one", mul) == (n if n else "one")
    assert len(calls) == products
    with pytest.raises(ValueError):
        power(1, -1, "one", mul)


def test_negative_powers_raise():
    with pytest.raises(ValueError):
        Eis(2, 1) ** -1
    with pytest.raises(ValueError):
        power(ONE, -2, ONE)


def test_cyclo12_negative_power_raises_not_hangs():
    """XI ** -1 must end in ValueError; run apart, so a loop that never
    ends fails on the timeout instead of stalling the suite."""
    code = ("from eleech.rings import XI\n"
            "try:\n    XI ** -1\nexcept ValueError:\n    print('ValueError')\n")
    src = str(Path(eleech.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=30)
    assert out.stdout == "ValueError\n"


def test_divide_exact_int():
    assert Eis(6, -4).divide_exact_int(2) == Eis(3, -2)
    assert Eis(-9, 3).divide_exact_int(-3) == Eis(3, -1)
    assert Cyclo12(4, -2, 0, 6).divide_exact_int(2) == Cyclo12(2, -1, 0, 3)
    for x in (Eis(6, 4), Eis(4, 6), Cyclo12(3, 3, 4, 3)):
        with pytest.raises(ValueError):
            x.divide_exact_int(3)
    assert Eis(5, 1).exact_div(Eis(2, 1)) == Eis(2, -1)  # (2 - w)(2 + w) = 5 + w
    with pytest.raises(ValueError):
        Eis(1, 0).exact_div(THETA)


INTS = st.integers(-10**6, 10**6)
FRACTIONS = st.fractions(max_denominator=9)


@given(a=INTS, b=INTS, c2=INTS, q=FRACTIONS)
def test_equal_values_hash_equally(a, b, c2, q):
    """x == y implies hash(x) == hash(y) across int, Eis, Cyclo12 and
    SqrtThree, so a set or dict that mixes them holds each value once;
    Fraction components still hash."""
    x = Eis(a, b)
    pairs = [
        (Eis(a, 0), a),
        (Cyclo12.from_eis(x), x),
        (Cyclo12(a, 0, c2, 0), Eis(a + c2, c2)),
        (SqrtThree(a, 0), a),
        (Eis(Fraction(a), 0), a),
        (SqrtThree(Fraction(a), 0), a),
    ]
    for u, v in pairs:
        assert u == v and hash(u) == hash(v)
    assert all(isinstance(hash(u), int) for u in (Eis(q, q), SqrtThree(q, q)))
    assert len({Eis(1, 0), Cyclo12(1), 1}) == 1


@given(a=INTS, b=INTS, c2=INTS, c3=INTS)
def test_copy_and_pickle_round_trip(a, b, c2, c3):
    """copy, deepcopy and a pickle round trip rebuild an equal value with an
    equal hash, and the value stays immutable."""
    for x in (Eis(a, b), Cyclo12(a, b, c2, c3), SqrtThree(a, b)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            with pytest.raises(AttributeError, match="immutable"):
                y.a = 0
