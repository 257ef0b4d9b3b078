"""Exact scalar arithmetic: Z[w], Z[zeta_12] and Z[sqrt 3].

Conventions
-----------
* ``Eis(a, b)`` is a + b*w with w = exp(2*pi*i/3), reduced by w^2 = -1 - w.
* ``theta = w - conj(w) = 1 + 2w`` satisfies theta^2 = -3, conj(theta) = -theta.
* ``Cyclo12(c0, c1, c2, c3)`` is c0 + c1*z + c2*z^2 + c3*z^3 with z a primitive
  12th root of unity, reduced by z^4 = z^2 - 1 (the 12th cyclotomic polynomial).
* ``SqrtThree(p, q)`` is p + q*sqrt(3) with int p, q and an exact total
  order (sign decided by sign analysis and squaring, never by floating point).

Everything is immutable and hashable; no floating point anywhere.
"""

from __future__ import annotations

import operator
from functools import total_ordering


class Eis:
    """Eisenstein integer a + b*w with int components.

    The package computes in Z[w] only: a point of Q(w) is held as a Z[w]
    numerator over a positive int denominator by its user."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, *_):
        raise AttributeError("Eis is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the value from its ints, not by setattr
        return Eis, (self.a, self.b)

    def __repr__(self):
        return f"Eis({self.a}, {self.b})"

    def __str__(self):
        return f"{self.a},{self.b}"

    def __hash__(self):
        # equal values hash equally: Eis(a, 0) == a
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __eq__(self, other):
        if isinstance(other, Eis):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Eis(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Eis(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Eis(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + bw)(c + dw) = ac - bd + (ad + bc - bd) w  using w^2 = -1 - w;
        # the reference for linalg._dot, which restates it on flat ints
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return Eis(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Eis":
        return power(self, n, ONE)

    def conj(self) -> "Eis":
        # conj(a + bw) = (a - b) - bw
        return Eis(self.a - self.b, -self.b)

    def norm(self):
        """x * conj(x) = a^2 - ab + b^2 >= 0; linalg.flat_norm restates it
        on flat ints."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divides(self, x: "Eis") -> bool:
        """True iff x / self lies in Z[w].  self must be nonzero."""
        if not self:
            raise ZeroDivisionError("zero divisor in Eis.divides")
        n = self.norm()
        t = x * self.conj()
        return t.a % n == 0 and t.b % n == 0

    def exact_div(self, d: "Eis") -> "Eis":
        """x / d, raising ValueError when the quotient is not integral."""
        if not d:
            raise ZeroDivisionError
        return (self * d.conj()).divide_exact_int(d.norm())

    def divide_exact_int(self, n: int) -> "Eis":
        """x / n for an int n, raising ValueError unless both components divide."""
        qa, ra = divmod(self.a, n)
        qb, rb = divmod(self.b, n)
        if ra or rb:
            raise ValueError(f"{self} not divisible by {n}")
        return Eis(qa, qb)

    def __divmod__(self, d: "Eis"):
        """Euclidean division: q, r with x = q*d + r and norm(r) < norm(d).

        Rounding each Q(w)-coordinate to the nearest integer gives
        norm(r/d) <= 3/4 < 1, so Z[w] is norm-Euclidean.
        """
        if not d:
            raise ZeroDivisionError
        n = d.norm()
        t = self * d.conj()
        q = Eis(_round_div(t.a, n), _round_div(t.b, n))
        return q, self - q * d

    def mod_theta(self) -> int:
        """Image in Z[w]/theta = F_3 as an int in {0, 1, 2}; w maps to 1."""
        return (self.a + self.b) % 3

    def key(self):
        """Total-order key: by norm, then a, then b."""
        return (self.norm(), self.a, self.b)


# construction stores through the slot descriptors, past the raising __setattr__
_set_a, _set_b = Eis.a.__set__, Eis.b.__set__


def power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square and multiply with the product mul; the unit
    one is x^0, never a factor.  A negative n raises ValueError."""
    if n < 0:
        raise ValueError("negative power; invert explicitly")
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if out is None else out


def _coerce(x):
    if isinstance(x, Eis):
        return x
    if isinstance(x, int):
        return Eis(x, 0)
    return None


def _round_div(a, n):
    """Nearest integer to a/n (n > 0), ties toward +infinity."""
    return (2 * a + n) // (2 * n)


def round_half_even(p: int, q: int) -> int:
    """Nearest integer to p/q (q nonzero, either sign), ties to even, as
    Python's round() takes the rational p/q."""
    if q < 0:
        p, q = -p, -q
    k, r = divmod(p, q)
    if 2 * r > q or (2 * r == q and k % 2):
        k += 1
    return k


ZERO = Eis(0, 0)
ONE = Eis(1, 0)
OMEGA = Eis(0, 1)
OMEGA2 = Eis(-1, -1)
THETA = Eis(1, 2)  # w - conj(w) = sqrt(-3)

#: The unit group of Z[w]: +-1, +-w, +-w^2 (six elements).
UNITS = (ONE, OMEGA, OMEGA2, -ONE, -OMEGA, -OMEGA2)

_UNIT_NAMES = {ONE: "1", -ONE: "-1", OMEGA: "w", -OMEGA: "-w",
               OMEGA2: "w2", -OMEGA2: "-w2"}
_NAME_UNITS = {v: k for k, v in _UNIT_NAMES.items()}


def unit_name(u: Eis) -> str:
    return _UNIT_NAMES[u]


def unit_from_name(s: str) -> Eis:
    return _NAME_UNITS[s]


def eis_gcd(x: Eis, y: Eis):
    """(g, s, t): a gcd g of x and y in the Euclidean domain Z[w] (well
    defined up to units) and Bezout coefficients with g = s*x + t*y."""
    s, t, s1, t1 = ONE, ZERO, ZERO, ONE
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s, t, s1, t1 = s1, t1, s - q * s1, t - q * t1
    return x, s, t


class Cyclo12:
    """Element of Z[zeta_12] in the basis 1, z, z^2, z^3 with z^4 = z^2 - 1."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        _set_c(self, (c0, c1, c2, c3))

    def __setattr__(self, *_):
        raise AttributeError("Cyclo12 is immutable")

    def __reduce__(self):
        return Cyclo12, self.c

    def __repr__(self):
        return f"Cyclo12{self.c}"

    def __hash__(self):
        # equal values hash equally: an element of Z[w] hashes as its Eis
        c0, c1, c2, c3 = self.c
        return hash(self.c) if c1 or c3 else hash(Eis(c0 + c2, c2))

    def __eq__(self, other):
        other = _coerce12(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __bool__(self):
        return any(self.c)

    def __add__(self, other):
        other = _coerce12(other)
        if other is None:
            return NotImplemented
        return Cyclo12(*(x + y for x, y in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce12(other)
        if other is None:
            return NotImplemented
        return Cyclo12(*(x - y for x, y in zip(self.c, other.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclo12(*(-x for x in self.c))

    def __mul__(self, other):
        other = _coerce12(other)
        if other is None:
            return NotImplemented
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        # convolution up to degree 6
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a0 * b2 + a1 * b1 + a2 * b0
        d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        d4 = a1 * b3 + a2 * b2 + a3 * b1
        d5 = a2 * b3 + a3 * b2
        d6 = a3 * b3
        # z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1
        return Cyclo12(d0 - d4 - d6, d1 - d5, d2 + d4, d3 + d5)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclo12":
        return power(self, n, Cyclo12(1))

    def conj(self) -> "Cyclo12":
        # conj(z) = z - z^3, conj(z^2) = 1 - z^2, conj(z^3) = -z^3
        c0, c1, c2, c3 = self.c
        return Cyclo12(c0 + c2, c1, -c2, -c1 - c3)

    def divide_exact_int(self, n: int) -> "Cyclo12":
        """x / n for an int n, raising ValueError unless every component divides."""
        out = []
        for x in self.c:
            q, r = divmod(x, n)
            if r:
                raise ValueError(f"{self} not divisible by {n}")
            out.append(q)
        return Cyclo12(*out)

    @classmethod
    def from_eis(cls, x: Eis) -> "Cyclo12":
        # w = z^2 - 1
        return cls(x.a - x.b, 0, x.b, 0)

    def to_sqrt3(self) -> "SqrtThree":
        """Exact conversion for totally real elements (in Z[sqrt 3])."""
        c0, c1, c2, c3 = self.c
        if c2 != 0 or c1 != -2 * c3:
            raise ValueError(f"{self} is not in Z[sqrt 3]")
        return SqrtThree(c0, -c3)

    def abs_sq(self) -> "SqrtThree":
        """x * conj(x) as an exact element of Z[sqrt 3] (>= 0)."""
        return SqrtThree(*cyclo12_abs_sq(self.c))


_set_c = Cyclo12.c.__set__


def cyclo12_abs_sq(c):
    """(p, q) with x * conj(x) = p + q sqrt 3 for x with coefficients c.

    Expanded with z^4 = z^2 - 1, x * conj(x) = p + q (2 z - z^3), and
    2 z - z^3 = z + conj(z) = sqrt 3.
    """
    c0, c1, c2, c3 = c
    return (c0 * c0 + c0 * c2 + c1 * c1 + c1 * c3 + c2 * c2 + c3 * c3,
            c0 * c1 + c1 * c2 + c2 * c3)


def _coerce12(x):
    if isinstance(x, Cyclo12):
        return x
    if isinstance(x, Eis):
        return Cyclo12.from_eis(x)
    if isinstance(x, int):
        return Cyclo12(x)
    return None


XI = Cyclo12(0, 1, 0, -1)      # e^{-pi i/6} = zeta^{-1}
SQRT3_C = Cyclo12(0, 2, 0, -1)  # zeta + zeta^{-1}


@total_ordering
class SqrtThree:
    """p + q*sqrt(3) with int p, q; exactly ordered."""

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        _set_p(self, p)
        _set_q(self, q)

    def __setattr__(self, *_):
        raise AttributeError("SqrtThree is immutable")

    def __reduce__(self):
        return SqrtThree, (self.p, self.q)

    def __repr__(self):
        return f"SqrtThree({self.p}, {self.q})"

    def __hash__(self):
        # equal values hash equally: SqrtThree(p, 0) == p
        return hash((self.p, self.q)) if self.q else hash(self.p)

    def sign(self) -> int:
        return sqrt3_sign(self.p, self.q)

    def __eq__(self, other):
        other = _coerce_s3(other)
        if other is None:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __lt__(self, other):
        other = _coerce_s3(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __add__(self, other):
        other = _coerce_s3(other)
        if other is None:
            return NotImplemented
        return SqrtThree(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_s3(other)
        if other is None:
            return NotImplemented
        return SqrtThree(self.p - other.p, self.q - other.q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SqrtThree(-self.p, -self.q)

    def __mul__(self, other):
        other = _coerce_s3(other)
        if other is None:
            return NotImplemented
        return SqrtThree(self.p * other.p + 3 * self.q * other.q,
                         self.p * other.q + self.q * other.p)

    __rmul__ = __mul__


_set_p, _set_q = SqrtThree.p.__set__, SqrtThree.q.__set__


def sqrt3_sign(p, q) -> int:
    """The sign of p + q sqrt 3, exactly."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # opposite signs: compare p^2 with 3 q^2
    d = p * p - 3 * q * q
    big = 1 if d > 0 else (-1 if d < 0 else 0)
    return big if p > 0 else -big


def _coerce_s3(x):
    if isinstance(x, SqrtThree):
        return x
    if isinstance(x, int):
        return SqrtThree(x, 0)
    return None
