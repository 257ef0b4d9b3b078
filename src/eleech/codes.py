"""The ternary tetracode, the two Golay codes and the QR construction.

F_3 is represented by the signed digits {-1, 0, 1}, matching the signed
generator matrices the lattice constructions consume.  F_2 uses {0, 1}.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product


def _digit(x: int, p: int) -> int:
    """x mod p as a signed digit: {-1, 0, 1} for p = 3, {0, 1} for p = 2."""
    r = x % p
    return r - p if 2 * r > p else r


TETRACODE_GENS = (
    (1, 1, -1, 0),
    (0, 1, 1, 1),
)

GOLAY12_GENS = (
    (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 0, -1, 0, 1, -1, -1, 1),
    (0, 0, 1, 0, 0, 0, -1, 1, 0, 1, -1, -1),
    (0, 0, 0, 1, 0, 0, -1, -1, 1, 0, 1, -1),
    (0, 0, 0, 0, 1, 0, -1, -1, -1, 1, 0, 1),
    (0, 0, 0, 0, 0, 1, -1, 1, -1, -1, 1, 0),
)


class LinearCode:
    """A linear code over F_p (p = 2 or 3) given by a generator matrix."""

    def __init__(self, p: int, length: int, generators):
        self.p = p
        self.length = length
        self.generators = tuple(tuple(_digit(x, p) for x in g) for g in generators)
        for g in self.generators:
            if len(g) != length:
                raise ValueError("generator length mismatch")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @cached_property
    def _words(self):
        p = self.p
        out = []
        for coeffs in product(range(p), repeat=self.dimension):
            w = [0] * self.length
            for c, g in zip(coeffs, self.generators):
                if c:
                    for i, x in enumerate(g):
                        w[i] += c * x
            out.append(tuple(_digit(x, p) for x in w))
        return tuple(out)

    @cached_property
    def _wordset(self):
        return frozenset(self.words())

    def words(self):
        """All codewords, cached, in the scan order of coefficient tuples."""
        return self._words

    def __len__(self):
        return len(self.words())

    def __contains__(self, word) -> bool:
        return tuple(_digit(x, self.p) for x in word) in self._wordset

    def weight_enumerator(self) -> dict:
        """Map weight -> number of codewords of that weight."""
        we = {}
        for w in self.words():
            k = sum(1 for x in w if x)
            we[k] = we.get(k, 0) + 1
        return we

    def is_self_dual(self) -> bool:
        if 2 * self.dimension != self.length:
            return False
        return all(
            sum(a * b for a, b in zip(g, h)) % self.p == 0
            for g in self.generators
            for h in self.generators
        )


# the name perfbench/spans.py resolves the words and weights spans in
# (ROADMAP item 5); it goes with the next benchmark change
TernaryCode = LinearCode


@cache
def tetracode() -> LinearCode:
    return LinearCode(3, 4, TETRACODE_GENS)


@cache
def golay12() -> LinearCode:
    return LinearCode(3, 12, GOLAY12_GENS)


def _row_reduce(rows, p):
    """Row-reduce over F_p, returning a basis of the span."""
    basis = []
    pivots = []
    for row in rows:
        row = [x % p for x in row]
        for piv, b in zip(pivots, basis):
            if row[piv]:
                f = row[piv]  # b[piv] is 1 after scaling
                row = [(x - f * y) % p for x, y in zip(row, b)]
        nz = next((i for i, x in enumerate(row) if x), None)
        if nz is None:
            continue
        inv = pow(row[nz], -1, p)
        basis.append([(x * inv) % p for x in row])
        pivots.append(nz)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def qr_code(q: int):
    """Quadratic residue construction of the Golay codes.

    Coordinates are labelled infinity, 0, 1, ..., q-1.  N is the set of
    labels that are not squares in F_q (infinity included).  The base
    vector carries -1 on N and 1 elsewhere for q = 11 (ternary), and 1 on
    N, 0 elsewhere for q = 23 (binary).  Its cyclic shifts -- acting on
    the F_q block, fixing infinity -- span the extended code.
    """
    if q not in (11, 23):
        raise ValueError("qr_code supports q in {11, 23}")
    squares = {(x * x) % q for x in range(q)}
    nonsquare = [x for x in range(q) if x not in squares]
    if q == 11:
        base = [-1] + [(-1 if x in nonsquare else 1) for x in range(q)]
    else:
        base = [1] + [(1 if x in nonsquare else 0) for x in range(q)]
    shifts = []
    for s in range(q):
        row = [base[0]] + [base[1 + ((x - s) % q)] for x in range(q)]
        shifts.append(row)
    p = 3 if q == 11 else 2
    return LinearCode(p, q + 1, _row_reduce(shifts, p))
