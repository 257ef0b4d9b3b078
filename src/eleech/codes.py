"""The ternary tetracode, the two Golay codes and the QR construction.

F_3 is represented by the signed digits {-1, 0, 1}, matching the signed
generator matrices the lattice constructions consume.  F_2 uses {0, 1}.
"""

from __future__ import annotations

from itertools import product


def _sgn(x: int) -> int:
    """Normalize an integer mod 3 into {-1, 0, 1}."""
    r = x % 3
    return r - 3 if r == 2 else r


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


class TernaryCode:
    """A linear code over F_3 given by a generator matrix."""

    def __init__(self, length: int, generators):
        self.length = length
        self.generators = tuple(tuple(_sgn(x) for x in g) for g in generators)
        for g in self.generators:
            if len(g) != length:
                raise ValueError("generator length mismatch")
        self._words = None
        self._wordset = None

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def words(self):
        """All codewords, cached, in the scan order of coefficient tuples."""
        if self._words is None:
            out = []
            for coeffs in product((0, 1, -1), repeat=self.dimension):
                w = [0] * self.length
                for c, g in zip(coeffs, self.generators):
                    if c:
                        for i, x in enumerate(g):
                            w[i] += c * x
                out.append(tuple(_sgn(x) for x in w))
            self._words = tuple(out)
            self._wordset = frozenset(out)
        return self._words

    def __len__(self):
        return len(self.words())

    def __contains__(self, word) -> bool:
        if self._wordset is None:
            self.words()
        return tuple(_sgn(x) for x in word) in self._wordset

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
            sum(a * b for a, b in zip(g, h)) % 3 == 0
            for g in self.generators
            for h in self.generators
        )


class BinaryCode:
    """A linear code over F_2 given by a generator matrix."""

    def __init__(self, length: int, generators):
        self.length = length
        self.generators = tuple(tuple(x % 2 for x in g) for g in generators)

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def words(self):
        out = []
        for coeffs in product((0, 1), repeat=self.dimension):
            w = [0] * self.length
            for c, g in zip(coeffs, self.generators):
                if c:
                    for i, x in enumerate(g):
                        w[i] ^= x
            out.append(tuple(w))
        return tuple(out)

    def __len__(self):
        return 2 ** self.dimension

    def weight_enumerator(self) -> dict:
        we = {}
        for w in self.words():
            k = sum(w)
            we[k] = we.get(k, 0) + 1
        return we


def tetracode() -> TernaryCode:
    return TernaryCode(4, TETRACODE_GENS)


def golay12() -> TernaryCode:
    return TernaryCode(12, GOLAY12_GENS)


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
    if q == 11:
        return TernaryCode(12, _row_reduce(shifts, 3))
    return BinaryCode(24, _row_reduce(shifts, 2))
