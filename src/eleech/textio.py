"""The ``a,b`` text format for vectors and matrices over Z[w].

One row per line, whitespace-separated entries, each entry ``a,b`` for
a + w b; blank lines and ``#`` comments are skipped.  Negation replaces
any overline notation on input.
"""

from __future__ import annotations

from .rings import Eis


class InputError(ValueError):
    """A malformed input or data file."""


def parse_entry(tok: str) -> Eis:
    try:
        a, b = tok.split(",")
        return Eis(int(a), int(b))
    except ValueError:
        raise InputError(f"bad entry {tok!r}, expected a,b") from None


def parse_matrix(text: str, source: str, width: int, member=None):
    """The rows of the text, each of ``width`` entries and, when given a
    ``member`` predicate, each a vector it accepts.  An InputError names
    ``source`` and the line."""
    rows = []
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(parse_entry(t) for t in line.split()))
            if len(rows[-1]) != width:
                raise InputError(f"{len(rows[-1])} entries, expected {width}")
            if member is not None and not member(rows[-1]):
                raise InputError("not a lattice vector")
        except InputError as exc:
            raise InputError(f"{source}:{n}: {exc}") from None
    return tuple(rows)


def read_matrix(path, width: int):
    with open(path) as f:
        return parse_matrix(f.read(), path, width)


def format_vector(v) -> str:
    return " ".join(f"{x.a},{x.b}" for x in v)


def format_matrix(m) -> str:
    return "\n".join(format_vector(row) for row in m) + "\n"
