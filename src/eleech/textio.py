"""The ``a,b`` text format for vectors and matrices over Z[w], and the
reading of input and shipped data files.

One row per line, whitespace-separated entries, each entry ``a,b`` for
a + w b; blank lines and ``#`` comments are skipped.  Negation replaces
any overline notation on input.
"""

from __future__ import annotations

import os
from importlib import resources

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
                raise InputError("not a vector of the expected lattice or shell")
        except InputError as exc:
            raise InputError(f"{source}:{n}: {exc}") from None
    return tuple(rows)


def read_text(path) -> str:
    """The text of a file; an InputError names the file when it is not text."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_matrix(path, width: int, member=None):
    return parse_matrix(read_text(path), path, width, member)


def data_text(name: str) -> str:
    """Contents of a shipped data file, honoring ELEECH_DATA_DIR."""
    override = os.environ.get("ELEECH_DATA_DIR")
    if override:
        path = os.path.join(override, name)
        if os.path.exists(path):
            return read_text(path)
    return resources.files("eleech.data").joinpath(name).read_text()


def format_vector(v) -> str:
    return " ".join(f"{x.a},{x.b}" for x in v)


def format_matrix(m) -> str:
    return "\n".join(format_vector(row) for row in m) + "\n"
