import hashlib
import random
from itertools import product
from operator import mul

from eleech.codes import golay12
from eleech.reduction import load_z_basis
from eleech.rings import Eis, ONE, OMEGA, THETA, UNITS, ZERO
from eleech.linalg import FORM_E8H, from_flat, negdef_ip, to_flat
from eleech.lattices import (
    leech_contains, e8_contains, leech_ip,
    shell_e8, first_shell_by_coset_search,
    flat_norm6, re_row, im_row,
    leech_basis, e8_basis,
    lattice_lambda, lattice_e8, lattice_h, lattice_leech_h, lattice_3e8_h,
)

Z12 = (ZERO,) * 12


def vec12(**kw):
    v = list(Z12)
    for k, x in kw.items():
        v[int(k[1:])] = x
    return tuple(v)


def test_leech_contains_zero():
    w = leech_contains(to_flat(Z12))
    assert w == (0, (0,) * 12, (0,) * 24)


def test_leech_contains_3_minus3():
    v = vec12(i0=Eis(3, 0), i1=Eis(-3, 0))
    w = leech_contains(to_flat(v))
    assert w is not None and w[0] == 0
    assert leech_ip(v, v) == Eis(-6, 0)


def test_leech_rejects_3e1():
    assert leech_contains(to_flat(vec12(i0=Eis(3, 0)))) is None


def test_leech_witness_reconstructs():
    random.seed(0)
    basis = leech_basis()
    for _ in range(50):
        v = Z12
        for row in basis:
            c = Eis(random.randint(-2, 2), random.randint(-2, 2))
            v = tuple(x + c * y for x, y in zip(v, row))
        m, c, z = leech_contains(to_flat(v))
        rebuilt = tuple(
            Eis(m, 0) + THETA * Eis(ci, 0) + Eis(3, 0) * zi for ci, zi in zip(c, from_flat(z))
        )
        assert rebuilt == v


def _leech_definition(v):
    """(m, c, z) for an Eis vector straight from v = m 1 + theta c + 3 z in
    Eis arithmetic: m the common residue of the entries mod theta, c_i the
    residue of (v_i - m) / theta, z_i = (v_i - m - theta c_i) / 3; None
    unless every entry has residue m, c is a Golay word, every z_i is
    integral and sum(z) = m mod theta."""
    digit = (0, 1, -1)
    res = {x.mod_theta() for x in v}
    if len(res) != 1:
        return None
    m = Eis(digit[res.pop()])
    c = tuple(digit[(x - m).exact_div(THETA).mod_theta()] for x in v)
    if c not in golay12():
        return None
    z = [x - m - THETA * Eis(d) for x, d in zip(v, c)]
    if any(t.a % 3 or t.b % 3 for t in z):
        return None
    z = [Eis(t.a // 3, t.b // 3) for t in z]
    if sum(z, ZERO).mod_theta() != m.a % 3:
        return None
    return m.a, c, tuple(z)


def test_flat_leech_contains_follows_the_definition(shell):
    """On every 97th first-shell vector and the 24 z-basis rows, the flat
    witness is the one the definition gives; and near misses are no Leech
    vectors by either: one int moved by 1 (the entry's residue changes),
    3 added to one entry (the z-sum residue changes) and theta added to
    one entry (c is no Golay word)."""
    vectors = [from_flat(f) for f in shell[::97]] + list(load_z_basis())
    e = [(ZERO,) * i + (ONE,) + (ZERO,) * (11 - i) for i in range(12)]
    for n, v in enumerate(vectors):
        m, c, z = leech_contains(to_flat(v))
        assert (m, c, from_flat(z)) == _leech_definition(v)
        i = n % 12
        moved = list(to_flat(v))
        moved[2 * i + 1] += 1
        wrong_residue = tuple(x + 3 * y for x, y in zip(v, e[i]))
        not_golay = tuple(x + THETA * y for x, y in zip(v, e[i]))
        for bad in (from_flat(moved), wrong_residue, not_golay):
            assert leech_contains(to_flat(bad)) is None
            assert _leech_definition(bad) is None
    assert len(vectors) == 2027 + 24


def test_e8_membership_examples():
    assert e8_contains(to_flat((THETA, ZERO, ZERO, ZERO)))
    assert e8_contains(to_flat((ONE, ONE, Eis(-1, 0), ZERO)))  # tetracode generator lift
    assert not e8_contains(to_flat((ONE, ZERO, ZERO, ZERO)))


def test_e8_shell_240():
    assert len(shell_e8()) == 240


def test_e8_shell_no_norm_one():
    # minimal norm is -3: nothing of coordinate norm sum 1 or 2 in E8
    cands = [Eis(0, 0)] + [u for u in (ONE, OMEGA, -ONE, -OMEGA, Eis(-1, -1), Eis(1, 1))]
    found = [
        v for v in product(cands, repeat=4)
        if sum(x.norm() for x in v) in (1, 2) and e8_contains(to_flat(v))
    ]
    assert found == []


def test_leech_shell_vs_small_box_oracle(shell):
    """Naive box search on 2-coordinate supports agrees with the shell."""
    shell_set = set(shell)
    norms_le_18 = [
        Eis(a, b)
        for a in range(-5, 6)
        for b in range(-5, 6)
        if Eis(a, b).norm() <= 18
    ]
    for i, j in ((0, 1), (3, 7), (10, 11)):
        brute = set()
        for x in norms_le_18:
            for y in norms_le_18:
                v = list(Z12)
                v[i], v[j] = x, y
                v = tuple(v)
                if leech_contains(to_flat(v)) is not None and leech_ip(v, v) == Eis(-6, 0):
                    brute.add(to_flat(v))
        from_shell = {
            f for f in shell_set
            if all(f[2 * k] == 0 and f[2 * k + 1] == 0 for k in range(12) if k not in (i, j))
        }
        assert brute == from_shell


def test_leech_shell_count_and_methods_agree(shell):
    assert len(shell) == 196560
    assert len(set(shell)) == 196560
    assert set(shell) == first_shell_by_coset_search()


def test_shell_members_all_contained(shell):
    random.seed(1)
    for f in random.sample(shell, 2000):
        assert flat_norm6(f)
        assert leech_contains(f) is not None


def _reference_flat_norm6(flat):
    s = 0
    for i in range(12):
        a, b = flat[2 * i], flat[2 * i + 1]
        s += a * a - a * b + b * b
    return s == 18


def test_flat_norm6_matches_the_coordinate_loop(shell):
    """On the whole shell, and on seeded off-shell flats: random small ones
    and shell vectors with one int coordinate moved by 1."""
    assert all(map(_reference_flat_norm6, shell)) and all(map(flat_norm6, shell))
    rng = random.Random(23)
    off = [tuple(rng.randint(-r, r) for _ in range(24)) for r in (1, 2, 3) for _ in range(2000)]
    for f in rng.sample(shell, 2000):
        g = list(f)
        g[rng.randrange(24)] += rng.choice((-1, 1))
        off.append(tuple(g))
    want = [_reference_flat_norm6(f) for f in off]
    assert 0 < sum(want) < len(off)
    assert [flat_norm6(f) for f in off] == want


def test_pairing_rows_read_the_hermitian_sum():
    """For s = sum conj(u_i) v_i: re_row(u) . v = 2 Re s = 2 s.a - s.b and
    im_row(u) . v = (2/sqrt 3) Im s = s.b, on seeded vectors."""
    rng = random.Random(5)
    for _ in range(500):
        u, v = ([rng.randint(-9, 9) for _ in range(24)] for _ in range(2))
        s = -negdef_ip(from_flat(u), from_flat(v))
        assert sum(map(mul, re_row(u), v)) == 2 * s.a - s.b
        assert sum(map(mul, im_row(u), v)) == s.b


def test_discriminants():
    assert lattice_lambda().discriminant() == 729        # 3^6
    assert lattice_e8().discriminant() == 9
    assert lattice_h().discriminant() == 3
    assert lattice_leech_h().discriminant() == 2187      # 3^7
    assert lattice_3e8_h().discriminant() == 2187


def test_basis_rows_in_lattices():
    for row in leech_basis():
        assert leech_contains(to_flat(row)) is not None
    for row in e8_basis():
        assert e8_contains(to_flat(row))


def test_theta_divides_all_inner_products():
    random.seed(2)
    L = lattice_leech_h()
    for _ in range(10_000):
        u = L.basis[random.randrange(14)]
        v = L.basis[random.randrange(14)]
        assert THETA.divides(L.ip(u, v))


def test_real_form_even_norms():
    random.seed(3)
    L = lattice_leech_h()
    for _ in range(1000):
        v = (ZERO,) * 14
        for row in random.sample(L.basis, 4):
            c = Eis(random.randint(-2, 2), random.randint(-2, 2))
            v = tuple(x + c * y for x, y in zip(v, row))
        n = L.ip(v, v)
        assert n.b == 0 and n.a % 3 == 0
        # real norm (2/3) * n is an even integer
        assert (2 * n.a // 3) % 2 == 0


def test_lambda_sampled_norms_at_most_minus_6():
    random.seed(4)
    basis = leech_basis()
    for _ in range(500):
        v = Z12
        for row in basis:
            c = Eis(random.randint(-1, 1), random.randint(-1, 1))
            v = tuple(x + c * y for x, y in zip(v, row))
        if any(v):
            assert leech_ip(v, v).a <= -6


def test_h_cell_form():
    e, f = lattice_h().basis
    assert FORM_E8H.ip(e, f) == -THETA
    r1 = tuple(x + Eis(-1, -1) * y for x, y in zip(e, f))
    assert FORM_E8H.ip(r1, r1) == Eis(-3, 0)


#: sha256 of repr(first_shell_by_shapes()), the list in its emitted order
SHAPES_SHELL_SHA256 = "748e167486b72f5a1d53ffb1ee40d2faed964563d8553014eab6c39571ae28f4"


def test_shell_by_shapes_order_pinned(shell):
    """The shape families emit the 196560 vectors in one fixed order."""
    assert hashlib.sha256(repr(shell).encode()).hexdigest() == SHAPES_SHELL_SHA256


def _entries(flat):
    return list(zip(flat[::2], flat[1::2]))


def test_shape_families_emit_in_blocks(shell):
    """The shapes list is one block per family, in order: c = 0 (two
    nonzero coordinates, each 3 times a unit), the weight-6 words (six) and
    m = 1, -1 (twelve, each = m mod theta)."""
    sizes, start = (1188, 64152, 65610, 65610), 0
    blocks = []
    for size in sizes:
        blocks.append(shell[start:start + size])
        start += size
    assert start == len(shell)
    for block, support in zip(blocks, (2, 6, 12, 12)):
        assert {sum(e != (0, 0) for e in _entries(f)) for f in block} == {support}
    three_units = {(3 * u.a, 3 * u.b) for u in UNITS}
    assert {e for f in blocks[0] for e in _entries(f)} - {(0, 0)} <= three_units
    for m, block in zip((1, -1), blocks[2:]):
        assert {Eis(*e).mod_theta() for e in {e for f in block for e in _entries(f)}} == {m % 3}
