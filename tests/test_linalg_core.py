"""Property tests of the exact elimination core in ``eleech.linalg``.

Random Z[w] matrices up to 6x6 plus the shipped E1/E2 column matrices;
determinants are cross-checked against the Leibniz formula, which shares
no code with the elimination.
"""

import importlib
import inspect
import pkgutil
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import eleech
from eleech import linalg, rings
from eleech.diagram import PRESENTATION_PAIR
from eleech.isomorphism import (
    M666_ORDER, load_e1, load_e1prime, e2_matrix, m666_from_e1prime, m666_reference,
)
from eleech.lattices import lattice_3e8_h, lattice_leech_h
from eleech.lattices import flat_norm6
from eleech.linalg import (
    FORM_E8H, FORM_LEECH_H, AutMatrix, _conj, _dot, _eliminate, _exact,
    aut_from_images, charpoly, flat_gram, flat_norm, from_flat, gram_of, kernel, mat_det,
    mat_identity,
    mat_inverse, mat_mul, mat_scalar, spanning_basis, to_flat, vec_add, vec_scale,
)
from eleech.relations import INFINITE, SPIDER, GroupWord, hand_swap, matrix_order
from eleech.rings import Cyclo12, Eis, OMEGA, OMEGA2, ONE, THETA, ZERO
from eleech.reflections import _add_scaled, _shift, word_matrix

SETTINGS = settings(max_examples=60, deadline=None)

eis = st.builds(Eis, st.integers(-4, 4), st.integers(-4, 4))
#: entries that are zero about half the time
sparse = st.one_of(st.just(ZERO), eis)


def matrices(min_rows=1, max_rows=6, min_cols=1, max_cols=6, entries=eis):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(min_cols, max_cols).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m).map(tuple),
                min_size=n, max_size=n,
            ).map(tuple)
        )
    )


def square(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: matrices(n, n, n, n)
    )


def _sign(perm):
    sign = 1
    seen = set()
    for i in range(len(perm)):
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _rows(m):
    """The flat int rows of an Eis matrix."""
    return [to_flat(row) for row in m]


def _inverse(m):
    """``mat_inverse`` of an Eis matrix, read back as an Eis adj and d."""
    adj, d = mat_inverse(_rows(m))
    return tuple(map(from_flat, adj)), Eis(*d)


def leibniz_det(m):
    total = ZERO
    for perm in permutations(range(len(m))):
        term = Eis(_sign(perm), 0)
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


@SETTINGS
@given(square(5))
def test_det_matches_leibniz(m):
    assert mat_det(m) == leibniz_det(m)


@SETTINGS
@given(square())
def test_charpoly_is_monic_annihilating_with_det_constant(m):
    n = len(m)
    p = charpoly(_rows(m))
    assert len(p) == n + 1 and p[n] == ONE
    # p(m) = 0, by Horner's scheme on matrices
    acc = mat_scalar(n, p[n])
    for c in reversed(p[:n]):
        acc = tuple(
            tuple(x + (c if i == j else ZERO) for j, x in enumerate(row))
            for i, row in enumerate(mat_mul(acc, m))
        )
    assert acc == mat_scalar(n, ZERO)
    assert p[0] == (-1) ** n * mat_det(m)


@SETTINGS
@given(square())
def test_inverse_times_matrix_is_identity(m):
    if not mat_det(m):
        with pytest.raises(ValueError):
            mat_inverse(_rows(m))
        return
    adj, d = _inverse(m)
    assert mat_mul(adj, m) == mat_scalar(len(m), d)
    assert mat_mul(m, adj) == mat_scalar(len(m), d)


@SETTINGS
@given(square())
def test_full_rank_exactly_when_det_nonzero(m):
    full = len(_eliminate(_rows(zip(*m)))[1]) == len(m)
    assert full == bool(mat_det(m))


@SETTINGS
@given(matrices())
def test_kernel_annihilates_and_has_nullity_dimension(rows):
    ker = kernel(rows)
    pivots = _eliminate(_rows(rows))[1]
    free = [c for c in range(len(rows[0])) if c not in pivots]
    assert len(ker) == len(free) == len(rows[0]) - len(pivots)
    for t in ker:
        assert not any(_reference_mat_vec(rows, t))
    # one free coordinate the last pivot d and the other free coordinates 0
    d = Eis(*_eliminate(_rows(rows))[2])
    assert [[t[c] for c in free] for t in ker] == [list(e) for e in mat_scalar(len(free), d)]


@SETTINGS
@given(matrices())
def test_independent_picks_the_first_basis(rows):
    picked = _eliminate(_rows(zip(*rows)))[1]
    for i in range(len(rows)):
        before = [j for j in picked if j < i]
        grows = len(_eliminate(_rows(zip(*[rows[j] for j in before], rows[i])))[1]) > len(before)
        assert (i in picked) == grows


@pytest.mark.parametrize("which", ["E1", "E2"])
def test_shipped_column_matrices(diagram, which):
    rows = load_e1() if which == "E1" else e2_matrix(diagram)
    m = tuple(zip(*rows))
    assert mat_det(m)
    adj, d = _inverse(m)
    assert mat_mul(m, adj) == mat_scalar(14, d)
    assert _eliminate(_rows(zip(*m)))[1] == list(range(14))
    assert kernel(m) == []


def test_over_clears_theta_and_rejects_other_primes():
    three = Eis(3, 0)
    a = AutMatrix.over(_rows([[ONE, ZERO], [ZERO, three]]), (3, 0))
    assert a.k == 2 and a.mat == ((Eis(-1, 0), ZERO), (ZERO, Eis(-3, 0)))
    assert AutMatrix.over(_rows([[THETA]]), (3, 0)) == AutMatrix(_rows([[-ONE]]), 1)
    with pytest.raises(ValueError):
        AutMatrix.over(_rows([[ONE]]), (2, 0))
    e = mat_identity(3)
    with pytest.raises(ValueError):
        aut_from_images([tuple(2 * x for x in v) for v in e], e)
    # (1/theta) I has a real-form charpoly with non-integral coefficients
    assert matrix_order(AutMatrix(_rows(mat_identity(14)), 1)) == INFINITE


@pytest.mark.parametrize("n", [12, 15])
def test_apply_checks_the_length_of_its_input(n):
    """A vector with too few coordinates is not read as padded with zeros,
    and one with too many does not fail on an index: both raise ValueError."""
    with pytest.raises(ValueError, match="expects 14 coordinates"):
        AutMatrix.identity().apply((ONE,) * n)


def test_over_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        AutMatrix.over(_rows([[ONE, ZERO], [ZERO, THETA]]), (0, 0))


# ---------------------------------------------------------------------------
# the theta clearing and the spanning basis against the loops they replace


def _reference_reduce(mat, k):
    """Lowest terms of mat / theta^k, one factor of theta per pass."""
    while k > 0 and all(THETA.divides(x) for row in mat for x in row):
        mat = tuple(tuple(x.exact_div(THETA) for x in row) for row in mat)
        k -= 1
    return mat, k


def _reference_over(mat, d):
    """mat / d as (mat, k), stripping theta from d one factor at a time."""
    e = 0
    while THETA.divides(d):
        d = d.exact_div(THETA)
        e += 1
    try:
        mat = tuple(tuple(x.exact_div(d) for x in row) for row in mat)
    except ValueError:
        raise ValueError("matrix is not theta-integral; not a lattice map") from None
    return _reference_reduce(mat, e)


def _reference_spanning_basis(vectors):
    """The first spanning vectors by one elimination, then the inverse of
    their column matrix by a second elimination of [m | I]."""
    picked = _eliminate(_rows(zip(*vectors)))[1]
    if len(picked) != len(vectors[0]):
        raise ValueError("vectors do not span the coordinate space")
    m = tuple(zip(*(vectors[i] for i in picked)))
    n = len(m)
    a, _, d, _ = _eliminate(_rows(row + e for row, e in zip(m, mat_identity(n))), n)
    return picked, (tuple(tuple(row[2 * n:]) for row in a), d)


def _times(mat, s):
    return tuple(tuple(s * x for x in row) for row in mat)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=4, max_cols=4, entries=sparse), st.integers(0, 5), st.integers(0, 7),
       st.integers(0, 7).map(lambda i: i == 0))
def test_reduce_matches_the_theta_loop(m, j, k, blank):
    """Random Z[w] matrices times theta^j (zero entries included, and the
    all-zero matrix when blank) over theta^k, k = 0 included."""
    mat = _times(m, ZERO if blank else THETA ** j)
    a = AutMatrix(_rows(mat), k)
    assert (a.mat, a.k) == _reference_reduce(mat, k)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=4, max_cols=4, entries=sparse), st.integers(0, 4), st.integers(0, 5),
       st.sampled_from([ONE, OMEGA, -OMEGA2, Eis(2, 0), Eis(3, 1), Eis(-1, 3)]),
       st.booleans())
def test_over_matches_the_theta_loop(m, j, e, p, divisible):
    """d = theta^e p with p a unit or prime to theta, so d has a factor of
    3 or not; the entries carry p (the division is exact) or not."""
    d = THETA ** e * p
    mat = _times(m, THETA ** j * (p if divisible else ONE))
    try:
        want = _reference_over(mat, d)
    except ValueError:
        with pytest.raises(ValueError):
            AutMatrix.over(_rows(mat), (d.a, d.b))
        return
    a = AutMatrix.over(_rows(mat), (d.a, d.b))
    assert (a.mat, a.k) == want


@st.composite
def spanning_sets(draw):
    """n to n + 4 vectors in n coordinates, some of them Z[w] combinations
    of earlier ones, so that dependent vectors sit among the spanning ones."""
    n = draw(st.integers(1, 5))
    vectors = []
    for _ in range(draw(st.integers(n, n + 4))):
        if vectors and draw(st.booleans()):
            cs = draw(st.lists(eis, min_size=len(vectors), max_size=len(vectors)))
            vectors.append(tuple(sum((c * v[i] for c, v in zip(cs, vectors)), ZERO)
                                 for i in range(n)))
        else:
            vectors.append(tuple(draw(st.lists(sparse, min_size=n, max_size=n))))
    return vectors


@settings(max_examples=200, deadline=None)
@given(spanning_sets())
def test_spanning_basis_matches_two_eliminations(vectors):
    try:
        want = _reference_spanning_basis(vectors)
    except ValueError:
        with pytest.raises(ValueError):
            spanning_basis(_rows(vectors))
        return
    assert spanning_basis(_rows(vectors)) == want


@pytest.mark.parametrize("module", [
    eleech,
    *(importlib.import_module(f"eleech.{m.name}") for m in pkgutil.iter_modules(eleech.__path__)),
    rings.Eis, rings._coerce, rings._coerce12,
], ids=lambda m: m.__name__)
def test_lattice_maps_stay_in_z_w(module):
    """Lattice maps, the Conway reduction and the search are built from
    Z[w] data over one int or Z[w] denominator, Eis holds int components
    and SqrtThree int components: no rational entries anywhere in the
    package."""
    source = inspect.getsource(module)
    for word in ("Fraction", "frac_div", "integral(", "zhalf"):
        assert word not in source


@SETTINGS
@given(st.sampled_from([(FORM_E8H, lattice_3e8_h), (FORM_LEECH_H, lattice_leech_h)]),
       st.lists(eis, min_size=28, max_size=28))
def test_gram_codes_the_form(form_and_lattice, coeffs):
    """conj(u)^T gram v == den <u, v> on lattice vectors u, v."""
    form, lattice = form_and_lattice
    basis = lattice().basis
    u, v = (tuple(sum((c * b[i] for c, b in zip(cs, basis)), ZERO) for i in range(14))
            for cs in (coeffs[:14], coeffs[14:]))
    lhs = sum((x.conj() * y for x, y in zip(u, _reference_mat_vec(form.gram, v))), ZERO)
    assert lhs == form.den * form.ip(u, v)


cyclo12 = st.builds(Cyclo12, *(st.integers(-4, 4),) * 4)


def _lattice_vector(lattice, coeffs):
    return tuple(sum((c * b[i] for c, b in zip(coeffs, lattice().basis)), ZERO)
                 for i in range(14))


def _lift(v):
    return tuple(Cyclo12.from_eis(x) for x in v)


@SETTINGS
@given(st.sampled_from([(FORM_E8H, lattice_3e8_h), (FORM_LEECH_H, lattice_leech_h)]),
       st.lists(eis, min_size=28, max_size=28), cyclo12, cyclo12)
def test_pairing_is_ring_generic(form_and_lattice, coeffs, a, b):
    """Lifting to Z[zeta_12] commutes with the pairing, and the pairing is
    conjugate linear in u and linear in v over Z[zeta_12]."""
    form, lattice = form_and_lattice
    u, v = _lattice_vector(lattice, coeffs[:14]), _lattice_vector(lattice, coeffs[14:])
    want = Cyclo12.from_eis(form.ip(u, v))
    assert form.ip(_lift(u), _lift(v)) == want
    assert form.ip(vec_scale(a, u), vec_scale(b, v)) == a.conj() * b * want


@SETTINGS
@given(st.sampled_from(["reflection", "sigma", "fwd"]),
       st.lists(eis, min_size=14, max_size=14), cyclo12)
def test_image_map_is_ring_generic(diagram, chg, which, coeffs, a):
    """Lifting to Z[zeta_12] commutes with AutMatrix.apply, and apply is
    linear over Z[zeta_12]: on a node reflection (k = 0), sigma (k = 1)
    and the change of basis to 3E8+H (k = 3)."""
    aut, lattice = {
        "reflection": (word_matrix([(diagram.nodes[5].root, OMEGA)], FORM_E8H), lattice_3e8_h),
        "sigma": (diagram.sigma(), lattice_3e8_h),
        "fwd": (chg.fwd, lattice_leech_h),
    }[which]
    assert aut.k == {"reflection": 0, "sigma": 1, "fwd": 3}[which]
    v = _lattice_vector(lattice, coeffs)
    image = aut.apply(v)
    assert aut.apply(_lift(v)) == _lift(image)
    assert aut.apply(vec_scale(a, v)) == vec_scale(a, image)


@SETTINGS
@given(st.integers(0, 25), st.sampled_from([OMEGA, OMEGA2]))
def test_inverse_round_trips_on_reflections(diagram, idx, mu):
    m = word_matrix([(diagram.nodes[idx].root, mu)], diagram.form)
    inv = m.inverse()
    assert inv @ m == AutMatrix.identity(14)
    assert m @ inv == AutMatrix.identity(14)
    assert inv == m @ m  # w-reflections have order 3


def _det_f3(g):
    return sum(
        _sign(p) * g[0][p[0]] * g[1][p[1]] * g[2][p[2]] for p in permutations(range(3))
    ) % 3


invertible_f3 = st.lists(st.integers(0, 2), min_size=9, max_size=9).map(
    lambda f: (tuple(f[0:3]), tuple(f[3:6]), tuple(f[6:9]))
).filter(lambda g: _det_f3(g) != 0)


@settings(max_examples=12, deadline=None)
@given(invertible_f3)
def test_inverse_round_trips_on_g_action(diagram, g):
    a = diagram.g_action(g)
    assert a.inverse() @ a == AutMatrix.identity(14)


def test_inverse_round_trips_on_sigma(diagram):
    s = diagram.sigma()
    assert s.inverse() @ s == AutMatrix.identity(14)
    assert s.inverse() == s ** 11


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 25), st.integers(0, 25), st.booleans())
def test_image_builder_rejects_swapped_images(diagram, i, j, use_sigma):
    assume(i != j)
    base = diagram.sigma() if use_sigma else AutMatrix.identity(14)
    images = [base.apply(r) for r in diagram.roots]
    assert aut_from_images(diagram.roots, images, diagram.root_basis) == base
    images[i], images[j] = images[j], images[i]
    with pytest.raises(ValueError):
        aut_from_images(diagram.roots, images, diagram.root_basis)


def test_preserves_form_across_forms(chg):
    assert chg.fwd.preserves_form(FORM_LEECH_H, FORM_E8H)
    assert chg.back.preserves_form(FORM_E8H, FORM_LEECH_H)
    assert not chg.fwd.preserves_form(FORM_E8H, FORM_LEECH_H)
    assert not AutMatrix.identity(14).preserves_form(FORM_LEECH_H, FORM_E8H)


def test_preserves_form_sees_the_whole_map(diagram):
    """E2 with row 13 moved by w row 12 is still a basis of 3E8+H; the map
    from E1 onto it agrees with C on every pairing among E1's first five
    rows, and only the whole-map check tells it is no isometry."""
    e1, e2 = load_e1(), list(e2_matrix(diagram))
    e2[13] = vec_add(e2[13], vec_scale(OMEGA, e2[12]))
    m = aut_from_images(e1, e2)
    assert all(FORM_E8H.ip(m.apply(u), m.apply(v)) == FORM_LEECH_H.ip(u, v)
               for u in e1[:5] for v in e1[:5])
    assert not m.preserves_form(FORM_LEECH_H, FORM_E8H)


def test_image_builder_names_a_failed_check_whatever_the_theta_power(chg):
    """A source off the lattice whose image mat s is not divisible by
    theta^k (k = 3 for C) gets the builder's own message, as a wrong image
    of a lattice vector does, and not a failed division."""
    e1 = list(load_e1())
    e2 = [chg.fwd.apply(v) for v in e1]
    assert chg.fwd.k == 3
    # theta^3 divides x exactly when 27 divides N(x)
    off = next(e for e in mat_identity(14)
               if any(x.norm() % 27 for x in _reference_mat_vec(chg.fwd.mat, e)))
    for extra in (off, e1[0]):
        with pytest.raises(ValueError, match="images are not those of one lattice map"):
            aut_from_images(e1 + [extra], e2 + [e2[1]])
    assert aut_from_images(e1 + [e1[0]], e2 + [e2[0]]) == chg.fwd


class _CountingForm:
    """A form whose pairings are counted."""

    def __init__(self, form):
        self.form, self.calls = form, 0

    def ip(self, u, v):
        self.calls += 1
        return self.form.ip(u, v)


def test_gram_of_matches_the_double_loop(diagram):
    """Pairing each unordered pair of rows once, and conjugating below the
    diagonal, gives the Gram matrix of every ordered pair on E1, E2, the
    26 diagram roots and M666 in both coordinate systems."""
    cases = [(load_e1(), FORM_LEECH_H), (e2_matrix(diagram), FORM_E8H),
             (diagram.roots, FORM_E8H), (m666_from_e1prime(load_e1prime()), FORM_LEECH_H),
             (m666_reference(diagram), FORM_E8H)]
    for rows, form in cases:
        counting = _CountingForm(form)
        assert gram_of(rows, counting) == tuple(tuple(form.ip(u, v) for v in rows) for u in rows)
        assert counting.calls == len(rows) * (len(rows) + 1) // 2
    assert [len(rows) for rows, _ in cases] == [14, 14, 26, 16, 16]


def test_flat_gram_matches_gram_of(diagram):
    """``flat_gram`` reads each entry off a form row on flat ints; it is
    ``gram_of``'s matrix, flattened, on E1, E2, the diagram roots and
    M666, and a vector with a non-integral pairing raises ValueError."""
    cases = [(load_e1(), FORM_LEECH_H), (e2_matrix(diagram), FORM_E8H),
             (diagram.roots, FORM_E8H), (m666_from_e1prime(load_e1prime()), FORM_LEECH_H)]
    for rows, form in cases:
        assert flat_gram([to_flat(v) for v in rows], form) == tuple(map(to_flat, gram_of(rows, form)))
    e = to_flat((ONE,) + (ZERO,) * 13)  # <e, e> = -1/3 in the Leech+H form
    with pytest.raises(ValueError):
        flat_gram([e], FORM_LEECH_H)


@pytest.mark.parametrize("form", (FORM_E8H, FORM_LEECH_H), ids=lambda f: f.name)
def test_theta_inverse_inverts_the_gram(form):
    """gram theta_inverse = theta den I: theta_inverse is theta (gram / den)^-1."""
    got = linalg._mul(map(to_flat, form.gram), linalg._columns(form.theta_inverse))
    assert got == [to_flat(row) for row in mat_scalar(14, THETA * form.den)]


@SETTINGS
@given(st.sampled_from([(FORM_E8H, FORM_E8H), (FORM_LEECH_H, FORM_LEECH_H),
                        (FORM_LEECH_H, FORM_E8H), (FORM_E8H, FORM_LEECH_H)]),
       st.lists(eis, min_size=196, max_size=196), st.integers(0, 3))
def test_adjoint_is_the_adjoint(forms, entries, k):
    """<M u, v>_target = <u, M^+ v>_form for M = mat / theta^k with any
    Z[w] entries and all basis vectors u, v: the adjoint of
    ``AutMatrix.adjoint`` is that of the two forms, isometry or not."""
    form, target = forms
    m = AutMatrix([to_flat(entries[14 * i:14 * i + 14]) for i in range(14)], k)
    adj = m.adjoint(form, target)
    # 81 e_i = theta^8 e_i: every image below is integral
    basis = [tuple(Eis(81) if i == j else ZERO for j in range(14)) for i in range(14)]
    for u in basis:
        mu = m.apply(u)
        for v in basis:
            assert target.ip(mu, v) == form.ip(u, adj.apply(v))


# ---------------------------------------------------------------------------
# the int pair kernels against the Eis loops they replace


def _reference_mat_vec(m, v):
    return tuple(sum((a * x for a, x in zip(row, v) if a and x), start=ZERO) for row in m)


def _reference_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), start=ZERO) for col in bt)
        for row in a
    )


def _reference_eliminate(rows, width=None):
    """Bareiss's elimination with one Eis per product and division."""
    a = [list(row) for row in rows]
    n = len(a)
    width = len(a[0]) if width is None else width
    pivots = []
    prev = ONE
    sign = 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        for i in range(n):
            row = a[i]
            f = row[c]
            if i == r or (not f and p == prev):
                continue
            for j, x in enumerate(row):
                y = prow[j]
                if f and y:
                    x = p * x - f * y
                elif x:
                    x = p * x
                else:
                    continue
                row[j] = x.exact_div(prev) if prev != ONE else x
        prev = p
        pivots.append(c)
    return a, pivots, prev, sign


def _eliminate_eis(rows, width=None):
    """``_eliminate`` of an Eis matrix, its rows and d read back as Eis."""
    a, pivots, d, sign = _eliminate(_rows(rows), width)
    return [list(from_flat(row)) for row in a], pivots, Eis(*d), sign


def _reference_apply(aut, v):
    """The image of v by mat / theta^k, the division by theta^k done as a
    product with (-theta)^k and an exact division by 3^k, entry by entry."""
    w = _reference_mat_vec(aut.mat, v)
    s, n = (-THETA) ** aut.k, 3 ** aut.k
    return tuple((x * s).divide_exact_int(n) for x in w)


def _agree(new, old, *args):
    """new(*args) == old(*args), or both raise the same exception type."""
    try:
        want = old(*args)
    except Exception as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return
    assert new(*args) == want


#: the sparse entries above, and entries up to 10^12 in size
wide = st.one_of(sparse, st.builds(Eis, *(st.integers(-10 ** 12, 10 ** 12),) * 2))
wide12 = st.builds(Cyclo12, *(st.integers(-10 ** 12, 10 ** 12),) * 4)


@st.composite
def oracle_matrices(draw, rows=None, cols=None):
    """Up to 5 x 6 matrices of wide entries, any shape, some rows Z[w]
    combinations of earlier ones, so that many are rank deficient."""
    n = rows or draw(st.integers(1, 5))
    m = cols or draw(st.integers(1, 6))
    out = []
    for _ in range(n):
        if out and draw(st.booleans()):
            cs = draw(st.lists(eis, min_size=len(out), max_size=len(out)))
            out.append(tuple(sum((c * r[j] for c, r in zip(cs, out)), ZERO) for j in range(m)))
        else:
            out.append(tuple(draw(st.lists(wide, min_size=m, max_size=m))))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(oracle_matrices(), st.data())
def test_eliminate_matches_the_eis_loop(rows, data):
    """Any shape and rank, with all columns or a width below their count."""
    width = data.draw(st.one_of(st.none(), st.integers(0, len(rows[0]))))
    _agree(_eliminate_eis, _reference_eliminate, rows, width)


@settings(max_examples=200, deadline=None)
@given(oracle_matrices(), st.integers(1, 6), st.data())
def test_mat_mul_matches_the_eis_loop(a, cols, data):
    b = data.draw(oracle_matrices(rows=len(a[0]), cols=cols))
    _agree(mat_mul, _reference_mat_mul, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: oracle_matrices(rows=n, cols=n)),
       st.integers(0, 3), st.integers(0, 3), st.booleans(), st.data())
def test_apply_matches_the_eis_loop(m, k, j, twelve, data):
    """A Z[w] or Z[zeta_12] vector times theta^j through mat / theta^k:
    the division is exact when j >= k, and may fail otherwise."""
    v = data.draw(st.lists(wide12 if twelve else wide, min_size=len(m), max_size=len(m)))
    aut = AutMatrix(_rows(m), k)
    _agree(aut.apply, lambda v: _reference_apply(aut, v), vec_scale(THETA ** j, v))


def test_kernels_return_eis_entries(diagram, chg):
    """Eis(3, 0) == 3 with equal hashes, so the equality tests above would
    pass on an int or an int pair leaked from a kernel: the lattice maps
    and the vectors the kernels return hold Eis entries and nothing else,
    the flat adj and d of ``spanning_basis`` hold ints and nothing else,
    and rho_hat's image holds Cyclo12 entries."""
    roots = dict(zip(M666_ORDER, m666_from_e1prime(load_e1prime())))
    sigma = diagram.sigma()
    maps = [chg.fwd, chg.back, diagram.g_action(PRESENTATION_PAIR[0]), sigma,
            hand_swap(roots, "1", "2"), GroupWord(diagram, SPIDER).matrix(), sigma.inverse()]
    picked, (adj, d) = spanning_basis(_rows(diagram.roots))
    vectors = [*kernel(tuple(zip(*diagram.roots))),
               chg.to_e8h(load_e1()[0]), sigma.apply(diagram.roots[0])]
    assert all(type(x) is Eis for m in maps for row in m.mat for x in row)
    assert all(type(x) is Eis for v in vectors for x in v)
    assert all(type(x) is int for v in (*adj, d) for x in v)
    assert all(type(x) is Cyclo12 for x in chg.back.apply(diagram.rho_hat))


# ---------------------------------------------------------------------------
# the flat int kernels, and the inline copies of them, against Eis

#: Z[w] entries up to 10^12: zero, on either axis (a = 0 != b, b = 0 != a),
#: or anywhere
big = st.integers(-10 ** 12, 10 ** 12)
flat_entries = st.one_of(st.just(ZERO), st.builds(Eis, st.just(0), big),
                         st.builds(Eis, big, st.just(0)), st.builds(Eis, big, big))
flat_vectors = st.lists(flat_entries, max_size=8).map(tuple)


def _row_round_trip(data):
    v = data.draw(flat_vectors)
    assert to_flat(v) == tuple(c for x in v for c in (x.a, x.b))
    assert from_flat(to_flat(v)) == v and all(type(x) is Eis for x in from_flat(to_flat(v)))


def _row_sparse(data):
    v = data.draw(flat_vectors)
    assert linalg.sparse(to_flat(v)) == [(2 * i, x.a, x.b) for i, x in enumerate(v) if x]


def _row_dot(data):
    u = data.draw(flat_vectors)
    v = data.draw(st.lists(flat_entries, min_size=len(u), max_size=len(u)))
    s = sum((x * y for x, y in zip(u, v)), ZERO)
    assert _dot(linalg.sparse(to_flat(u)), to_flat(v)) == (s.a, s.b)


def _row_times_dividing(data):
    v, s, n = data.draw(flat_vectors), data.draw(flat_entries), data.draw(st.integers(1, 10 ** 6))
    assert linalg._times(to_flat(vec_scale(Eis(n), v)), (s.a, s.b), n) == list(to_flat(vec_scale(s, v)))


def _row_times(data):
    v, s, n = data.draw(flat_vectors), data.draw(flat_entries), data.draw(st.integers(2, 9))
    _agree(lambda: from_flat(linalg._times(to_flat(v), (s.a, s.b), n)),
           lambda: tuple((s * x).divide_exact_int(n) for x in v))


def _row_exact(data):
    v, n = data.draw(flat_vectors), data.draw(st.integers(1, 9))
    v = vec_scale(Eis(n), v) if data.draw(st.booleans()) else v
    _agree(lambda: from_flat(_exact(to_flat(v), n)),
           lambda: tuple(x.divide_exact_int(n) for x in v))


def _row_conj(data):
    v = data.draw(flat_vectors)
    assert _conj(to_flat(v)) == list(to_flat(x.conj() for x in v))


def _row_flat_norm(data):
    v = data.draw(flat_vectors)
    assert flat_norm(to_flat(v)) == sum(x.norm() for x in v)


def _row_flat_norm6(data):
    """Small vectors topped up with ones to norm 18, and one more."""
    v = data.draw(st.lists(eis, max_size=4).map(tuple))
    n = sum(x.norm() for x in v)
    for w in (v, v + (ONE,) * (18 - n), v + (ONE,) * (19 - n)):
        assert flat_norm6(to_flat(w)) == (sum(x.norm() for x in w) == 18)


def _row_shift(data):
    """s = (1 - eps) x / 3 for eps = w and wbar; x theta times an entry
    half the time, so both the division and its failure are met."""
    x, eps_name = data.draw(flat_entries), data.draw(st.sampled_from(["w", "wbar"]))
    x = THETA * x if data.draw(st.booleans()) else x
    eps = OMEGA if eps_name == "w" else OMEGA2
    _agree(lambda: Eis(*_shift(x.a, x.b, eps_name)), lambda: ((ONE - eps) * x).exact_div(Eis(3)))


def _row_add_scaled(data):
    y = data.draw(flat_vectors)
    x = data.draw(st.lists(flat_entries, min_size=len(y), max_size=len(y)))
    s = data.draw(flat_entries)
    flat = list(to_flat(y))
    _add_scaled(flat, linalg.sparse(to_flat(x)), s.a, s.b)
    assert flat == list(to_flat(vec_add(y, vec_scale(s, x))))


KERNEL_ROWS = {
    "to_flat/from_flat": _row_round_trip,
    "sparse": _row_sparse,
    "_dot": _row_dot,
    "_times dividing": _row_times_dividing,
    "_times": _row_times,
    "_exact": _row_exact,
    "_conj": _row_conj,
    "flat_norm": _row_flat_norm,
    "lattices.flat_norm6": _row_flat_norm6,
    "reflections._shift": _row_shift,
    "reflections._add_scaled": _row_add_scaled,
}


@pytest.mark.parametrize("row", KERNEL_ROWS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_flat_kernels_match_eis(row, data):
    """Each flat int kernel, and each inline copy of one, gives the Eis
    computation's value, or both raise the same exception type."""
    KERNEL_ROWS[row](data)
