import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from eleech.rings import Eis, ONE, OMEGA, OMEGA2, THETA, XI, ZERO
from eleech.linalg import (
    mat_det, mat_inverse, mat_mul,
    AutMatrix, mat_scalar, charpoly, from_flat, to_flat, FORM_E8H, FORM_LEECH_H,
)
from eleech.reduction import load_z_basis

FORMS = (FORM_E8H, FORM_LEECH_H)


def _h(al, be):
    """The vector (0^12; al, be) of the hyperbolic cell."""
    return (ZERO,) * 12 + (al, be)


def test_hermitian_ip_h_cell():
    # conj-linear first argument: <(1,0),(0,1)> = conj(theta) = -theta
    for form in FORMS:
        assert form.ip(_h(ONE, ZERO), _h(ZERO, ONE)) == -THETA


def test_hermitian_ip_r1_norm():
    r1 = _h(ONE, OMEGA2)
    for form in FORMS:
        assert form.ip(r1, r1) == Eis(-3, 0)


def test_hermitian_ip_zero_vector():
    for form in FORMS:
        assert form.ip(_h(ONE, OMEGA), _h(ZERO, ZERO)) == ZERO


def test_hermitian_ip_conjugate_symmetry():
    random.seed(0)
    for _ in range(100):
        u = _h(*(Eis(random.randint(-5, 5), random.randint(-5, 5)) for _ in range(2)))
        v = _h(*(Eis(random.randint(-5, 5), random.randint(-5, 5)) for _ in range(2)))
        for form in FORMS:
            assert form.ip(u, v) == form.ip(v, u).conj()


def test_hermitian_ip_dimension_mismatch():
    for form in FORMS:
        with pytest.raises(ValueError):
            form.ip(_h(ONE, ZERO)[1:], _h(ONE, ZERO))


def test_mat_det_and_inverse():
    random.seed(1)
    for _ in range(30):
        m = tuple(
            tuple(Eis(random.randint(-3, 3), random.randint(-3, 3)) for _ in range(4))
            for _ in range(4)
        )
        d = mat_det(m)
        if not d:
            continue
        adj, d = mat_inverse([to_flat(row) for row in m])
        prod = mat_mul(m, tuple(map(from_flat, adj)))
        d = Eis(*d)
        assert all(
            prod[i][j] == (d if i == j else 0) for i in range(4) for j in range(4)
        )


def test_aut_matrix_theta_reduction():
    a = AutMatrix(map(to_flat, mat_scalar(3, THETA)), 1)
    assert a.k == 0 and a.is_identity()


def test_aut_matrix_pow_and_inverse():
    w = AutMatrix(map(to_flat, mat_scalar(4, OMEGA)))
    assert (w ** 3).is_identity()
    assert w.inverse() @ w == AutMatrix.identity(4)
    with pytest.raises(ValueError):
        w ** -1
    assert w.scalar() == OMEGA


def test_charpoly_triangular():
    # no off-diagonal entry lies on a cycle, so the diagonal gives the roots
    m = [[THETA, OMEGA, ZERO], [ZERO, Eis(2), ZERO], [ONE, ZERO, OMEGA2]]
    roots = (THETA, Eis(2), OMEGA2)
    want = [ONE]
    for r in roots:  # times (x - r), ascending coefficients
        want = [-r * want[0]] + [a - r * b for a, b in zip(want, want[1:])] + [want[-1]]
    assert charpoly([to_flat(row) for row in m]) == want


def test_basis_solbecause_roundtrip(diagram):
    chosen, (adj, d) = diagram.root_basis
    v = diagram.by_name["z2"].root
    # z2 is a Q(w)-combination of the chosen roots: d v is a Z[w] one
    adj, d = tuple(map(from_flat, adj)), Eis(*d)
    t = [x for x, in mat_mul(adj, tuple(zip(v)))]
    rebuilt = [ZERO] * 14
    for c, k in zip(t, chosen):
        for i in range(14):
            rebuilt[i] = rebuilt[i] + c * diagram.nodes[k].root[i]
    assert tuple(x.exact_div(d) for x in rebuilt) == v


def test_forms_disagree_only_by_scaling():
    v = (ZERO,) * 12 + (ONE, OMEGA2)
    assert FORM_E8H.ip(v, v) == FORM_LEECH_H.ip(v, v) == Eis(-3, 0)


EIS = st.builds(Eis, st.integers(-9, 9), st.integers(-9, 9))


def _leech_h(coeffs, al, be):
    """sum c_j z_j over the pinned Z-basis of Leech, then (al, be): a vector
    of Leech+H, on which the pairing of den 3 is integral."""
    lam = [ZERO] * 12
    for c, z in zip(coeffs, load_z_basis()):
        lam = [x + c * y for x, y in zip(lam, z)]
    return tuple(lam) + (al, be)


#: vectors on which each form's pairing is integral, by den
VECTORS = {
    1: st.lists(EIS, min_size=14, max_size=14).map(tuple),
    3: st.builds(_leech_h, st.lists(st.integers(-2, 2), min_size=24, max_size=24), EIS, EIS),
}


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_form_row_dot_is_the_pairing(form, data):
    """den <u, v> is the dot product of u's form row with the flat ints of
    v, coordinate by coordinate, for Z[w] and Z[zeta_12] left vectors."""
    u, w, v = (data.draw(VECTORS[form.den]) for _ in range(3))
    flat = to_flat(v)

    def dots(x):
        return tuple(sum(map(mul, r, flat)) for r in form.row(x))

    ip = form.ip(u, v)
    assert dots(u) == (form.den * ip.a, form.den * ip.b)
    u12 = tuple(x + XI * y for x, y in zip(u, w))
    assert dots(u12) == tuple(form.den * c for c in form.ip12(u12, v).c)
