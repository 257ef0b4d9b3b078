from itertools import product

import pytest

from eleech.codes import tetracode, golay12, qr_code
from eleech.reduction import LeechCVP

GOLAY_WE = {0: 1, 6: 264, 9: 440, 12: 24}


def test_tetracode_word_count():
    assert len(tetracode()) == 9


def test_tetracode_contains_generator_row():
    assert (1, 1, -1, 0) in tetracode()
    assert (0, 1, 1, 1) in tetracode()


def test_tetracode_min_weight():
    assert tetracode().weight_enumerator() == {0: 1, 3: 8}


def test_golay12_word_count():
    assert len(golay12()) == 729


def test_golay12_contains_generator_row():
    assert (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1) in golay12()


def test_golay12_weight_enumerator():
    assert golay12().weight_enumerator() == GOLAY_WE


def test_golay12_self_dual():
    assert golay12().is_self_dual()


def test_golay12_weights_divisible_by_three():
    assert all(k % 3 == 0 for k in golay12().weight_enumerator())


def test_qr11_shape():
    qr = qr_code(11)
    assert qr.length == 12 and qr.dimension == 6


def test_qr11_weight_enumerator_matches_golay():
    assert qr_code(11).weight_enumerator() == GOLAY_WE


def test_qr23_binary_golay():
    qr = qr_code(23)
    assert qr.length == 24 and qr.dimension == 12
    assert min(k for k in qr.weight_enumerator() if k) == 8


def test_qr_rejects_other_q():
    with pytest.raises(ValueError):
        qr_code(13)


def test_closure_under_addition_spot():
    c12 = golay12()
    words = c12.words()
    w1, w2 = words[5], words[100]
    s = tuple((a + b) % 3 for a, b in zip(w1, w2))
    assert s in c12


def _sgn(x):
    r = x % 3
    return r - 3 if r == 2 else r


def _ternary_words(gens):
    """Codewords by signed coefficients (0, 1, -1) and signed sums."""
    out = []
    for coeffs in product((0, 1, -1), repeat=len(gens)):
        w = [0] * len(gens[0])
        for c, g in zip(coeffs, gens):
            if c:
                for i, x in enumerate(g):
                    w[i] += c * x
        out.append(tuple(_sgn(x) for x in w))
    return tuple(out)


def _binary_words(gens):
    """Codewords by coefficients (0, 1) and XOR."""
    out = []
    for coeffs in product((0, 1), repeat=len(gens)):
        w = [0] * len(gens[0])
        for c, g in zip(coeffs, gens):
            if c:
                for i, x in enumerate(g):
                    w[i] ^= x
        out.append(tuple(w))
    return tuple(out)


@pytest.mark.parametrize("make, oracle", [
    (tetracode, _ternary_words),
    (golay12, _ternary_words),
    (lambda: qr_code(11), _ternary_words),
    (lambda: qr_code(23), _binary_words),
], ids=["tetracode", "golay12", "qr11", "qr23"])
def test_words_match_the_per_field_loops(make, oracle):
    """One F_p enumeration gives the words of the signed ternary loop and
    of the XOR binary loop, in the same order."""
    code = make()
    assert code.words() == oracle(code.generators)


def test_each_code_is_built_once():
    assert golay12() is golay12()
    assert tetracode() is tetracode()


def test_cvp_scans_the_golay_object_words():
    assert LeechCVP().words is golay12().words()
