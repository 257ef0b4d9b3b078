"""The acceptance gate: one test per criterion, each printing a pass/fail
line with its runtime.  All arithmetic checks are exact; criterion 10 is
the designated numeric diagnostic.  Criteria 1-9 run their entries of the
check registry ``eleech.checks``, which ``eleech verify-all`` runs too.
"""

import time

from eleech.checks import Context, run
from eleech.linalg import FORM_E8H, FORM_LEECH_H


def _line(num, ok, took, text):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({took:.1f}s) {text}")
    assert ok, f"criterion {num} failed: {text}"


def _timed(ctx, *names):
    """Whether the named registry entries pass, and their seconds."""
    t0 = time.perf_counter()
    _, ok = run(names, ctx)
    return ok, time.perf_counter() - t0


def test_criterion_1_codes():
    ok, took = _timed(Context(), "codes")
    _line(1, ok and took < 1.0, took,
          "|C4| = 9, |C12| = 729, Golay weight enumerator, QR(11) matches; < 1 s")


def test_criterion_2_lattices(shell):
    ctx = Context(shell=shell)
    fast_ok, fast_took = _timed(ctx, "lattices_fast")
    shell_ok, shell_took = _timed(ctx, "leech_shell")
    ok = fast_ok and shell_ok and fast_took < 1.0 and shell_took < 300.0
    _line(2, ok, fast_took + shell_took,
          "disc(L) = 2187, |shell(E8,-3)| = 240, |shell(Leech,-6)| = 196560 by two methods")


def test_criterion_3_diagram(diagram):
    ok, took = _timed(Context(diagram=diagram), "diagram")
    _line(3, ok and took < 1.0, took,
          "26 roots norm -3, adjacency = P2(F3), |rho|^2 = (4sqrt3-3)/26, "
          "<w_P,rho> = sqrt3/2, <w_P,w_L> = -4 theta w, disc(F) = 39, heights 1; < 1 s")


def test_criterion_4_automorphisms(diagram):
    ok, took = _timed(Context(diagram=diagram), "automorphisms")
    _line(4, ok and took < 10.0, took,
          "PGL3(F3) presentation holds on the lattice, sigma^12 = 1, "
          "sigma^2 = -w, forms preserved; < 10 s")


def test_criterion_5_isomorphism(diagram, chg):
    ok, took = _timed(Context(diagram=diagram, chg=chg), "isomorphism")
    _line(5, ok and took < 1.0, took,
          "Gram(E1) = Gram(E2), C and C^-1 lattice-integral, form-preserving, "
          "E1' M666 configuration; < 1 s (search counted separately)")


def test_criterion_5_opt_in_search(diagram, shell):
    t0 = time.perf_counter()
    from eleech.isomorphism import run_search, e2_matrix, gram_of

    res = run_search(shell, e2_matrix(diagram))
    gram_ok = gram_of(res.basis_rows, FORM_LEECH_H) == gram_of(
        e2_matrix(diagram), FORM_E8H
    )
    took = time.perf_counter() - t0
    ok = res.candidate_count == 8 and gram_ok
    _line("5s", ok, took,
          "opt-in search: step (f) finds 8 candidate vectors; "
          "discovered basis Gram equals Gram(E2)")


def test_criterion_6_generation(diagram, generators):
    ok, took = _timed(Context(diagram=diagram, generators=generators), "generation")
    _line(6, ok and took < 300.0, took,
          "50 generators certified with <= 1 perturbation each, "
          "all replays strictly height-decreasing; < 5 min")


def test_criterion_7_min_height(diagram):
    ok, took = _timed(Context(diagram=diagram), "min_height")
    _line(7, ok and took < 60.0, took,
          "minimal-height scan returns exactly the 26 diagram roots up to units; < 1 min")


def test_criterion_8_relations(diagram):
    ok, took = _timed(Context(diagram=diagram), "spider", "deflation", "coxeter")
    _line(8, ok and took < 60.0, took,
          "S^20 = 1, deflation = w^2 a3, A^11 = 1, full Coxeter table "
          "(A5, D4 infinite via the cyclotomic criterion); < 1 min")


def test_criterion_9_phi_flips():
    ok, took = _timed(Context(), "phi_flips")
    _line(9, ok and took < 1.0, took,
          "phi_12, phi_23 order 2, generate S3, fix (0^12;0,1) and the "
          "spanning cell vector; < 1 s")


def test_criterion_10_numeric_probe(diagram):
    t0 = time.perf_counter()
    from eleech.diagram import local_max_probe

    rep = local_max_probe(diagram, samples=1000, eps=1e-4, tol=1e-9, seed=0)
    took = time.perf_counter() - t0
    ok = rep["increases"] == 0 and rep["zero_shift_unchanged"]
    _line(10, ok, took,
          "numeric probe: no min-distance increase over 10^3 sampled "
          "directions at eps = 1e-4, tol 1e-9 (diagnostic)")
