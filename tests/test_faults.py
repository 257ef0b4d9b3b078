"""Each check fails on a fault of its own.

``FAULTS`` maps a registry entry to a fault: a monkeypatch that corrupts
the input the entry checks, never the check itself.  With the fault in
place the entry must fail, and ``eleech verify-all`` must print the
entry's summary key as FAIL and exit 1.
"""

import pytest

from eleech import checks, isomorphism, lattices, reduction, relations
from eleech.checks import Context, REGISTRY, run
from eleech.codes import GOLAY12_GENS, LinearCode
from eleech.cli import main
from eleech.diagram import PRESENTATION_PAIR
from eleech.reflections import canonical_root
from eleech.rings import Eis, THETA


def _coset_search_misses_a_vector(monkeypatch, diagram):
    search = lattices.first_shell_by_coset_search

    def faulty():
        found = search()
        found.remove(min(found))
        return found

    monkeypatch.setattr(lattices, "first_shell_by_coset_search", faulty)


def _walk_misses_a_root(monkeypatch, diagram):
    expand = reduction._expand_positions
    victim = canonical_root(diagram.nodes[0].root)
    monkeypatch.setattr(reduction, "_expand_positions",
                        lambda *args: [r for r in expand(*args) if r != victim])


def _golay_generator_entry_changed(monkeypatch, diagram):
    gens = [list(g) for g in GOLAY12_GENS]
    gens[0][7] = 0
    monkeypatch.setattr(checks, "golay12", lambda: LinearCode(3, 12, gens))


def _presentation_relator_fails(monkeypatch, diagram):
    # x^2 = y^3 = (xy)^13 = 1 still hold for this y; the long relator does not
    x, _ = PRESENTATION_PAIR
    y = ((0, 1, 1), (1, 1, 0), (1, 1, 2))
    monkeypatch.setattr(checks, "presentation_generators", lambda: (x, y))


def _coxeter_order_changed(monkeypatch, diagram):
    monkeypatch.setattr(relations, "COXETER_TABLE", {**relations.COXETER_TABLE, "E8": 30})


def _spider_word_shortened(monkeypatch, diagram):
    # a b1 c1 a b2 c2 a b3 has order 9, so its 20th power is not 1
    monkeypatch.setattr(relations, "SPIDER", relations.SPIDER[:-1])


def _twelve_gon_with_y11_y12_swapped(monkeypatch, diagram):
    # the base labelling with its last two nodes swapped is in no orbit of
    # the base one, and no unit completes it; it spans the same 12 nodes,
    # and rad_m666 never reads it, as its last node f2 is already known
    orbit = relations.twelve_gon_orbit
    base = tuple(diagram.by_name[n].index for n in relations.TWELVE_GON)
    swapped = base[:10] + (base[11], base[10])
    monkeypatch.setattr(relations, "twelve_gon_orbit", lambda d: orbit(d) | {swapped})


def _move_root_a(monkeypatch, module, coord, shift):
    """``module.m666_from_e1prime`` returns root a with one coordinate moved."""
    m666 = isomorphism.m666_from_e1prime

    def faulty(e1p):
        roots = list(m666(e1p))
        roots[0] = tuple(x + shift if i == coord else x for i, x in enumerate(roots[0]))
        return roots

    monkeypatch.setattr(module, "m666_from_e1prime", faulty)


def _m666_root_perturbed(monkeypatch, diagram):
    # both flips still build, phi_23 no longer preserves the form
    _move_root_a(monkeypatch, relations, 5, Eis(3, 0))


def _isomorphism_m666_root_perturbed(monkeypatch, diagram):
    # relations holds its own reference to m666_from_e1prime, so the flips
    # keep the shipped roots
    _move_root_a(monkeypatch, isomorphism, 5, Eis(3, 0))


def _leech_basis_row_times_theta(monkeypatch, diagram):
    basis = lattices.leech_basis()
    monkeypatch.setattr(lattices, "leech_basis",
                        lambda: (tuple(THETA * x for x in basis[0]),) + basis[1:])


def _z_basis_row_doubled(monkeypatch, diagram):
    # the 50 certificates still replay; doubling row 0 or 23 instead makes
    # certifying raise
    rows = reduction.load_z_basis()
    monkeypatch.setattr(reduction, "load_z_basis",
                        lambda: rows[:10] + (tuple(x + x for x in rows[10]),) + rows[11:])


#: registry entry -> fault
FAULTS = {
    "automorphisms": _presentation_relator_fails,
    "codes": _golay_generator_entry_changed,
    "coxeter": _coxeter_order_changed,
    "deflation_transports": _twelve_gon_with_y11_y12_swapped,
    "generation": _z_basis_row_doubled,
    "isomorphism": _isomorphism_m666_root_perturbed,
    "lattices_fast": _leech_basis_row_times_theta,
    "leech_shell": _coset_search_misses_a_vector,
    "min_height": _walk_misses_a_root,
    "phi_flips": _m666_root_perturbed,
    "spider": _spider_word_shortened,
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_its_entry(name, monkeypatch, diagram, shell):
    FAULTS[name](monkeypatch, diagram)
    _, ok = run([name], Context(diagram=diagram, shell=shell))
    assert not ok


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_verify_all_reports_the_fault(name, monkeypatch, capsys, diagram):
    FAULTS[name](monkeypatch, diagram)
    assert main(["verify-all"]) == 1
    *lines, elapsed, result = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.endswith(": ok")]
    assert failed == [f"{REGISTRY[name][0]}: FAIL"]
    assert elapsed.startswith("elapsed_seconds: ")
    assert result == "RESULT: FAIL"


def _one_int_moved(shell):
    f = shell[1000]
    return shell[:1000] + [(f[0] + 1,) + f[1:]] + shell[1001:]


#: a corruption of the shapes side of the shell -> the leech_shell flags it fails
SHAPES_CORRUPTIONS = {
    "dropped": (lambda shell: shell[1:], ["shell_196560", "two_methods_agree"]),
    "duplicated": (lambda shell: shell[:-1] + shell[:1], ["shell_196560", "two_methods_agree"]),
    "moved": (_one_int_moved, ["two_methods_agree", "shell_norm_6"]),
}


@pytest.mark.parametrize("kind", sorted(SHAPES_CORRUPTIONS))
def test_leech_shell_fails_on_a_corrupted_shapes_side(kind, shell):
    """FAULTS corrupts the coset side; with the shapes side missing one
    vector, repeating one or with one int coordinate moved by 1, the entry
    fails too."""
    corrupt, flags = SHAPES_CORRUPTIONS[kind]
    lines, ok = run(["leech_shell"], Context(shell=corrupt(shell)))
    assert not ok
    assert [key for key, value in lines if value != "ok"] == flags


@pytest.mark.parametrize("shift", [THETA, Eis(3, 0)], ids=["theta", "3"])
def test_phi_flips_checks_the_m666_gram(shift, monkeypatch, diagram):
    """With root a's coordinate 13 moved, every flag of the flip report
    still holds; the entry fails on the Gram matrix of the roots."""
    _move_root_a(monkeypatch, relations, 13, shift)
    lines, ok = run(["phi_flips"], Context(diagram=diagram))
    assert not ok
    assert [key for key, value in lines if value != "ok"] == ["phi_flips_m666_gram"]


def test_swapped_twelve_gon_fails_only_the_transports(monkeypatch, diagram):
    """The swapped labelling is outside the orbit and no unit completes it;
    with it in the orbit, deflation and rad_m666 still pass and the
    12-gons still number 468."""
    base = tuple(diagram.by_name[n].root for n in relations.TWELVE_GON)
    assert relations.deflate_unit(diagram, base[:10] + (base[11], base[10])) is None
    before = relations.twelve_gon_orbit(diagram)
    _twelve_gon_with_y11_y12_swapped(monkeypatch, diagram)
    assert len(relations.twelve_gon_orbit(diagram) - before) == 1
    lines, ok = run(["deflation", "rad_m666", "deflation_transports"], Context(diagram=diagram))
    assert not ok
    assert ("deflate_12gons", 468) in lines
    assert [key for key, value in lines if value == "FAIL"] == ["deflate_transports"]
