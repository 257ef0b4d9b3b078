import hashlib

import pytest
import sympy

from eleech.rings import Eis, OMEGA, OMEGA2, ONE, UNITS
from eleech.linalg import AutMatrix, mat_identity, mat_scalar, poly_mul
from eleech.relations import (
    GroupWord, matrix_order, INFINITE, SPIDER, TWELVE_GON, _charpoly,
    spider_check, deflate_check, deflate_unit, coxeter_table, COXETER_TABLE,
    free_embeddings, verify_phi_flips, rad_m666_covers_d, cyclotomic_poly,
    twelve_gon_orbit, hand_swap,
)
from eleech.reflections import reflect
from eleech.diagram import presentation_generators
from eleech.isomorphism import load_e1prime, m666_from_e1prime, M666_ORDER
from eleech.linalg import aut_from_images


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polys_match_sympy():
    x = sympy.Symbol("x")
    for d in range(1, 121):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
        assert cyclotomic_poly(d) == tuple(int(c) for c in reversed(coeffs))


def test_matrix_order_identity_and_scalars():
    assert matrix_order(AutMatrix.identity(14)) == 1
    w = AutMatrix(mat_scalar(14, OMEGA))
    assert matrix_order(w) == 3
    mw = AutMatrix(mat_scalar(14, -OMEGA))
    assert matrix_order(mw) == 6


@pytest.mark.parametrize("n", [2, 14])
def test_matrix_order_non_cyclotomic_factor(n, monkeypatch):
    # [[2, 1], [1, 1]] has eigenvalues (3 +- sqrt5)/2: the integral
    # polynomial keeps the non-cyclotomic factor (x^2 - 3x + 1)^2, and the
    # order is decided before any power of the matrix is taken
    m = [list(row) for row in mat_identity(n)]
    m[0][:2], m[1][:2] = [Eis(2), ONE], [ONE, ONE]
    a = AutMatrix(m)
    want = [1, -6, 11, -6, 1]
    for _ in range(2 * n - 4):
        want = poly_mul(want, [-1, 1])
    assert _charpoly(a) == want
    monkeypatch.setattr(AutMatrix, "__pow__", lambda *_: pytest.fail("m ** N taken"))
    assert matrix_order(a) == INFINITE


def test_charpoly_digest(diagram):
    """p conj(p) for the first embedding of every COXETER_TABLE type and
    for the spider, pinned to the 28x28 real-form polynomials."""
    mats = []
    for name in COXETER_TABLE:
        emb = free_embeddings(diagram, name, limit=1)[0]
        mats.append(GroupWord(diagram, [diagram.nodes[i].name for i in emb]).matrix())
    mats.append(GroupWord(diagram, SPIDER).matrix())
    digest = hashlib.sha256(repr([_charpoly(m) for m in mats]).encode()).hexdigest()
    assert digest == "49f3e35f44f0db86ac4d9e2658c725c5537c8c940d042051f304228352e32a63"


def test_matrix_order_consistency(diagram):
    s = GroupWord(diagram, ("a", "b1")).matrix()
    n = matrix_order(s)
    assert n != INFINITE
    assert (s ** n).is_identity()
    for d in range(1, n):
        if n % d == 0:
            assert not (s ** d).is_identity()


def test_spider(diagram):
    ok, order = spider_check(diagram)
    assert ok
    assert order == 20  # the relation S^20 = 1 is sharp


def test_spider_transported(diagram):
    from eleech.diagram import presentation_generators

    x, _ = presentation_generators()
    aut = diagram.g_action(x)
    perm = {}
    for node in diagram.nodes:
        k, _ = diagram.node_of(aut.apply(node.root))
        perm[node.name] = diagram.nodes[k].name
    word = GroupWord(diagram, tuple(perm[n] for n in SPIDER)).matrix()
    assert (word ** 20).is_identity()


def test_deflation(diagram):
    rep = deflate_check(diagram)
    assert rep["base"]
    assert rep["A11"]
    assert rep["transports_ok"]
    assert rep["distinct_12gons"] == 468
    assert sorted(deflate_check(diagram, transports=False)) == ["A11", "base"]


def test_deflation_unit_depends_on_start_part(diagram):
    roots = tuple(diagram.by_name[n].root for n in TWELVE_GON)
    assert deflate_unit(diagram, roots) == OMEGA2
    rotated = roots[1:] + roots[:1]  # starts at a point now
    u = deflate_unit(diagram, rotated)
    assert u is not None and u != OMEGA2


def _deflate_unit_by_reflect(diagram, gon_roots):
    """The unit of deflate_unit by the 14-coordinate reflect chain."""
    v = gon_roots[10]
    for r in reversed(gon_roots[:10]):
        v = reflect(r, OMEGA, v, diagram.form)
    units = [u for u in UNITS if v == tuple(u * x for x in gon_roots[11])]
    return units[0] if units else None


def test_deflate_unit_agrees_with_reflect_chain(diagram):
    gons = sorted(twelve_gon_orbit(diagram))
    for gon in gons[::16]:
        roots = tuple(diagram.nodes[i].root for i in gon)
        assert deflate_unit(diagram, roots) == _deflate_unit_by_reflect(diagram, roots)
    # a letter, y11 and y12 may be node roots times a unit
    gon = [diagram.nodes[i].root for i in gons[5]]
    for i, u in ((0, OMEGA2), (10, OMEGA), (11, -OMEGA)):
        gon[i] = tuple(u * x for x in gon[i])
    assert deflate_unit(diagram, tuple(gon)) == _deflate_unit_by_reflect(diagram, tuple(gon))


def test_deflate_unit_rejects_a_root_off_the_diagram(diagram, generators):
    roots = tuple(diagram.by_name[n].root for n in TWELVE_GON)
    with pytest.raises(ValueError):
        deflate_unit(diagram, roots[:10] + (generators[0], roots[11]))


def test_twelve_gon_count_by_direct_enumeration(diagram):
    """Independent DFS count of induced 12-cycles equals the orbit count."""
    nbrs = [set(diagram.neighbors(i)) for i in range(26)]
    count = 0

    def dfs(start, path, pathset):
        nonlocal count
        last = path[-1]
        if len(path) == 12:
            if start in nbrs[last]:
                for i in range(12):
                    for j in range(i + 2, 12):
                        if i == 0 and j == 11:
                            continue
                        if path[j] in nbrs[path[i]]:
                            return
                if path[1] < path[-1]:
                    count += 1
            return
        for nxt in nbrs[last]:
            if nxt <= start or nxt in pathset:
                continue
            ok = all(nxt not in nbrs[p] for p in path[:-1])
            closing = (
                len(path) == 11
                and start in nbrs[nxt]
                and all(nxt not in nbrs[p] for p in path[1:-1])
            )
            if ok or closing:
                dfs(start, path + [nxt], pathset | {nxt})

    for s in range(26):
        dfs(s, [s], {s})
    assert count == 468


def test_free_embeddings_exist(diagram):
    for name in COXETER_TABLE:
        assert free_embeddings(diagram, name, limit=1)


def test_embedding_is_induced(diagram):
    emb = free_embeddings(diagram, "E8", limit=1)[0]
    from eleech.relations import dynkin_edges

    n, edges = dynkin_edges("E8")
    eset = {frozenset(e) for e in edges}
    adj = diagram.adjacency
    for i in range(n):
        for j in range(i + 1, n):
            assert adj[emb[i]][emb[j]] == (frozenset((i, j)) in eset)


@pytest.fixture(scope="module")
def coxeter_rows(diagram):
    return {r[0]: (r[1], r[2], r[3]) for r in coxeter_table(diagram)}


@pytest.mark.parametrize("name", ["A1", "A2", "A5", "D4", "E7"])
def test_coxeter_spot_orders(coxeter_rows, name):
    exp, got, ok = coxeter_rows[name]
    assert ok and got == COXETER_TABLE[name]


def test_coxeter_alternate_embeddings(diagram):
    for name, expected in COXETER_TABLE.items():
        embs = free_embeddings(diagram, name, limit=4)
        assert embs, name
        for emb in embs:
            word = GroupWord(diagram, [diagram.nodes[idx].name for idx in emb])
            assert matrix_order(word.matrix()) == expected, (name, emb)


def test_phi_flips(diagram):
    rep = verify_phi_flips(load_e1prime())
    assert all(rep.values()), rep


def _phi_flip_by_hands(e1p_roots, fixed_hand):
    """The hand-by-hand flip builder hand_swap replaced, kept as an oracle."""
    swap = ("1", "2") if fixed_hand == 3 else ("2", "3")
    images = {}
    for x in "bcdef":
        a, b = f"{x}{swap[0]}", f"{x}{swap[1]}"
        images[a] = e1p_roots[b]
        images[b] = e1p_roots[a]
    images["a"] = e1p_roots["a"]
    third = ({"1", "2", "3"} - set(swap)).pop()
    for x in "bcdef":
        nm = f"{x}{third}"
        images[nm] = e1p_roots[nm]
    names = list(images)
    return aut_from_images([e1p_roots[n] for n in names], [images[n] for n in names])


def _m666_roots():
    return dict(zip(M666_ORDER, m666_from_e1prime(load_e1prime())))


def test_hand_swap_matches_the_hand_by_hand_builder():
    roots = _m666_roots()
    phi12, phi23 = hand_swap(roots, "1", "2"), hand_swap(roots, "2", "3")
    assert phi12 == _phi_flip_by_hands(roots, fixed_hand=3)
    assert phi23 == _phi_flip_by_hands(roots, fixed_hand=1)
    assert hand_swap(roots, "1", "3") == phi12 @ phi23 @ phi12


def _digest(aut):
    flat = (aut.k, tuple(tuple((x.a, x.b) for x in row) for row in aut.mat))
    return hashlib.sha256(repr(flat).encode()).hexdigest()[:16]


def test_lattice_maps_match_the_recorded_matrices(diagram):
    """g(x), g(y), sigma, phi12 and phi23 against digests of the matrices
    (k, mat) the per-node and hand-by-hand builders produced."""
    x, y = presentation_generators()
    roots = _m666_roots()
    got = {
        "gx": diagram.g_action(x), "gy": diagram.g_action(y), "sigma": diagram.sigma(),
        "phi12": hand_swap(roots, "1", "2"), "phi23": hand_swap(roots, "2", "3"),
    }
    assert {name: _digest(a) for name, a in got.items()} == {
        "gx": "005db0358e63a734", "gy": "b97a65ebbd44b4df", "sigma": "0c5c740c5f5c23d7",
        "phi12": "0afd733593ab366d", "phi23": "27dd7a2c1ba2419f",
    }


def test_rad_m666_covers_all_26(diagram):
    adds = rad_m666_covers_d(diagram)
    added = {name for name, _ in adds}
    assert added == {"a1", "a2", "a3", "g1", "g2", "g3", "z1", "z2", "z3", "f"}


def test_matrix_order_agrees_with_bounded_powering(diagram):
    """The cyclotomic-criterion order equals the first k <= 200 with
    M^k = I wherever the latter exists (cross-validation of the two
    detection routes)."""
    words = (("a",), ("a", "b1"), ("a", "b1", "c1"), SPIDER)
    for letters in words:
        m = GroupWord(diagram, letters).matrix()
        n = matrix_order(m)
        assert n != INFINITE
        cur = m
        first = None
        for k in range(1, 201):
            if cur.is_identity():
                first = k
                break
            cur = cur @ m
        assert first == n
