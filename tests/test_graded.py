import numpy as np
import pytest

from chowtwist import gmodules as gm
from chowtwist import cli, fp, graded, kleinres
from chowtwist.errors import HorizonError, VerificationError
from chowtwist.groups import make_klein4


def _free_rank_one(D):
    """Dimension table and shift maps of F_2[u, v] itself up to degree D."""
    dims = [d + 1 for d in range(D + 1)]
    u_maps, v_maps = [], []
    for d in range(D):
        # monomial basis u^{d-j} v^j, j = 0..d
        U = np.zeros((d + 2, d + 1), dtype=np.int64)
        V = np.zeros((d + 2, d + 1), dtype=np.int64)
        for j in range(d + 1):
            U[j, j] = 1
            V[j + 1, j] = 1
        u_maps.append(U)
        v_maps.append(V)
    return dims, u_maps, v_maps


def test_monomials():
    assert graded.monomials(0) == [(0, 0)]
    assert graded.monomials(2) == [(2, 0), (1, 1), (0, 2)]


def test_free_basis_shift():
    fb = graded.FreeBasis([0, 1])
    assert fb.dim(0) == 1 and fb.dim(1) == 3
    S = fb.shift(0, 0)  # multiply degree-0 slice by u
    assert S.shape == (3, 1)


def test_free_module_presentation():
    dims, u_maps, v_maps = _free_rank_one(8)
    P = graded.present_from_action(dims, u_maps, v_maps)
    assert P.gen_degrees == [0]
    assert P.relations == []
    B = graded.minimal_free_resolution(P)
    assert B.shape() == (1,)
    assert graded.cm_regularity(B) == 0
    assert graded.hilbert_series(P) == dims


def test_koszul_quotient():
    # F_2[u,v]/(u, v): one generator, two relations, one second syzygy
    D = 6
    dims = [1] + [0] * D
    zmaps = [np.zeros((dims[d + 1], dims[d]), dtype=np.int64) for d in range(D)]
    P = graded.present_from_action(dims, zmaps, zmaps)
    B = graded.minimal_free_resolution(P)
    assert B.shape() == (1, 2, 1)
    assert B.degrees(0) == [0]
    assert B.degrees(1) == [1, 1]
    assert B.degrees(2) == [2]
    assert graded.cm_regularity(B) == 0
    hs = graded.hilbert_series(P)
    assert graded.check_euler_identity(B, hs)


def test_u_squared_quotient():
    # F_2[u,v]/(u^2): dims 1, 2, 2, 2, ...
    D = 8
    dims = [1] + [2] * D
    u_maps, v_maps = [], []
    # basis in degree d >= 1: (u v^{d-1}, v^d); in degree 0: (1)
    u_maps.append(np.array([[1], [0]], dtype=np.int64))
    v_maps.append(np.array([[0], [1]], dtype=np.int64))
    for d in range(1, D):
        u_maps.append(np.array([[0, 1], [0, 0]], dtype=np.int64))
        v_maps.append(np.eye(2, dtype=np.int64))
    P = graded.present_from_action(dims, u_maps, v_maps)
    B = graded.minimal_free_resolution(P)
    assert B.shape() == (1, 1)
    assert B.degrees(1) == [2]
    assert graded.cm_regularity(B) == 1
    assert graded.check_euler_identity(B, graded.hilbert_series(P))


def test_noncommuting_actions_rejected():
    dims = [1, 2, 1]
    u_maps = [np.array([[1], [0]]), np.array([[1, 0]])]
    v_maps = [np.array([[0], [1]]), np.array([[1, 0]])]
    # u v . 1 = 0 but v u . 1 = basis vector
    with pytest.raises(ValueError):
        graded.present_from_action(dims, u_maps, v_maps)


def test_horizon_too_short():
    # a free module cut off so early that stabilization cannot be certified
    dims, u_maps, v_maps = _free_rank_one(2)
    P = graded.present_from_action(dims, u_maps, v_maps)
    with pytest.raises(HorizonError):
        graded.minimal_free_resolution(P)


def test_hilbert_beyond_horizon():
    dims, u_maps, v_maps = _free_rank_one(4)
    P = graded.present_from_action(dims, u_maps, v_maps)
    with pytest.raises(HorizonError):
        graded.hilbert_series(P, D=10)


def test_klein_presentation_trivial_module():
    K = gm.make_trivial(make_klein4(), "F2")
    P = graded.klein_chow_presentation(K, 8)
    # CH^*(BKlein, F2) is the free rank-one module
    assert P.gen_degrees == [0] and P.relations == []
    B = graded.minimal_free_resolution(P)
    assert B.shape() == (1,)
    assert graded.cm_regularity(B) == 0


def test_klein_presentation_omega_negative():
    m = 2
    M = gm.omega_negative_klein(m)
    P = graded.klein_chow_presentation(M, 8)
    assert [d for d in P.gen_degrees] == [0] * (m + 1)
    assert [d for d, _ in P.relations] == [1] * (m - 1)
    assert graded.hilbert_series(P)[:3] == [m + 1, m + 3, m + 5]
    B = graded.minimal_free_resolution(P)
    assert graded.check_euler_identity(B, graded.hilbert_series(P))


def test_betti_table_serialization():
    B = graded.BettiTable({0: [0], 1: [1, 1], 2: [2]}, horizon=6)
    assert B.shape() == (1, 2, 1)
    j = B.to_json()
    assert [lv["degrees"] for lv in j["levels"]] == [[0], [1, 1], [2]]
    txt = B.to_text()
    assert "index" in txt and "degrees" in txt


def test_unit_relation_entry_rejected():
    # F_2[u, v] on two degree-0 generators with the same image, tied by the
    # degree-0 relation g0 + g1: a valid presentation, but not a minimal one
    D = 6
    ring = graded.FreeBasis([0])
    dims = [ring.dim(d) for d in range(D + 1)]
    E = graded.FreeMap.into_free(ring, [(0, [1]), (0, [1])], 2)
    P = graded.GradedModulePresentation(dims, E, [(0, [1, 1])])
    assert P.gen_degrees == [0, 0]
    assert P.check()
    assert graded.hilbert_series(P) == dims
    with pytest.raises(ValueError, match="presentation not minimal"):
        graded.minimal_free_resolution(P)


def test_inconsistent_presentations_rejected():
    ring = graded.FreeBasis([0])
    dims = [ring.dim(d) for d in range(5)]
    # a relation that does not evaluate to zero
    E = graded.FreeMap.into_free(ring, [(0, [1])], 2)
    P = graded.GradedModulePresentation(dims, E, [(1, [1, 0])])
    with pytest.raises(ValueError, match="evaluate to zero"):
        P.check()
    with pytest.raises(VerificationError):
        graded.hilbert_series(P)
    # a generator that misses half of a two-dimensional degree-0 module
    E = graded.FreeMap(graded.FreeBasis([0]), [[1, 0]], 2, [2].__getitem__, None)
    P = graded.GradedModulePresentation([2], E, [])
    with pytest.raises(ValueError, match="not surjective"):
        P.check()
    # present checks what it builds
    with pytest.raises(ValueError, match="not surjective"):
        graded.present(E, [2])


# ---------------------------------------------------------------------------
# reference for the Klein presentation: a greedy basis of classes in each
# degree, the u and v matrices in those bases, then present_from_action


def _greedy_klein_route(M, D):
    """(dims, u_maps, v_maps) of CH^*(Klein4, M) in degrees 0..D: the
    degree-i basis is picked greedily among the classes of the cocycles
    (x^{2a} y^{2b}) . m0, a = 0..i, m0 over the fixed basis, and the
    shifted basis cocycles are solved for in the next degree's basis
    modulo its coboundaries."""
    fixed = M.fixed_points()

    def cocycle(a, b, k):
        return kleinres.monomial_cocycle(M, fixed[k], 2 * a, 2 * b)

    degrees = []  # (labels, basis cocycles, coboundary rows) per degree
    for i in range(D + 1):
        cob = kleinres.coboundary_rows(M, 2 * i)
        span = fp.Span((2 * i + 1) * M.rank, 2, cob)
        labels = [(a, i - a, k) for a in range(i + 1)
                  for k in range(len(fixed)) if span.add(cocycle(a, i - a, k))]
        degrees.append((labels, [cocycle(*lab) for lab in labels], cob))
    u_maps, v_maps = [], []
    for i in range(D):
        labels = degrees[i][0]
        _, basis1, cob1 = degrees[i + 1]
        A = np.column_stack(basis1 + list(cob1))
        for var, maps in ((0, u_maps), (1, v_maps)):
            shifted = [cocycle(a + 1 - var, b + var, k) for a, b, k in labels]
            X = fp.solve(A, np.reshape(shifted, (len(labels), A.shape[0])).T, 2)
            if X is None:
                raise VerificationError("shifted class escaped the image span")
            maps.append(X[:len(basis1)])
    return [len(d[0]) for d in degrees], u_maps, v_maps


@pytest.mark.parametrize("spec", ["trivialF2"]
                         + ["omega:%d" % n for m in (1, 2, 3, 4) for n in (m, -m)]
                         + ["l_zeta:x:2", "l_zeta:x+y:3"])
def test_klein_presentation_matches_the_greedy_route(spec):
    M = cli.parse_module(make_klein4(), spec)
    D = (M.rank - 1) // 2 + 6  # the graded command's default horizon
    dims, u_maps, v_maps = _greedy_klein_route(M, D)
    P = graded.klein_chow_presentation(M, D)
    assert dims == P.dims
    reference = graded.present_from_action(dims, u_maps, v_maps, p=2)
    assert reference.to_json() == P.to_json()
    if spec == "omega:-4":
        # u shifts the degree-1 basis down two slots, v keeps it in place
        assert np.array_equal(u_maps[1], np.eye(9, 7, k=-2))
        assert np.array_equal(v_maps[1], np.eye(9, 7))
