import json
import random

import numpy as np
import pytest

from chowtwist import fp, gmodules as gm, intlin
from chowtwist.groups import FiniteGroup, make_cyclic, make_klein4, make_quaternion

from conftest import change_ring_mod, p_rank


def test_trivial_and_sign():
    G = make_cyclic(4)
    T = gm.make_trivial(G)
    assert T.rank == 1 and T.fixed_dim() == 1
    S = gm.make_sign_cyclic(G)
    assert S.apply(1, [1]) == [-1]
    assert S.fixed_dim() == 0


def test_sign_needs_even_order():
    with pytest.raises(ValueError):
        gm.make_sign_cyclic(make_cyclic(3))


def test_action_validation():
    G = make_cyclic(4)
    with pytest.raises(ValueError):
        # order-3 matrix on an order-4 generator is not a homomorphism
        gm.GModule(G, gm.RING_Z, 2, {1: [[0, -1], [1, -1]]})
    with pytest.raises(ValueError):
        # s^4 would act as [[16]], not as the identity: not a homomorphism
        gm.GModule(G, gm.RING_Z, 1, {1: [[2]]})


def test_regular_module_fixed_points():
    G = make_quaternion(3)
    R = gm.make_regular(G)
    assert R.rank == 8
    fixed = R.fixed_points()
    assert len(fixed) == 1
    assert all(x == fixed[0][0] for x in fixed[0])  # the norm element


def test_permutation_module():
    G = make_klein4()
    H = G.generated_subgroup([1])
    P = gm.make_permutation(G, H)
    assert P.rank == 2
    assert P.fixed_dim() == 1
    # acting permutes coordinates, preserves coordinate sum
    v = [3, 5]
    for g in range(4):
        assert sum(P.apply(g, v)) == 8


def test_augmentation_quotient():
    G = make_cyclic(5)
    Q = gm.make_augmentation_quotient(G)
    assert Q.rank == 4
    assert Q.fixed_dim() == 0


def test_trace_quotient_structures():
    G = make_cyclic(6)
    T = gm.make_trivial(G)
    val = T.trace_quotient()
    assert val.free_rank == 0 and val.invariant_factors == [6]
    R = gm.make_regular(G)
    assert R.trace_quotient().is_trivial()  # trace is onto the fixed line


def test_trace_quotient_fp():
    G = make_klein4()
    T = gm.make_trivial(G, ring="F2")
    val = T.trace_quotient()
    assert val.invariant_factors == [2]  # trace map is zero mod 2


def test_dual_and_direct_sum():
    G = make_cyclic(4)
    S = gm.make_sign_cyclic(G)
    D = S.dual()
    assert D.apply(1, [1]) == [-1]
    B = S.direct_sum(gm.make_trivial(G))
    assert B.rank == 2 and B.fixed_dim() == 1
    C = S.direct_sum(gm.make_trivial(G), gm.make_regular(G))
    assert C.rank == 6 and C.fixed_dim() == 2
    assert np.array_equal(C.act(1)[2:, 2:], gm.make_regular(G).act(1))


def test_augmentation_ideal():
    G = make_quaternion(3)
    I = gm.augmentation_ideal(G)
    assert I.rank == G.order - 1
    assert I.fixed_dim() == 0


def test_omega2_trivial_q8():
    G = make_quaternion(3)
    W = gm.make_omega2_trivial(G)
    # second syzygy over the two declared generators stays small
    assert W.rank == 9


def test_syzygy_exactness():
    # syzygy(M) with surjection F -> M has kernel exactly the new module:
    # spot check via ranks for the augmentation ideal of C4
    G = make_cyclic(4)
    I = gm.augmentation_ideal(G)
    W = gm.syzygy(I, gens=[[1, 0, 0]])
    assert W.rank == G.order - I.rank  # 0 -> W -> ZG -> I -> 0
    # a group declared with no generators: the sublattice has no images to solve
    E = FiniteGroup([[0]], generators=[])
    W = gm.syzygy(gm.make_trivial(E), gens=[[1], [1]])
    assert W.rank == 1 and W.group.generators == []


def test_omega_klein_dims():
    for n in (1, 2, 3):
        W = gm.omega_klein(n)
        assert W.ring == "F2"
        # dim follows the minimal resolution of F2 over F2[Klein]
        assert W.rank == 2 * n + 1


def test_omega_negative_klein_dims():
    for m in (1, 2, 3):
        W = gm.omega_negative_klein(m)
        assert W.rank == 2 * m + 1


def test_l_zeta_klein():
    for zeta in ((1, 0), (0, 1), (1, 1)):
        for n in (1, 2, 3):
            L = gm.l_zeta_klein(zeta, n)
            assert L.group.name == "Klein4"
            assert L.ring == "F2"
            assert L.rank == 2 * n  # hyperplane cut of Omega^n
    with pytest.raises(ValueError):
        gm.l_zeta_klein((0, 0), 2)


def test_random_cyclic_module_deterministic():
    G = make_cyclic(6)
    a = gm.random_cyclic_module(G, 3, random.Random(9))
    b = gm.random_cyclic_module(G, 3, random.Random(9))
    assert a.act(1).tolist() == b.act(1).tolist()


def test_random_lattice_valid():
    rng = random.Random(5)
    for G in (make_cyclic(4), make_klein4(), make_quaternion(3)):
        for _ in range(5):
            M = gm.random_lattice(G, rng)
            assert M.rank >= 1
            # constructor validates the action; also check integrality
            assert M.act(G.generators[0]).dtype == np.int64


def _same_span(M, a, b):
    """Do the rows a and b span the same lattice (the same subspace mod p)?"""
    if M.p:
        return np.array_equal(fp.rref(np.reshape(a, (len(a), M.rank)), M.p)[0],
                              fp.rref(np.reshape(b, (len(b), M.rank)), M.p)[0])
    la, lb = intlin.IntLattice(M.rank), intlin.IntLattice(M.rank)
    for v in a:
        la.add(v)
    for v in b:
        lb.add(v)
    return all(lb.contains(v) for v in a) and all(la.contains(v) for v in b)


def test_fixed_points_of_the_full_subgroup_span_the_same_lattice():
    """Generators and all non-identity elements cut out the same fixed
    lattice; the bases may differ, so the spans are compared."""
    rng = random.Random(13)
    for G in (make_cyclic(4), make_cyclic(6), make_klein4(), make_quaternion(3)):
        for _ in range(4):
            M = gm.random_lattice(G, rng)
            for N in (M, change_ring_mod(M, 2)):
                assert _same_span(N, N.fixed_points(), N.fixed_points(G.full_subgroup()))
                for H in G.subgroups():
                    for v in N.fixed_points(H):
                        assert all(np.array_equal(N.apply(h, v), v) for h in H.elements)
    M = gm.make_regular(make_klein4())
    assert M.fixed_points(M.group.trivial_subgroup()) == np.eye(4, dtype=int).tolist()


def test_restrict_and_induce():
    G = make_klein4()
    H = G.generated_subgroup([1])
    S = gm.make_sign_cyclic(make_cyclic(2))
    # the module induced from the trivial one is the permutation module Z[G/H]
    ind = gm.make_permutation(G, H)
    assert ind.rank == H.index and ind.fixed_dim() == 1
    res, Hg, _ = gm.restrict(gm.make_regular(G), H)
    assert res.rank == 4 and res.fixed_dim() == 2
    assert Hg.order == 2 and S.rank == 1


def test_json_roundtrip():
    G = make_quaternion(3)
    M = gm.make_omega2_trivial(G)
    M2 = gm.GModule.from_json(json.dumps(M.to_json()), G)
    assert M2.rank == M.rank
    for g in G.generators:
        assert M2.act(g).tolist() == M.act(g).tolist()


def test_change_ring_mod():
    G = make_cyclic(4)
    S = change_ring_mod(gm.make_sign_cyclic(G), 3)
    assert S.ring == "F3"
    assert S.apply(1, [1]) == [2]


def test_finite_abelian_group():
    A = gm.FiniteAbelianGroup([2, 4], free_rank=1)
    assert A.order is None  # infinite
    assert A.exponent is None
    assert p_rank(A, 2) == 2
    B = gm.FiniteAbelianGroup([2, 6])
    assert B.order == 12 and B.exponent == 6
    assert B == gm.FiniteAbelianGroup([2, 6])
    assert not B.is_trivial()
    assert gm.FiniteAbelianGroup([]).is_trivial()


def test_random_unimodular_exact_inverse():
    rng = random.Random(4)
    for rank in (1, 2, 5, 9):
        U, Uinv = gm._random_unimodular(rank, rng)
        assert U.dtype == Uinv.dtype == np.int64
        assert np.array_equal(U @ Uinv, np.eye(rank, dtype=np.int64))


def _piece_lists(G, M, rng):
    """Every (H, w) with w in a basis of M^H, plus seeded sublists whose
    vectors are random integer combinations of fixed vectors."""
    fixed = [(H, gm.restrict(M, H)[0].fixed_points()) for H in G.subgroups()]
    full = [(H, w) for H, basis in fixed for w in basis]
    yield full
    for _ in range(3):
        pieces = []
        for H, basis in rng.sample(fixed, min(3, len(fixed))):
            if basis:
                coeffs = [rng.randint(-2, 2) for _ in basis]
                pieces.append((H, sum(c * np.asarray(w) for c, w in zip(coeffs, basis))))
        yield pieces


def test_permutation_sum_is_equivariant():
    """S P(g) = M(g) S (mod p) for every group family and every piece list."""
    rng = random.Random(7)
    groups = [make_cyclic(1), make_cyclic(4), make_cyclic(6), make_klein4(),
              make_quaternion(3), make_quaternion(4)]
    for G in groups:
        modules = [gm.make_trivial(G), gm.make_trivial(G, "F2"),
                   gm.make_augmentation_quotient(G)]
        if G.order <= 8:
            modules.append(gm.make_regular(G))
        if len(G.generators) == 1 and G.order % 2 == 0:
            modules.append(gm.make_sign_cyclic(G))
        for M in modules:
            for pieces in _piece_lists(G, M, rng):
                P, S = gm.permutation_sum(M, pieces)
                assert P.rank == sum(H.index for H, _ in pieces)
                assert S.shape == (M.rank, P.rank)
                for g in G.generators:
                    diff = S @ P.act(g) - M.act(g) @ S
                    if M.p:
                        diff %= M.p
                    assert not diff.any(), (G.name, M.name, g)


def test_permutation_sum_of_trivial_subgroups_is_free():
    G = make_quaternion(3)
    M = gm.make_augmentation_quotient(G)
    E = G.trivial_subgroup()
    F, S = gm.permutation_sum(M, [(E, [1] + [0] * (M.rank - 1))] * 2)
    R = gm.make_regular(G)
    for g in G.generators:
        assert np.array_equal(F.act(g), R.direct_sum(R).act(g))
    assert [list(S[:, h]) for h in range(G.order)] == [list(M.apply(h, S[:, 0]))
                                                       for h in range(G.order)]


def test_action_products_exact_past_int64_bound():
    # the generator's entries are near 2^40, so the int64 bound on A @ A
    # fails, but the true product (the identity) fits: the module builds
    G = make_cyclic(2)
    b = (1 << 40) + 3
    M = gm.GModule(G, "Z", 2, {1: [[1, b], [0, -1]]})
    assert M.act(0).dtype == np.int64
    assert np.array_equal(M.act(1), [[1, b], [0, -1]])
    # a product past int64 raises instead of wrapping
    with pytest.raises(ValueError, match="int64"):
        gm.GModule(make_cyclic(4), "Z", 1, {1: [[1 << 32]]}, check=False)
    with pytest.raises(ValueError, match="int64"):
        gm.GModule(G, "Z", 1, {1: [[1 << 32]]})
