import os
import random
import subprocess
import sys

import numpy as np
import pytest

from chowtwist import gmodules as gm
from chowtwist import intlin
from chowtwist import lattices as lat
from chowtwist import verify
from chowtwist.errors import SizePolicyError
from chowtwist.groups import make_cyclic, make_klein4, make_quaternion

from conftest import change_ring_mod


def test_h1_known_values():
    G = make_cyclic(4)
    # H^1(C4, Z) = 0, H^1(C4, Z-) = Z/2, H^1(C4, aug quotient) = Z/4
    assert lat.h1_lattice(gm.make_trivial(G)).is_trivial()
    assert lat.h1_lattice(gm.make_sign_cyclic(G)) == gm.FiniteAbelianGroup([2])
    assert lat.h1_lattice(gm.make_augmentation_quotient(G)) == gm.FiniteAbelianGroup([4])


def test_h1_lattice_takes_its_rank_from_the_character(monkeypatch):
    # rank delta_0 = r - rank M^H, so no rank pass modulo a large prime runs
    primes = []
    original = intlin._pivot_counts

    def counted(rows, p, levels):
        primes.append(p)
        return original(rows, p, levels)

    monkeypatch.setattr(intlin, "_pivot_counts", counted)
    Q = make_quaternion(3)
    ok, (S, h1) = lat.is_coflasque(gm.make_augmentation_quotient(Q))
    assert not ok and h1 == gm.FiniteAbelianGroup([2])
    assert primes and set(primes) == {2}


def test_permutation_modules_are_coflasque():
    G = make_quaternion(3)
    for S in G.subgroups():
        ok, witness = lat.is_coflasque(gm.make_permutation(G, S))
        assert ok, witness


def test_sign_module_is_not_coflasque():
    G = make_cyclic(4)
    ok, witness = lat.is_coflasque(gm.make_sign_cyclic(G))
    assert not ok
    sub, h1 = witness
    assert h1 == gm.FiniteAbelianGroup([2])


def test_flasque_dual():
    G = make_cyclic(4)
    R = gm.make_regular(G)
    # M is flasque when its dual is coflasque
    assert lat.is_coflasque(R.dual())[0]
    assert not lat.is_coflasque(gm.make_sign_cyclic(G).dual())[0]


def test_resolution_of_sign_module():
    G = make_cyclic(4)
    M = gm.make_sign_cyclic(G)
    res = lat.coflasque_resolution(M)
    assert res.check()
    assert res.Q.rank == res.P.rank - M.rank


def test_resolution_of_fp_module():
    M = gm.omega_negative_klein(2)
    res = lat.coflasque_resolution(M)
    assert res.check()
    # the preimage lattice of 0 mod p has full permutation rank
    assert res.Q.rank == res.P.rank


def test_fixed_surjective_f2():
    G = make_klein4()
    M = gm.make_trivial(G, "F2")
    P = gm.make_regular(G, "F2")
    full, trivial = G.full_subgroup(), G.trivial_subgroup()
    S = np.ones((1, 4), dtype=np.int64)  # augmentation
    assert lat.fixed_surjective(P, M, S, trivial)
    # the norm element, which spans P^G, augments to 4 = 0 mod 2
    assert not lat.fixed_surjective(P, M, S, full)
    assert not lat.fixed_surjective(P, M, np.zeros((1, 4), dtype=np.int64), trivial)


def test_fixed_surjective_z():
    G = make_cyclic(2)
    M = gm.make_trivial(G)
    P = gm.make_regular(G)
    full, trivial = G.full_subgroup(), G.trivial_subgroup()
    S = np.ones((1, 2), dtype=np.int64)
    assert lat.fixed_surjective(P, M, S, trivial)
    # P^G is spanned by the norm element, which augments to 2: index 2 in Z
    assert not lat.fixed_surjective(P, M, S, full)
    assert lat.fixed_surjective(M, M, np.array([[-1]]), full)


def test_resolution_check_survives_optimize():
    # the checks raise VerificationError, which python -O does not strip
    code = (
        "from chowtwist import gmodules as gm, lattices as lat\n"
        "from chowtwist.errors import VerificationError\n"
        "from chowtwist.groups import make_cyclic\n"
        "res = lat.coflasque_resolution(gm.make_sign_cyclic(make_cyclic(4)))\n"
        "res.surjection = res.surjection.copy()\n"
        "res.surjection[0, 0] += 1\n"
        "try:\n"
        "    res.check()\n"
        "except VerificationError as exc:\n"
        "    print('raised:', exc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: kernel basis not killed"), out.stdout


def test_resolution_pruning_never_grows():
    G = make_klein4()
    M = gm.make_augmentation_quotient(G)
    full = lat.coflasque_resolution(M)
    pruned = lat.coflasque_resolution(M, prune=True)
    assert pruned.check()
    assert pruned.P.rank <= full.P.rank


def test_greedy_resolution_pieces_are_full_pieces():
    # the seeded lattices of battery_coflasque_random
    for M in verify.random_resolution_modules():
        full = lat.coflasque_resolution(M)
        greedy = lat.coflasque_resolution(M, prune=True)
        assert greedy.check()
        assert all(piece in full.pieces for piece in greedy.pieces)
        assert greedy.P.rank <= full.P.rank


def test_greedy_resolution_of_f2_klein_modules():
    # over F_2 the order-2 subgroups move each other's cosets, so a piece
    # over one of them reaches the others only through orbit sums
    rng = random.Random(3)
    G = make_klein4()
    modules = [gm.omega_klein(n) for n in (1, 2, 3)]
    modules += [change_ring_mod(gm.random_lattice(G, rng), 2) for _ in range(6)]
    for M in modules:
        assert lat.coflasque_resolution(M, prune=True).check()


def test_resolution_random_lattices():
    rng = random.Random(17)
    for G in (make_cyclic(6), make_klein4()):
        for _ in range(3):
            M = gm.random_lattice(G, rng)
            res = lat.coflasque_resolution(M)
            assert res.check()


def test_counterexample_lattices_shapes():
    for m in (2, 3):
        data = lat.counterexample_lattices(m)
        assert data.module.rank == 2 * m + 1
        assert data.B.rank == 5 * m + 1
        assert data.A.rank == 5 * m + 1
        assert len(data.p_pieces) == 3 * m  # m per index-2 subgroup
        assert data.P.rank == 6 * m


def test_counterexample_maps_commute():
    import numpy as np
    data = lat.counterexample_lattices(2)
    G = data.module.group
    for g in G.generators:
        # b_to_m intertwines the actions of B and M (the target is mod 2)
        left = (data.module.act(g) @ data.b_to_m) % 2
        right = (data.b_to_m @ data.B.act(g)) % 2
        assert np.array_equal(left, right)
        assert np.array_equal(data.A.act(g) @ data.p_to_a,
                              data.p_to_a @ data.P.act(g))


def test_counterexample_a_is_coflasque():
    data = lat.counterexample_lattices(2)
    assert lat.is_coflasque(data.A)[0]


def test_counterexample_size_policy():
    with pytest.raises(SizePolicyError):
        lat.counterexample_lattices(1)
    with pytest.raises(SizePolicyError):
        lat.counterexample_lattices(9)
