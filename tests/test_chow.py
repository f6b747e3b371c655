import random

import numpy as np
import pytest

from chowtwist import chow, cli, f2, intlin
from chowtwist import lattices as lat
from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist.errors import UnsupportedFamilyError
from chowtwist.groups import make_cyclic, make_klein4, make_quaternion

from conftest import change_ring_mod


def test_cyclic_trivial_values():
    G = make_cyclic(5)
    T = gm.make_trivial(G)
    r0 = chow.twisted_chow_cyclic(G, T, 0)
    assert r0.value == gm.FiniteAbelianGroup([], 1)  # Z
    for i in (1, 2, 3):
        assert chow.twisted_chow_cyclic(G, T, i).value == gm.FiniteAbelianGroup([5])


def test_cyclic_oracle_cross_check():
    G = make_cyclic(6)
    for M in (gm.make_trivial(G), gm.make_sign_cyclic(G),
              gm.make_augmentation_quotient(G)):
        r = chow.twisted_chow_cyclic(G, M, 2, oracle=True)
        assert r.cross_check is not None
        assert r.value == r.cross_check


def test_cyclic_rejects_noncyclic():
    K = make_klein4()
    with pytest.raises(UnsupportedFamilyError):
        chow.twisted_chow_cyclic(K, gm.make_trivial(K), 1)


def test_klein_trivial_polynomial_growth():
    T = gm.make_trivial(make_klein4(), "F2")
    for i in range(4):
        assert chow.twisted_chow_klein(T, i).value == i + 1


def test_klein_omega_negative_dims():
    for m in (1, 2):
        M = gm.omega_negative_klein(m)
        for i in range(3):
            assert chow.twisted_chow_klein(M, i).value == m + 2 * i + 1


def test_klein_omega_positive_vanishes():
    M = gm.omega_klein(1)
    assert chow.twisted_chow_klein(M, 0).value == 1
    for i in (1, 2):
        assert chow.twisted_chow_klein(M, i).value == 0


def test_klein_requires_f2():
    with pytest.raises(ValueError):
        chow.twisted_chow_klein(gm.make_trivial(make_klein4()), 1)


def test_klein_module_multiplication():
    km = chow.KleinChowModule(gm.omega_negative_klein(1))
    for var in (0, 1):
        A = km.multiplication_matrix(1, var)
        assert A.shape == (km.dim(2), km.dim(1))
    # u and v commute as maps CH^1 -> CH^3
    uv = km.multiplication_matrix(2, 0) @ km.multiplication_matrix(1, 1)
    vu = km.multiplication_matrix(2, 1) @ km.multiplication_matrix(1, 0)
    assert np.array_equal(uv % 2, vu % 2)


def test_quaternion_omega2():
    G = make_quaternion(3)
    M = gm.make_omega2_trivial(G)
    assert coh.bar_cohomology(G, M, 2).structure == gm.FiniteAbelianGroup([8])
    ch1 = chow.twisted_chow_quaternion(G, M, 1).value
    assert ch1 == gm.FiniteAbelianGroup([4])
    assert chow.twisted_chow_quaternion(G, M, 3).value == ch1
    ch2 = chow.twisted_chow_quaternion(G, M, 2).value
    assert ch2 == gm.FiniteAbelianGroup([2, 2])


def test_quaternion_degree_zero():
    G = make_quaternion(3)
    M = gm.make_omega2_trivial(G)
    r = chow.twisted_chow_quaternion(G, M, 0)
    assert r.value.free_rank == M.fixed_dim()


def test_mackey_chow_klein():
    mk = chow.MackeyChowKlein()
    G = mk.group
    full = G.full_subgroup()
    for i in range(3):
        assert mk.chow_dim(full, i) == i + 1
    H = G.generated_subgroup([1])
    assert mk.chow_dim(H, 2) == 1
    R = mk.restriction_matrix(full, H, 1)
    assert R.shape == (1, 2)
    # columns are v, u: restriction to <g> sends u -> c and v -> 0
    assert R.tolist() == [[0, 1]]


def test_mackey_evaluate_block_requires_containment():
    mk = chow.MackeyChowKlein()
    G = mk.group
    H = G.generated_subgroup([1])
    K = G.generated_subgroup([2])
    assert not mk.evaluate_block(K, H, 1, 1).any()  # H not inside K


def test_motivic_explicit_matches_generic():
    for m in (2, 3):
        M = gm.omega_negative_klein(m)
        generic = chow.twisted_motivic_klein(M, 1).value
        explicit = chow.twisted_motivic_klein_explicit(m, 1).value
        assert generic == explicit == 2 * m + 2
        assert chow.twisted_chow_klein(M, 1).value == m + 3


def _full_resolutions(M):
    """The motivic pipeline's input from two full coflasque resolutions."""
    res1 = lat.coflasque_resolution(M)
    res2 = lat.coflasque_resolution(res1.Q)
    psi = intlin.product(np.array(res1.q_basis).T, res2.surjection)
    return [S for S, _ in res1.pieces], [S for S, _ in res2.pieces], psi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_motivic_value_agrees_across_resolutions(m):
    M = gm.omega_negative_klein(m)
    greedy = chow.twisted_motivic_klein(M, 1).value
    full = chow.twisted_motivic_klein(M, 1, resolutions=_full_resolutions(M)).value
    explicit = chow.twisted_motivic_klein_explicit(m, 1).value
    assert greedy == full == explicit == 2 * m + 2


def test_motivic_value_greedy_matches_full_on_seeded_modules():
    rng = random.Random(5)
    G = make_klein4()
    # the full resolutions grow fast with the rank: keep the oracle small
    modules = [M for M in (change_ring_mod(gm.random_lattice(G, rng), 2)
                           for _ in range(6)) if M.rank <= 4]
    assert len(modules) >= 4
    for M in modules:
        full = _full_resolutions(M)
        for i in (1, 2):
            assert (chow.twisted_motivic_klein(M, i).value
                    == chow.twisted_motivic_klein(M, i, resolutions=full).value)


def test_motivic_higher_degree():
    m = 2
    assert chow.twisted_motivic_klein_explicit(m, 2).value == (m + 1) * 3


def test_transfer_generation():
    G4, K, Q = make_cyclic(4), make_klein4(), make_quaternion(3)
    for G, M in ((G4, gm.make_trivial(G4)), (K, gm.make_trivial(K, "F2")),
                 (Q, gm.make_omega2_trivial(Q))):
        assert chow.transfer_generation_check(G, M, 1)["generated"] is True


def test_klein_transfer_comparison_can_fail():
    # on F_2[K/<g>] the transfers from the proper subgroups have a nonzero
    # image, so leaving out the transfers from K itself makes the first
    # image differ from the cumulative one
    K = make_klein4()
    M = gm.make_permutation(K, K.generated_subgroup([1]), "F2")
    top = K.full_subgroup()
    proper = [s for s in K.subgroups() if s != top]
    own, every = chow._transfer_images(K, M, [top], proper)
    assert own == every == gm.FiniteAbelianGroup([2], 0)
    none, alone = chow._transfer_images(K, M, [], proper)
    assert none == gm.FiniteAbelianGroup([], 0)
    assert alone == gm.FiniteAbelianGroup([2], 0)


@pytest.mark.parametrize("spec, dim", [
    ("trivialF2", 2), ("omega:-1", 4), ("omega:-2", 5), ("omega:-3", 6),
    ("omega:-4", 7), ("omega:1", 0), ("omega:2", 0), ("l_zeta:x:2", 2),
    ("l_zeta:x+y:3", 3)])
def test_klein_transfer_image_matches_chow_module(spec, dim):
    # the G-level transfer image in the bar model and the Chow image on the
    # minimal resolution are two independent models of CH^1
    K = make_klein4()
    M = cli.parse_module(K, spec)
    own, = chow._transfer_images(K, M, [K.full_subgroup()])
    assert own == gm.FiniteAbelianGroup([2] * dim, 0)
    assert chow.KleinChowModule(M).dim(1) == dim


def test_quaternion_transfer_check_refuses_even_degrees():
    Q = make_quaternion(3)
    M = gm.make_omega2_trivial(Q)
    for i in (0, 2):
        with pytest.raises(UnsupportedFamilyError):
            chow.transfer_generation_check(Q, M, i)


def test_klein_transfer_check_refuses_other_degrees():
    # only degree 1 has a transfer comparison; a report without one would
    # say "generated" having checked nothing
    K = make_klein4()
    M = gm.make_trivial(K, "F2")
    for i in (0, 2, 3):
        with pytest.raises(UnsupportedFamilyError):
            chow.transfer_generation_check(K, M, i)
    assert chow.transfer_generation_check(K, M, 1) == {
        "group": "Klein4", "module": M.name, "degree": 1, "generated": True, "dim": 2}


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_klein_degree_data_adds_coboundaries_once(monkeypatch):
    calls = _count_calls(monkeypatch, f2.F2Span, "add_matrix")
    km = chow.KleinChowModule(gm.omega_negative_klein(4))
    assert (km.dim(1), km.dim(2)) == (7, 9)
    # u shifts the degree-1 basis down two slots, v keeps it in place
    assert np.array_equal(km.multiplication_matrix(1, 0), np.eye(9, 7, k=-2))
    assert np.array_equal(km.multiplication_matrix(1, 1), np.eye(9, 7))
    assert len(calls) == 2  # one coboundary span per degree


def test_quaternion_transfer_check_corestricts_once(monkeypatch):
    calls = _count_calls(monkeypatch, coh, "corestriction_cochain")
    snf = _count_calls(monkeypatch, intlin, "smith_normal_form")
    Q = make_quaternion(3)
    M = gm.make_omega2_trivial(Q)
    report = chow.transfer_generation_check(Q, M, 1)
    assert report == {"group": "Q8", "module": M.name, "degree": 1,
                      "generated": True, "span3": 4, "span_all": 4}
    assert len(calls) == 38  # 27 from the three index-2 subgroups, 11 more
    assert len(snf) == 1  # one class space serves both subgroup lists


def test_result_json_shape():
    G = make_cyclic(4)
    r = chow.twisted_chow_cyclic(G, gm.make_trivial(G), 1, oracle=True)
    j = r.to_json()
    assert j["value"] == {"free_rank": 0, "torsion": [4]}
    assert j["oracle"] == j["value"]
    rk = chow.twisted_chow_klein(gm.make_trivial(make_klein4(), "F2"), 2)
    assert rk.to_json()["value"] == {"dim": 3}
