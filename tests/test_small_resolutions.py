"""cohomology.cohomology, which reads H^n off the 4-periodic resolution of
a generalized quaternion group or the tensor resolution of an abelian one,
against the normalized bar complex at the degrees where the bar complex is
cheap (the Klein F_2 modules are in test_kleinres)."""

import random

import numpy as np
import pytest

from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist.errors import VerificationError
from chowtwist.groups import make_cyclic, make_klein4, make_quaternion

from conftest import abelian, change_ring_mod, metacyclic, relabel


def _agree(G, modules, degrees):
    for M in modules:
        for n in degrees:
            small = coh.cohomology(G, M, n).to_json()
            assert small == coh.bar_cohomology(G, M, n).to_json(), (G.name, M.name, n)


def _cyclic_modules(m):
    G = make_cyclic(m)
    rng = random.Random(m)
    mods = [gm.make_trivial(G), gm.make_regular(G), gm.make_trivial(G, "F2"),
            gm.make_trivial(G, "F3")]
    if m % 2 == 0:
        mods.append(gm.make_sign_cyclic(G))
    if m > 1:
        mods.append(gm.make_augmentation_quotient(G))
    mods += [gm.random_cyclic_module(G, 3, rng) for _ in range(3)]
    return G, mods


@pytest.mark.parametrize("m", range(1, 10))
def test_cyclic_resolution_matches_bar(m):
    G, mods = _cyclic_modules(m)
    _agree(G, mods, range(4))


def _quaternion_modules(G):
    return [gm.make_trivial(G), gm.make_omega2_trivial(G), gm.make_regular(G),
            gm.augmentation_ideal(G), gm.make_augmentation_quotient(G),
            gm.make_trivial(G, "F2")]


@pytest.mark.parametrize("k, top", [(3, 3), (4, 2)])
def test_quaternion_resolution_matches_bar(k, top):
    G = make_quaternion(k)
    _agree(G, _quaternion_modules(G), range(top + 1))


@pytest.mark.parametrize("k, top", [(3, 3), (4, 2)])
def test_quaternion_resolution_of_a_relabelled_group(k, top):
    Q = make_quaternion(k)
    rng = random.Random(k)
    perm = [0] + rng.sample(range(1, Q.order), Q.order - 1)
    G = relabel(Q, perm)
    assert G.family() == "quaternion"
    mods = [gm.make_trivial(G), gm.make_regular(G), gm.make_trivial(G, "F2")]
    _agree(G, mods, range(top + 1))


def _abelian_modules(G):
    rng = random.Random(G.order)
    I = gm.augmentation_ideal(G)
    return [gm.make_trivial(G), gm.make_regular(G), I, gm.make_augmentation_quotient(G),
            gm.make_trivial(G, "F2"), gm.make_trivial(G, "F3"), change_ring_mod(I, 2),
            gm.random_lattice(G, rng)]


@pytest.mark.parametrize("orders, top", [([2, 2], 3), ([2, 4], 3), ([2, 2, 2], 3),
                                         ([3, 3], 2), ([2, 6], 2)],
                         ids=["C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "C2xC6"])
def test_tensor_resolution_matches_bar(orders, top):
    A = abelian(orders, "x".join("C%d" % m for m in orders))
    perm = [0] + random.Random(A.order).sample(range(1, A.order), A.order - 1)
    for G in (A, relabel(A, perm)):
        assert G.abelian_basis() is not None
        _agree(G, _abelian_modules(G), range(top + 1))


def test_tensor_resolution_in_degree_four_of_c2xc6():
    G = abelian([2, 6], "C2xC6")
    res = coh.cohomology(G, gm.make_trivial(G), 4)
    assert res.structure == gm.FiniteAbelianGroup([2, 2, 6])


def _bar_matrices_built(monkeypatch, G, modules, degrees):
    """The degrees of the bar matrices that coh.cohomology builds, and
    whether its answers agree with bar_cohomology (which builds bar
    matrices of its own, not counted)."""
    built, inside = [], [False]
    face = coh.BarComplex._face_matrix

    def counted(self, n, chains):
        if inside[0]:
            built.append(n)
        return face(self, n, chains)

    monkeypatch.setattr(coh.BarComplex, "_face_matrix", counted)
    agree = True
    for M in modules:
        for n in degrees:
            inside[0] = True
            small = coh.cohomology(G, M, n).to_json()
            inside[0] = False
            agree &= small == coh.bar_cohomology(G, M, n).to_json()
    return built, agree


def test_unrecognised_group_takes_the_bar_complex(monkeypatch):
    G = metacyclic(4, -1, 0, "D8")
    assert G.family() is None and G.abelian_basis() is None
    built, agree = _bar_matrices_built(
        monkeypatch, G, (gm.make_trivial(G), gm.make_trivial(G, "F2")), range(3))
    assert agree and built


def test_klein_over_z_and_f3_builds_no_bar_matrix(monkeypatch):
    G = make_klein4()
    built, agree = _bar_matrices_built(
        monkeypatch, G, (gm.make_trivial(G), gm.make_trivial(G, "F3")), range(4))
    assert agree and not built


def test_quaternion_periodicity_in_degree_four():
    G = make_quaternion(4)
    assert coh.cohomology(G, gm.make_trivial(G), 4).structure == gm.FiniteAbelianGroup([16])
    assert coh.cohomology(G, gm.make_trivial(G), 8).structure == gm.FiniteAbelianGroup([16])


def test_quaternion_maps_check_that_they_square_to_zero(monkeypatch):
    G = make_quaternion(3)
    M = gm.make_regular(G)
    assert len(coh.quaternion_maps(G, M)) == 4
    # the identity in place of the trace: delta^3 delta^2 is no longer 0
    monkeypatch.setattr(M, "trace_matrix", lambda: np.eye(M.rank, dtype=np.int64))
    with pytest.raises(VerificationError, match="delta\\^3 delta\\^2 is not zero"):
        coh.quaternion_maps(G, M)


def test_negative_degrees_are_refused():
    G = make_quaternion(3)
    with pytest.raises(ValueError, match="use tate"):
        coh.cohomology(G, gm.make_trivial(G), -1)
