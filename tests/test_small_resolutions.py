"""cohomology.cohomology, which reads H^n off the small resolution that
group.family() picks, against the normalized bar complex at the degrees
where the bar complex is cheap (the Klein F_2 case is in test_kleinres)."""

import random

import numpy as np
import pytest

from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist.errors import VerificationError
from chowtwist.groups import make_cyclic, make_quaternion

from conftest import abelian, relabel


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


def test_unrecognised_group_takes_the_bar_complex(monkeypatch):
    G = abelian([2, 4], "C2xC4")
    assert G.family() is None
    built = []
    face = coh.BarComplex._face_matrix
    monkeypatch.setattr(coh.BarComplex, "_face_matrix",
                        lambda self, n, chains: built.append(n) or face(self, n, chains))
    for M in (gm.make_trivial(G), gm.make_trivial(G, "F2")):
        for n in range(3):
            assert coh.cohomology(G, M, n).to_json() == coh.bar_cohomology(G, M, n).to_json()
    assert built


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
