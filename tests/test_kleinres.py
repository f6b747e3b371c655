import numpy as np
import pytest

from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist import kleinres
from chowtwist.errors import ResourceCapError
from chowtwist.groups import make_klein4


def _resolution_differential(n):
    """d_n : P_n -> P_(n-1) of the minimal resolution, as the transposed
    cochain differential on the regular module."""
    return kleinres.cochain_differential(gm.make_regular(make_klein4(), "F2"), n - 1).T


def test_resolution_is_a_complex():
    for n in (1, 2, 3, 4):
        d1 = _resolution_differential(n)
        d2 = _resolution_differential(n + 1)
        assert not ((d1 @ d2) % 2).any()


def test_minimal_ranks():
    # rank of P_n is 4(n+1): one group-algebra block per Koszul slot
    for n in (0, 1, 2, 3):
        d = _resolution_differential(n + 1)
        assert d.shape == (4 * (n + 1), 4 * (n + 2))


def test_cohomology_dim_matches_bar():
    # cohomology takes the minimal resolution for a Klein F_2 module
    G = make_klein4()
    mods = [gm.make_trivial(G, "F2")]
    for m in (1, 2, 3):
        mods += [gm.omega_klein(m, G), gm.omega_negative_klein(m, G)]
    for M in mods:
        for n in range(6):
            small = coh.cohomology(G, M, n).to_json()
            assert small == coh.bar_cohomology(G, M, n).to_json(), (M.name, n)


def test_monomial_cocycles_are_cocycles():
    M = gm.omega_negative_klein(2)
    delta = kleinres.cochain_differential(M, 2)
    for m0 in M.fixed_points():
        z = kleinres.monomial_cocycle(M, m0, 2, 0)
        assert not ((delta @ z) % 2).any()
        z = kleinres.monomial_cocycle(M, m0, 0, 2)
        assert not ((delta @ z) % 2).any()


def test_shifts_commute_up_to_coboundary():
    M = gm.make_trivial(make_klein4(), "F2")
    m0 = M.fixed_points()[0]
    # shifting x then y agrees with the direct (2,2) monomial on the nose
    z = kleinres.monomial_cocycle(M, m0, 2, 0)
    # cup with y shifts (f_{p,q}) to (f_{p,q-1}): pad one zero slot at the end
    zy = np.concatenate([z, np.zeros(2 * M.rank, dtype=np.int64)])
    direct = kleinres.monomial_cocycle(M, m0, 2, 2)
    assert np.array_equal(zy % 2, direct % 2)


def test_resource_cap_counts_the_cells_of_each_klein_matrix(monkeypatch):
    # trivial F_2: delta_2 is 4 x 3 = 12 cells
    M = gm.make_trivial(make_klein4(), "F2")
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "11")
    with pytest.raises(ResourceCapError, match="delta_2 of the Klein resolution needs 12 cells, cap is 11") as exc:
        kleinres.cochain_differential(M, 2)
    assert exc.value.cells == 12
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "12")
    assert kleinres.cochain_differential(M, 2).shape == (4, 3)
