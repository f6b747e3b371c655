import numpy as np
import pytest

from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist import kleinres
from chowtwist import intlin
from chowtwist.errors import ResourceCapError, VerificationError
from chowtwist.groups import make_klein4

from conftest import abelian


def _two_block_differential(M, n):
    """The minimal Klein resolution's delta_n : M^(n+1) -> M^(n+2) written
    out for two generators: (delta f)_(p,q) = (rho(g)+I) f_(p-1,q) +
    (rho(h)+I) f_(p,q-1), mod 2, slot s of degree n standing for
    e_(s, n-s)."""
    r = M.rank
    I = np.eye(r, dtype=np.int64)
    A = (M.act(kleinres.KLEIN_G) + I) % 2
    B = (M.act(kleinres.KLEIN_H) + I) % 2
    D = np.zeros(((n + 2) * r, (n + 1) * r), dtype=np.int64)
    for s in range(n + 2):
        if s >= 1:
            D[s * r: (s + 1) * r, (s - 1) * r: s * r] += A
        if n + 1 - s >= 1:
            D[s * r: (s + 1) * r, s * r: (s + 1) * r] += B
    return D % 2


def test_tensor_resolution_is_the_two_block_klein_formula():
    G = make_klein4()
    mods = [gm.make_trivial(G, "F2"), gm.make_regular(G, "F2"), gm.omega_klein(3, G),
            gm.omega_negative_klein(2, G), gm.omega_negative_klein(3, G)]
    for M in mods:
        for n in range(8):
            assert np.array_equal(kleinres.cochain_differential(M, n),
                                  _two_block_differential(M, n)), (M.name, n)


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
    with pytest.raises(ResourceCapError, match="delta_2 of the tensor resolution needs 12 cells, cap is 11") as exc:
        kleinres.cochain_differential(M, 2)
    assert exc.value.cells == 12
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "12")
    assert kleinres.cochain_differential(M, 2).shape == (4, 3)


def test_resource_cap_counts_the_cells_of_a_c2xc6_matrix(monkeypatch):
    # two generators and trivial Z: delta_2 is again 4 x 3 = 12 cells
    G = abelian([2, 6], "C2xC6")
    M = gm.make_trivial(G)
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "11")
    with pytest.raises(ResourceCapError, match="delta_2 of the tensor resolution needs 12 cells, cap is 11") as exc:
        kleinres.cochain_differential(M, 2, G.abelian_basis())
    assert exc.value.cells == 12
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "12")
    assert kleinres.cochain_differential(M, 2, G.abelian_basis()).shape == (4, 3)


def test_tensor_resolution_squares_to_zero_over_z():
    for orders in ([2, 2], [2, 6], [3, 3], [2, 2, 2], [4]):
        G = abelian(orders, "A")
        M = gm.make_regular(G)
        deltas = [kleinres.cochain_differential(M, n, G.abelian_basis()) for n in range(4)]
        for n in range(3):
            assert not intlin.product(deltas[n + 1], deltas[n]).any(), (orders, n)


def test_a_flipped_sign_fails_the_square_check(monkeypatch):
    # on C2 x C2, delta^1 has the blocks D_1 and -D_2 into slot (1, 1);
    # flipping the sign of the second one breaks delta^1 delta^0 = 0
    G = abelian([2, 2], "C2xC2")
    M = gm.make_regular(G)
    assert coh.cohomology(G, M, 1).to_json() == coh.bar_cohomology(G, M, 1).to_json()
    build = kleinres.cochain_differential

    def tampered(M, n, gens=(kleinres.KLEIN_G, kleinres.KLEIN_H)):
        D = build(M, n, gens)
        if n == 1:
            r = M.rank
            D[r: 2 * r, r: 2 * r] *= -1  # row slot (1, 1), column slot (1, 0)
        return D

    monkeypatch.setattr(kleinres, "cochain_differential", tampered)
    with pytest.raises(VerificationError, match="delta\\^1 delta\\^0 is not zero"):
        coh.cohomology(G, M, 1)
