"""Exact integer linear algebra, dense F_p and packed F_2 layers."""

import itertools
import math
import random

import numpy as np
import pytest

from chowtwist import f2, fp, intlin
from chowtwist.gmodules import _det_int


def _rand_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_divisibility_and_invariance():
    rng = random.Random(1)
    for _ in range(25):
        A = _rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        diag, _ = intlin.smith_normal_form(A)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert len(diag) == intlin.ColumnEchelon(A).rank


def test_snf_forward_transform():
    rng = random.Random(2)
    for _ in range(10):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = _rand_matrix(rng, m, n)
        diag, u = intlin.smith_normal_form(A, want_u=True)
        # u is unimodular and u A = D V^-1: row j is divisible by diag[j],
        # and the rows past the rank vanish
        assert abs(_det_int(u)) == 1
        for j, row in enumerate(intlin.mat_mult(u, A)):
            if j < len(diag):
                assert all(x % diag[j] == 0 for x in row)
            else:
                assert not any(row)


def test_kernel_saturated():
    # kernel of [2 4] is generated by (2, -1), not (4, -2)
    ker = intlin.kernel_basis([[2, 4]])
    assert len(ker) == 1
    from math import gcd
    assert gcd(ker[0][0], ker[0][1]) == 1
    rng = random.Random(3)
    for _ in range(20):
        A = _rand_matrix(rng, 3, 5)
        for v in intlin.kernel_basis(A):
            assert all(x == 0 for x in intlin.mat_vec(A, v))


def test_solve_int():
    A = [[2, 0], [0, 3]]
    assert intlin.ColumnEchelon(A).solve([4, 9]) == [2, 3]
    assert intlin.ColumnEchelon(A).solve([1, 0]) is None


def test_quotient_structure():
    free, fac = intlin.quotient_structure(2, [[2, 0], [0, 3]])
    assert free == 0 and fac == [6]  # Z/2 + Z/3 = Z/6
    free, fac = intlin.quotient_structure(3, [[2, 0, 0]])
    assert free == 2 and fac == [2]
    free, fac = intlin.quotient_structure(2, [])
    assert free == 2 and fac == []


def test_kernel_mod_matches_brute_force():
    # {x : A x = 0 mod k} contains L Z^n for L = lcm(k), so it is spanned by
    # L e_i and its points in the box [0, L)^n
    rng = random.Random(8)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = _rand_matrix(rng, m, n, -4, 4)
        ks = [rng.randint(2, 4) for _ in range(m)]
        L = 1
        for k in ks:
            L = L * k // math.gcd(L, k)
        basis = intlin.kernel_mod(A, ks)
        lat = intlin.IntLattice(n)
        for v in basis:
            assert all(x % k == 0 for x, k in zip(intlin.mat_vec(A, v), ks))
            lat.add(v)
        assert len(basis) == n  # full rank: L Z^n lies inside
        for x in itertools.product(range(L), repeat=n):
            inside = all(y % k == 0 for y, k in zip(intlin.mat_vec(A, x), ks))
            assert lat.contains(list(x)) == inside
        for i in range(n):
            assert lat.contains([L if j == i else 0 for j in range(n)])


def test_int_lattice_membership():
    lat = intlin.IntLattice(2)
    assert lat.add([2, 0])
    assert lat.add([0, 2])
    assert lat.contains([4, 6])
    assert not lat.contains([1, 0])
    assert lat.add([1, 1])
    assert lat.contains([1, 1]) and lat.contains([0, 2])


def test_column_echelon_coords():
    ce = intlin.ColumnEchelon([[1, 2], [0, 3]], track_inverse=True)
    x = [5, 3]
    c = ce.coords(x)
    recon = intlin.mat_vec([list(r) for r in zip(*ce.V)], c)  # V c, V columns
    assert recon == x


def test_fp_rref_nullspace_solve():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(15):
            A = np.array(_rand_matrix(rng, 4, 6, 0, p - 1), dtype=np.int64)
            N = fp.nullspace(A, p)
            assert len(N) == 6 - fp.rank(A, p)
            for v in N:
                assert not ((A @ v) % p).any()
            x = np.array([rng.randrange(p) for _ in range(6)], dtype=np.int64)
            b = (A @ x) % p
            sol = fp.solve(A, b, p)
            assert sol is not None
            assert not ((A @ sol - b) % p).any()


def test_f2_pack_roundtrip():
    rng = random.Random(5)
    M = np.array([[rng.randrange(2) for _ in range(130)] for _ in range(7)],
                 dtype=np.int64)
    packed = f2.pack_rows(M)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    assert np.array_equal(bits[:, :130].astype(np.int64), M)


def test_f2_span_matches_dense_rank():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 100)
        M = np.array([[rng.randrange(2) for _ in range(n)]
                      for _ in range(rng.randint(1, 30))], dtype=np.int64)
        assert f2.F2Span(n, f2.pack_rows(M)).rank == fp.rank(M, 2)


def test_f2_span_incremental_add():
    rng = random.Random(7)
    n = 64
    span = f2.F2Span(n)
    dense = []
    for _ in range(40):
        v = np.array([rng.randrange(2) for _ in range(n)], dtype=np.int64)
        grew = span.add(f2.pack_rows(v)[0])
        dense.append(v)
        r = fp.rank(np.array(dense), 2)
        assert span.rank == r
        assert grew == (r > fp.rank(np.array(dense[:-1]), 2) if len(dense) > 1
                        else v.any())
        assert span.contains(f2.pack_rows(v)[0])


def test_f2_express_mod_span():
    n = 8
    span = f2.F2Span(n)
    span.add_matrix(f2.pack_rows(np.eye(n, dtype=np.int64)[:2]))  # e0, e1
    basis = [f2.pack_rows(np.eye(n, dtype=np.int64)[i])[0] for i in (2, 3)]
    target = np.zeros(n, dtype=np.int64)
    target[[0, 2, 3]] = 1  # e0 + e2 + e3: e0 dies mod the span
    coeffs = f2.express_mod_span(span, basis, f2.pack_rows(target)[0])
    assert coeffs == [1, 1]
    target[4] = 1
    assert f2.express_mod_span(span, basis, f2.pack_rows(target)[0]) is None


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0)]:
        g, x, y = intlin.xgcd(a, b)
        assert g == x * a + y * b
        assert g >= 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_span_matches_rref(p):
    rng = random.Random(100 + p)
    for _ in range(40):
        n = rng.randint(0, 12)
        span = fp.Span(n, p)
        rows = np.zeros((0, n), dtype=np.int64)
        for _ in range(rng.randint(1, 15)):
            # sparse rows so that dependent ones come up often
            v = np.array([rng.randrange(p) if rng.random() < 0.5 else 0
                          for _ in range(n)], dtype=np.int64)
            before = span.rank
            grew = span.add(v)
            rows = np.vstack([rows, v])
            r = fp.rank(rows, p)
            assert span.rank == r
            assert grew == (r > before)
            assert span.contains(v) and span.contains((p - 1) * v - p)
            w = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            assert span.contains(w) == (fp.rank(np.vstack([rows, w]), p) == r)
            assert np.array_equal(span.basis(), fp.rref(rows, p)[0][:r])
        assert np.array_equal(fp.Span(n, p, rows).basis(), span.basis())
