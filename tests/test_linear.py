"""Exact integer linear algebra, dense F_p and packed F_2 layers."""

import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from chowtwist import f2, fp, intlin
from chowtwist.errors import VerificationError
from chowtwist.gmodules import _det_int


def _rand_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def mat_mult(A, B):
    """Exact product of two list-of-rows matrices, in Python ints."""
    n = len(B)
    assert all(len(row) == n for row in A)
    p = len(B[0]) if n else 0
    Bc = [[B[i][j] for i in range(n)] for j in range(p)]
    return [[sum(row[k] * col[k] for k in range(n)) for col in Bc] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _fibonacci(n):
    fib = [0, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return fib


def test_snf_divisibility_and_invariance():
    rng = random.Random(1)
    for _ in range(25):
        A = _rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        diag, _ = intlin.smith_normal_form(A)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert len(diag) == intlin.ColumnEchelon(A).rank


def _check_forward_transform(A, diag, u):
    # u is unimodular and u A = D V^-1: row j is divisible by diag[j],
    # and the rows past the rank vanish
    u = u.tolist()  # exact Python ints, whatever the array's dtype
    assert abs(_det_int(u)) == 1
    for j, row in enumerate(mat_mult(u, A)):
        if j < len(diag):
            assert all(x % diag[j] == 0 for x in row)
        else:
            assert not any(row)


def test_snf_forward_transform():
    rng = random.Random(2)
    for _ in range(10):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = _rand_matrix(rng, m, n)
        diag, u = intlin.smith_normal_form(A, want_u=True)
        assert u.dtype == np.int64
        _check_forward_transform(A, diag, u)


def test_snf_transform_switches_to_exact_ints():
    # Euclid on consecutive Fibonacci numbers takes quotient 1 at every
    # step, so the transform's entries grow like the Fibonacci numbers
    fib = _fibonacci(100)
    A = [[fib[-1], 2], [fib[-2], 4], [0, 6]]
    diag, u = intlin.smith_normal_form(A, want_u=True)
    assert u.dtype == object
    assert max(abs(x) for x in u.ravel()) >= 1 << 62
    _check_forward_transform(A, diag, u)


def _random_with_factors(rng, m, n, exponent):
    """A random m x n matrix whose nonzero invariant factors divide the
    exponent: a diagonal chain mixed by a few small row and column moves."""
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    chain, d = [], 1
    for _ in range(rng.randint(0, min(m, n))):
        d = math.lcm(d, rng.choice(divisors))
        chain.append(d)
    A = np.zeros((m, n), dtype=np.int64)
    for i, d in enumerate(chain):
        A[i, i] = d
    for _ in range(m + n):
        if m > 1:
            i, j = rng.sample(range(m), 2)
            A[i] += rng.choice((-1, 1)) * A[j]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            A[:, i] += rng.choice((-1, 1)) * A[:, j]
    return A


@pytest.mark.parametrize("exponent", [1, 2, 6, 8, 9, 12, 30, 64])
def test_modular_invariant_factors_match_snf(exponent):
    rng = random.Random(exponent)
    shapes = [(0, 0), (0, 3), (3, 0), (4, 4), (1, 7), (9, 2)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    for m, n in shapes:
        A = _random_with_factors(rng, m, n, exponent)
        diag, _ = intlin.smith_normal_form(A.tolist())
        want = ([d for d in diag if d != 1], len(diag))
        assert intlin.invariant_factors(A, exponent) == want
        assert intlin.invariant_factors(A.tolist(), exponent) == want
    zero = np.zeros((3, 5), dtype=np.int64)
    assert intlin.invariant_factors(zero, exponent) == ([], 0)
    # entries far past int64 are reduced as Python ints first
    big = [[exponent, 0], [exponent << 80, 1]]
    diag, _ = intlin.smith_normal_form(big)
    assert intlin.invariant_factors(big, exponent) == ([d for d in diag if d != 1],
                                                       len(diag))


def test_modular_invariant_factors_refuse_a_short_exponent():
    with pytest.raises(VerificationError):
        intlin.invariant_factors([[4]], 2)
    # the refusal is a real exception, which python -O does not strip
    code = ("from chowtwist import intlin\n"
            "from chowtwist.errors import VerificationError\n"
            "try:\n"
            "    intlin.invariant_factors([[4]], 2)\n"
            "except VerificationError as exc:\n"
            "    print('raised:', exc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: an invariant factor has 2-valuation"), \
        out.stdout


def test_bounded_product_is_exact():
    A = np.array([[1 << 40, 3], [-5, 1 << 40]], dtype=np.int64)
    small = intlin.product(A, np.array([[2], [7]]))
    assert small.dtype == np.int64
    assert small.tolist() == [[(1 << 41) + 21], [(7 << 40) - 10]]
    big = intlin.product(A, A)  # int64 would wrap at 2^80
    assert big.dtype == object
    assert big.tolist() == mat_mult(A.tolist(), A.tolist())
    huge = np.array([[1 << 70, 1]], dtype=object)  # no int64 copy of it exists
    assert intlin.product(huge, np.zeros((2, 0), dtype=np.int64)).shape == (1, 0)
    assert intlin.product(huge, np.zeros((2, 1), dtype=np.int64)).tolist() == [[0]]


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
            assert all(x == 0 for x in mat_vec(A, v))


def test_solve_int():
    A = [[2, 0], [0, 3]]
    assert intlin.ColumnEchelon(A).solve([[4], [9]]).tolist() == [[2], [3]]
    assert intlin.ColumnEchelon(A).solve([[1], [0]]) is None


def test_quotient_structure():
    free, fac = intlin.quotient_structure(2, [[2, 0], [0, 3]], 6)
    assert free == 0 and fac == [6]  # Z/2 + Z/3 = Z/6
    free, fac = intlin.quotient_structure(3, [[2, 0, 0]], 2)
    assert free == 2 and fac == [2]
    free, fac = intlin.quotient_structure(2, [], 1)
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
            assert all(x % k == 0 for x, k in zip(mat_vec(A, v), ks))
            lat.add(v)
        assert len(basis) == n  # full rank: L Z^n lies inside
        for x in itertools.product(range(L), repeat=n):
            inside = all(y % k == 0 for y, k in zip(mat_vec(A, x), ks))
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
    A = [[1, 2], [0, 3]]
    x = [5, 3]
    X = intlin.ColumnEchelon(A).solve([[b] for b in mat_vec(A, x)])
    assert X.ravel().tolist() == x


def _echelon_matrices(seed=9):
    """Seeded matrices as lists of rows: empty, tall, wide and square, and
    every third one rank-deficient (a product through a narrower inner
    dimension)."""
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (7, 2), (2, 7), (5, 5)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(24)]

    def sparse(r, c):
        return [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(c)]
                for _ in range(r)]

    out = []
    for i, (m, n) in enumerate(shapes):
        if i % 3 == 2 and m and n:
            k = rng.randint(1, min(m, n))
            out.append(mat_mult(sparse(m, k), sparse(k, n)))
        else:
            out.append(sparse(m, n))
    return out


# kernel_basis of each _echelon_matrices() entry, as the pure-Python column
# echelon returned it: `coflasque --prune` output depends on these bases
_PINNED_KERNELS = [
    [], [], [], [],
    [[1, 0, 0, 0, -4, 0, 0], [0, 1, 1, 0, -4, 0, 0], [0, 0, 0, 1, 3, 0, 0],
     [0, 0, 0, 0, 2, 1, 0], [0, 0, 0, 0, -3, 0, 1]],
    [], [[1, 0, 1, 0, 0]], [[0, 1, 0]], [[1, 3]], [], [[-2, -3, 0], [0, -2, 1]],
    [[-3, 10, 12, -28]], [], [[1, 0, -9, 6, 0], [0, 1, 0, 0, 0]],
    [[0, 1, 0, 0, 0, 0], [4, 0, 6, 1, 0, 0], [4, 0, 8, 0, 1, 0],
     [-1, 0, -1, 0, 0, 1]],
    [[1, 0, 0, 0, 0, 0], [0, 1, 0, -4, 0, 0], [0, 0, 1, 0, 0, 0],
     [0, 0, 0, 0, 1, 0], [0, 0, 0, -2, 0, 1]],
    [], [[1, 0, 0, 0], [0, -3, -3, 7]], [], [], [[1]], [[1, 0]],
    [[-16, 28, 12, 24, 0, -48, 21], [-1, 1, -1, 0, 1, 0, 0]], [[1]], [],
    [[6, -3, 0, -12, 16, 12, 20], [1, -2, 1, 3, -1, -3, -5],
     [6, -6, 0, 6, 1, -3, -9]],
    [], [], [],
    [[-27, 0, -2, 0, -4, -16, 0], [-18, 1, 0, 0, -3, -12, 0],
     [-28, 0, -1, 1, -5, -18, 0], [6, 0, -1, 0, 1, 4, 1]],
]


def test_column_echelon_kernels_are_pinned():
    assert [intlin.kernel_basis(A) for A in _echelon_matrices()] == _PINNED_KERNELS


def _check_echelon(A, n, rng, dtype):
    """A V = E with V unimodular, a saturated kernel of the right size, and
    A X == B exactly for the multi-RHS solve, past one block of columns."""
    ce = intlin.ColumnEchelon(A)
    assert ce.V.dtype == dtype
    V = ce.V.tolist()
    assert abs(_det_int(V)) == 1
    kernel = ce.kernel_basis()
    assert len(kernel) == n - ce.rank
    for v in kernel:
        assert not any(mat_vec(A, v))
    for count in (0, 1, 70):
        X = [[rng.randint(-9, 9) for _ in range(count)] for _ in range(n)]
        B = mat_mult(A, X) if n else [[0] * count for _ in A]
        sol = ce.solve(B).tolist()
        assert mat_mult(A, sol) == B if n else sol == []


def test_column_echelon_solve_properties():
    rng = random.Random(10)
    for A in _echelon_matrices():
        _check_echelon(A, len(A[0]) if A else 0, rng, np.int64)
    # a matrix with zero rows still has n columns, so its kernel is Z^n
    assert intlin.kernel_basis(np.zeros((0, 3), dtype=np.int64)) == np.eye(3).tolist()
    # Euclid on consecutive Fibonacci numbers: entries that fit int64 at the
    # start, and elimination that needs exact Python ints after
    fib = _fibonacci(100)
    A = [[fib[90], fib[89], 0], [0, 1, fib[90]]]
    assert np.asarray(A).dtype == np.int64
    _check_echelon(A, 3, rng, object)
    _check_echelon([[fib[99], fib[98], 1]], 3, rng, object)  # past int64 at once
    b = mat_vec(A, [fib[45], -3, 1])
    sol = intlin.ColumnEchelon(A).solve([[x] for x in b])
    assert mat_vec(A, sol.ravel().tolist()) == b
    assert intlin.ColumnEchelon(A).solve([[b[0] + 1], [b[1]]]) is None


def test_lattice_coords_unique_and_outside():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(1, 7)
        k = rng.randint(1, dim)
        basis = _rand_matrix(rng, k, dim)
        if intlin.ColumnEchelon(np.array(basis).T).rank < k:
            continue  # dependent: coordinates are not unique
        coords = _rand_matrix(rng, rng.randint(1, 5), k, -20, 20)
        vectors = mat_mult(coords, basis)
        assert intlin.lattice_coords(basis, vectors, dim).T.tolist() == coords
        X = intlin.lattice_coords(np.array(basis), np.array(vectors), dim)
        assert X.shape == (k, len(coords)) and X.T.tolist() == coords
    with pytest.raises(RuntimeError):
        intlin.lattice_coords([[2, 0], [0, 2]], [[2, 2], [1, 0]], 2)  # not in 2Z^2
    with pytest.raises(RuntimeError):
        intlin.lattice_coords([[1, 0, 0]], [[0, 1, 0]], 3)  # not in the span
    assert intlin.lattice_coords([[1, 0]], [], 2).shape == (1, 0)


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
