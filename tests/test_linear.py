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


def _det_int(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def test_modular_invariant_factors_check_a_given_rank():
    # a given rank replaces the pass modulo a large prime; the pivots over
    # Z/p^(k+1) must still number it
    rng = random.Random(21)
    for exponent in (2, 6, 8, 12):
        for _ in range(12):
            A = _random_with_factors(rng, rng.randint(1, 7), rng.randint(1, 7),
                                     exponent)
            want = intlin.invariant_factors(A, exponent)
            rank = want[1]
            assert intlin.invariant_factors(A, exponent, rank) == want
            for wrong in (rank - 1, rank + 1):
                if 0 <= wrong <= min(A.shape):
                    with pytest.raises(VerificationError,
                                       match="rank %d given" % wrong):
                        intlin.invariant_factors(A, exponent, wrong)
            for outside in (-1, min(A.shape) + 1):
                with pytest.raises(ValueError, match="outside"):
                    intlin.invariant_factors(A, exponent, outside)
    assert intlin.invariant_factors(np.zeros((0, 3), dtype=np.int64), 6, 0) == ([], 0)
    with pytest.raises(ValueError, match="outside"):
        intlin.invariant_factors(np.zeros((0, 3), dtype=np.int64), 6, 1)


def test_pivot_count_refusal_names_its_inputs():
    ell = intlin._rank_prime(2)
    with pytest.raises(VerificationError) as exc:
        intlin.invariant_factors([[4, 0, 0]], 2)
    msg = str(exc.value)
    for part in ("2-valuation above 1", "0 pivots over Z/2^2", "1 x 3 matrix",
                 "exponent 2", "rank 1 found modulo %d" % ell):
        assert part in msg, msg
    with pytest.raises(VerificationError, match="1 pivots over Z/2\\^2 of a"
                       " 2 x 2 matrix with exponent 2, rank 2 given"):
        intlin.invariant_factors([[1, 0], [0, 0]], 2, 2)


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
    # a lattice of known rank: the coinvariants of the regular C3 module
    free, fac = intlin.quotient_structure(3, [[1, -1, 0], [0, 1, -1]], 3, 2)
    assert free == 1 and fac == []


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


def _reference_rref(a, p):
    """Gauss-Jordan elimination one row update at a time, on the exact
    residues of an integer array: the loop fp.rref used to run.  Returns
    (nonzero rows of the RREF, pivot columns)."""
    R = (np.array(a, dtype=object) % p).astype(np.int64)
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row] = (R[row] * pow(int(R[row, col]), p - 2, p)) % p
        for r in range(m):
            if r != row and R[r, col]:
                R[r] = (R[r] - R[r, col] * R[row]) % p
        pivots.append(col)
        row += 1
    return R[:row], pivots


def _reference_nullspace(R, pivots, n, p):
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, fc]) % p
    return basis


def _reference_solve(a, b, p):
    """The solution with every free variable zero, or None."""
    n = a.shape[1]
    R, pivots = _reference_rref(np.concatenate([a, b], axis=1), p)
    if any(c >= n for c in pivots):
        return None
    X = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        X[pc] = R[i, n:]
    return X


def _fp_matrices(rng, p):
    """Seeded integer matrices: empty both ways, 1 x 1, tall, wide and
    square, sparse enough to be rank-deficient often, with negative
    entries.  Each comes as an int64 array and as an object array of the
    same residues whose entries lie past 2^63."""
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (11, 3), (3, 11), (6, 6)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(20)]
    out = []
    for m, n in shapes:
        A = np.array([[rng.randint(-7, 7) if rng.random() < 0.6 else 0
                       for _ in range(n)] for _ in range(m)],
                     dtype=np.int64).reshape(m, n)
        big = np.array([[x + p * rng.randrange(1 << 63, 1 << 70) for x in row]
                        for row in A.tolist()], dtype=object).reshape(m, n)
        out += [A, big]
    return out


def _bar_matrices():
    """Bar coboundaries: Q8 over F_2 (delta_1..delta_3, up to 2401 x 343)
    and C3 over F_3 (delta_7, delta_8)."""
    from chowtwist.cohomology import BarComplex
    from chowtwist.gmodules import make_trivial
    from chowtwist.groups import make_cyclic, make_quaternion
    q8 = BarComplex(make_quaternion(3), make_trivial(make_quaternion(3), "F2"))
    c3 = BarComplex(make_cyclic(3), make_trivial(make_cyclic(3), "F3"))
    return ([(q8.delta_matrix(n), 2) for n in (1, 2, 3)]
            + [(c3.delta_matrix(n), 3) for n in (7, 8)])


def _check_fp_against_reference(A, p, rng, reference_solve=True):
    before = A.copy()
    m, n = A.shape
    want_R, want_piv = _reference_rref(A, p)
    R, piv = fp.rref(A, p)
    assert R.dtype == np.int64 and R.shape == (len(piv), n)
    assert piv == want_piv and np.array_equal(R, want_R)
    assert fp.rank(A, p) == len(want_piv)
    want_N = _reference_nullspace(want_R, want_piv, n, p)
    assert np.array_equal(fp.nullspace(A, p), want_N)
    assert np.array_equal(fp.Span(n, p, A).basis(), want_R)
    residues = (np.array(A, dtype=object) % p).astype(np.int64)
    X = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(n)],
                 dtype=np.int64).reshape(n, 2)
    B = residues @ X % p
    if reference_solve:
        noise = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(m)],
                         dtype=np.int64).reshape(m, 2)
        for b in (B, noise, B[:, 0], noise[:, 0]):
            want = _reference_solve(residues, b[:, None] if b.ndim == 1 else b, p)
            got = fp.solve(A, b, p)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want[:, 0] if b.ndim == 1 else want)
    else:
        # the solution whose free variables are zero is the reference's
        sol = fp.solve(A, B, p)
        assert not ((residues @ sol - B) % p).any()
        assert not sol[[c for c in range(n) if c not in want_piv]].any()
    # the caller's array is read, never written
    assert A.dtype == before.dtype and np.array_equal(A, before)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_elimination_matches_per_row_reference(p):
    rng = random.Random(200 + p)
    for A in _fp_matrices(rng, p):
        _check_fp_against_reference(A, p, rng)
        if len(A):  # a list with no rows does not know its width
            R, piv = fp.rref(A.tolist(), p)
            want_R, want_piv = _reference_rref(A, p)
            assert piv == want_piv and np.array_equal(R, want_R)


def test_fp_elimination_matches_reference_on_bar_matrices():
    rng = random.Random(210)
    for d, p in _bar_matrices():
        _check_fp_against_reference(d, p, rng, reference_solve=False)


@pytest.mark.parametrize("rows,bits", [
    ([[-1, 2, 3]], [1, 0, 1]),  # a list with an entry outside 0..255
    ([[256, 257, -2, -255]], [0, 1, 0, 1]),
    (np.array([[-3, -4, 7]], dtype=np.int64), [1, 0, 1]),  # negative int64
    # Python ints past 2^63, in an object array and in a list
    (np.array([[1 << 64, (1 << 63) + 1, -(1 << 70) - 1]], dtype=object),
     [0, 1, 1]),
    ([[1 << 63, -1, 1 << 80]], [0, 1, 0]),
], ids=["list", "list-wide", "int64-negative", "object-big", "list-big"])
def test_f2_pack_reads_integers_mod_2(rows, bits):
    packed = f2.pack_rows(rows)
    assert np.array_equal(f2.unpack_rows(packed, len(bits)), [bits])
    assert np.array_equal(packed, f2.pack_rows(np.array([bits], dtype=np.uint8)))


def test_f2_pack_makes_no_int64_copy():
    import tracemalloc
    M = np.arange(-1000, 1000, dtype=np.int64).reshape(40, 50).repeat(20, axis=0)
    tracemalloc.start()
    try:
        packed = f2.pack_rows(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(f2.unpack_rows(packed, 50), M % 2)
    assert peak < 3 * M.size  # a uint8 copy and its packed bits, well below 8 bytes a cell


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


def test_f2_residual_is_linear():
    # the residual clears every pivot bit, so it is the projection along
    # the span: linear, and zero exactly on the span
    rng = np.random.default_rng(8)
    for n in (5, 64, 130):
        rows = rng.integers(0, 2, size=(n // 2, n))
        span = f2.F2Span(n, f2.pack_rows(rows))
        for _ in range(20):
            v, w = rng.integers(0, 2, size=(2, n))
            rv, rw = (span.residual(f2.pack_rows(x)[0]) for x in (v, w))
            assert np.array_equal(span.residual(f2.pack_rows(v ^ w)[0]), rv ^ rw)
            bits = f2.unpack_rows(rv.reshape(1, -1), n)[0]
            assert not bits[list(span.pivots)].any()
            assert (fp.rank(np.vstack([rows, v]), 2) == span.rank) == (not rv.any())
            assert fp.rank(np.vstack([rows, v ^ bits]), 2) == span.rank
            both = span.residual(f2.pack_rows(np.vstack([v, w])))
            assert np.array_equal(both, np.vstack([rv, rw]))


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
