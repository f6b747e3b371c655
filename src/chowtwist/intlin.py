"""Exact linear algebra over the integers.

The column echelon keeps its matrices in int64 numpy arrays while a running
bound on their entries stays below 2^62, and switches to exact object
arrays of Python ints when it would not, so intermediate entries can grow
past 64 bits without overflow.  It yields saturated kernel bases and exact
solves of many right-hand sides at once, and takes an integer array or a
list of rows.  Lattices and the Smith normal form work on plain Python
ints, as lists of rows (bar-resolution matrices for the order-8 quaternion
group grow past 64 bits during that elimination).

Invariant factors of finite quotients come from a modular kernel instead:
the caller passes an exponent that every nonzero invariant factor divides,
and elimination runs in int64 numpy arrays modulo small prime powers
(Iliopoulos, SIAM J. Comput. 18, 1989; Dumas-Saunders-Villard, J. Symb.
Comput. 32, 2001); the rank those eliminations must match is the caller's
when it is known over Q, and is otherwise found modulo a large prime.  The
same unit-pivot elimination, in reduced form, is fp.rref at p = 3 and 5.
No path of the package runs the Smith normal form: it stays, with its
numpy row transform, only as the reference the tests compare against and
as a layer the benchmark tracer wraps.  Products of numpy matrices that
may grow go through product(), which switches to exact Python ints before
int64 could wrap.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import VerificationError

# int64 arithmetic is exact while every intermediate stays below this
INT64_SAFE = 1 << 62
# rows per elimination update, and right-hand sides per block of a column
# echelon solve: bounds the temporaries, which peak RSS sees
_ROW_BLOCK = 64


def xgcd(a, b):
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _max_abs(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def product(A, B):
    """Exact A @ B of integer arrays (or nested lists).

    In int64 when both factors fit and max|A| * max|B| * (inner dimension)
    < 2^62, so no sum of products can wrap; otherwise in Python ints, as an
    object array.
    """
    A, B = np.asarray(A), np.asarray(B)
    a, b = _max_abs(A), _max_abs(B)
    if max(a, b, a * b * A.shape[-1]) < INT64_SAFE:
        return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    return A.astype(object) @ B.astype(object)


def _as_matrix(rows):
    """A 2-D integer array of a matrix given as an array or a list of rows:
    int64 when every entry fits, an object array of Python ints otherwise."""
    A = np.asarray(rows)
    if A.ndim != 2:  # an empty list of rows
        A = A.reshape(len(rows), 0)
    if A.dtype.kind == "i" or not A.size:
        return A.astype(np.int64, copy=False)
    # entries past int64 make the array uint64, float64 or object
    return np.array([[int(x) for x in row] for row in rows],
                    dtype=object).reshape(A.shape)


def _widen(a, bound, step):
    """(a, bound) once every entry of a may have grown by step in absolute
    value: the bound is retaken from a when the running one would pass
    2^62, and a becomes an exact object array when the true one would."""
    if a.dtype == object:
        return a, bound
    if bound + step >= INT64_SAFE:
        bound = _max_abs(a)
        if bound + step >= INT64_SAFE:
            return a.astype(object), bound
    return a, bound + step


class ColumnEchelon:
    """Column echelon form A*V = E computed by unimodular column operations.

    Zero columns of E give a basis of ker(A); because V is unimodular the
    kernel basis is automatically saturated.  E is kept transposed, as C
    (C[c] is column c of E), and V as V[c] = column c of V; both are int64
    while a running bound on their entries stays below 2^62, and exact
    object arrays after.
    """

    def __init__(self, rows):
        C = _as_matrix(rows).T.copy()
        n, m = C.shape
        self.m, self.n = m, n
        C, bound_c = _widen(C, 0, _max_abs(C))
        V, bound_v = np.eye(n, dtype=C.dtype), 1
        active = np.arange(n)
        pivots = []
        for r in range(m):
            nz = active[C[active, r] != 0]
            while nz.size > 1:
                # Euclid round: every other column drops by a multiple of the
                # first one of least absolute value at row r; no multiple is
                # zero, as no other value is smaller
                size = np.abs(C[nz, r])
                k = int(size.argmin())
                j = nz[k]
                others = nz[nz != j]
                q = C[others, r, None] // C[j, r]
                qmax = int(size.max()) // int(size[k]) + 1  # bounds |q|
                C, bound_c = _widen(C, bound_c, qmax * _max_abs(C[j, r:]))
                V, bound_v = _widen(V, bound_v, qmax * _max_abs(V[j]))
                # columns in play are zero above row r
                C[others, r:] -= q * C[j, r:]
                V[others] -= q.astype(V.dtype, copy=False) * V[j]
                nz = np.concatenate((others[C[others, r] != 0], nz[k:k + 1]))
            if nz.size:
                p = nz[0]
                if C[p, r] < 0:
                    C[p] = -C[p]
                    V[p] = -V[p]
                pivots.append((r, int(p)))
                active = active[active != p]
        self.C = C
        self.V = V
        self.pivots = pivots
        self.kernel_cols = active.tolist()

    @property
    def rank(self):
        return len(self.pivots)

    def kernel_basis(self):
        """Saturated basis of {x : A x = 0}, as a list of length-n vectors."""
        return self.V[self.kernel_cols].tolist()

    def solve(self, B):
        """Integer X with A X = B for a matrix B of right-hand sides (one per
        column), as an n x N array; None if some column has no solution.

        Forward substitution along the pivots and one product with V, for
        _ROW_BLOCK right-hand sides at a time.
        """
        C = self.C
        B = _as_matrix(B)
        if C.dtype == object:
            B = B.astype(object)
        N = B.shape[1]
        steps = [(r, c, np.flatnonzero(C[c]), _max_abs(C[c]))
                 for r, c in self.pivots]
        X = np.zeros((self.n, N), dtype=B.dtype)
        for s in range(0, N, _ROW_BLOCK):
            R = B[:, s:s + _ROW_BLOCK].copy()
            R, bound = _widen(R, 0, _max_abs(R))
            Y = np.zeros((self.n, R.shape[1]), dtype=R.dtype)
            for r, c, rows, cmax in steps:
                piv = C[c, r]
                if (R[r] % piv).any():
                    return None
                t = R[r] // piv
                R, bound = _widen(R, bound, _max_abs(t) * cmax)
                if R.dtype != Y.dtype:
                    Y = Y.astype(object)
                Y[c] = t
                R[rows] -= C[c, rows, None] * t.astype(R.dtype, copy=False)
            if R.any():
                return None
            Y = product(self.V.T, Y)
            if Y.dtype != X.dtype:
                X = X.astype(object)
            X[:, s:s + _ROW_BLOCK] = Y
        return X


def kernel_basis(rows):
    """Saturated integer kernel basis of a matrix (an integer array or a list
    of rows), as a list of vectors."""
    return ColumnEchelon(rows).kernel_basis()


def lattice_coords(basis, vectors, dim):
    """Coordinates of the vectors in the lattice spanned by the length-dim
    basis vectors (both given as arrays or lists of rows), as an array whose
    column j holds those of vector j; raises RuntimeError if a vector lies
    outside the lattice."""
    ce = ColumnEchelon(_as_matrix(basis).reshape(len(basis), dim).T)
    X = ce.solve(_as_matrix(vectors).reshape(len(vectors), dim).T)
    if X is None:
        raise RuntimeError("vector outside the lattice")
    return X


class IntLattice:
    """Incremental integer column lattice with membership tests.

    Maintains a column-echelon generating set (one pivot row per basis
    vector); add() returns whether the lattice grew.
    """

    def __init__(self, dim):
        self.dim = dim
        self.basis = {}  # pivot row -> vector

    def _leading(self, v):
        for r in range(self.dim):
            if v[r]:
                return r
        return None

    def add(self, vec):
        v = list(vec)
        changed = False
        while True:
            r = self._leading(v)
            if r is None:
                return changed
            if r not in self.basis:
                if v[r] < 0:
                    v = [-x for x in v]
                self.basis[r] = v
                return True
            b = self.basis[r]
            if v[r] % b[r] == 0:
                q = v[r] // b[r]
                v = [x - q * y for x, y in zip(v, b)]
            else:
                g, s, t = xgcd(b[r], v[r])
                new_b = [s * x + t * y for x, y in zip(b, v)]
                v = [(b[r] // g) * y - (v[r] // g) * x for x, y in zip(b, v)]
                self.basis[r] = new_b
                changed = True

    def contains(self, vec):
        v = list(vec)
        while True:
            r = self._leading(v)
            if r is None:
                return True
            b = self.basis.get(r)
            if b is None or v[r] % b[r] != 0:
                return False
            q = v[r] // b[r]
            v = [x - q * y for x, y in zip(v, b)]

    def basis_vectors(self):
        return [self.basis[r] for r in sorted(self.basis)]


def smith_normal_form(rows, want_u=False):
    """Diagonal of the Smith normal form of A, with divisibility d1 | d2 | ...

    Returns (diag, u).  With want_u, u is the row transform as a numpy
    array: (u @ x)[j] is the j-th cokernel coordinate of an ambient vector x
    (read mod diag[j] for torsion slots).  u is int64 while its rows' entries
    stay below 2^62 in absolute value, and an exact object array after.
    """
    A = [list(row) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = np.eye(m, dtype=np.int64) if want_u else None
    bound = [1] * m  # max |entry| of each row of U, from above

    def row_sub(i, j, q):
        # row_i -= q * row_j ; U row_i -= q * U row_j
        nonlocal U
        Ai, Aj = A[i], A[j]
        for k in range(n):
            if Aj[k]:
                Ai[k] -= q * Aj[k]
        if U is not None:
            if U.dtype != object and bound[i] + abs(q) * bound[j] >= INT64_SAFE:
                # the running bounds overshoot: retake them from the rows
                bound[i], bound[j] = _max_abs(U[i]), _max_abs(U[j])
                if bound[i] + abs(q) * bound[j] >= INT64_SAFE:
                    U = U.astype(object)
            bound[i] += abs(q) * bound[j]
            U[i] -= q * U[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[[i, j]] = U[[j, i]]
            bound[i], bound[j] = bound[j], bound[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = -U[i]

    def col_sub(i, j, q):
        for r in range(m):
            if A[r][j]:
                A[r][i] -= q * A[r][j]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    t = 0
    while t < min(m, n):
        # locate a smallest-magnitude nonzero pivot in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < best[0]):
                    best = (abs(A[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_sub(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_sub(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if A[t][t] < 0:
            row_neg(t)
        # enforce divisibility: pivot must divide the trailing block
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    diag = [A[i][i] for i in range(min(m, n)) if A[i][i] != 0]
    return diag, U


def prime_powers(n):
    """[(p, k)] with p^k exactly dividing n, p ascending."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@functools.lru_cache(maxsize=None)
def _rank_prime(exponent):
    """The largest prime below 2^15 that does not divide the exponent."""
    ell = 1 << 15
    while True:
        ell -= 1
        if exponent % ell and all(ell % d for d in range(2, 182)):  # 181^2 < 2^15
            return ell


def _residues(rows, q):
    """Working int64 copy of the matrix with entries reduced mod q, taken
    with the fewer columns (invariant factors ignore transposition)."""
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        W = np.mod(rows, q).astype(np.int64, copy=False)
    else:
        W = np.array([[int(x) % q for x in row] for row in rows], dtype=np.int64)
    return np.ascontiguousarray(W.T) if W.shape[1] > W.shape[0] else W


def _eliminate(W, p, q, live, reduced=False):
    """Unit-pivot elimination over Z/q, q a power of the prime p, in place.

    Sweeps the columns in order.  The pivot of a column is the first of the
    live rows W[:live] with a unit there; the column is cleared from the
    other live rows, _ROW_BLOCK whole rows at a time, and the pivot row is
    retired to W[live - 1].  With reduced, the pivot row is first scaled to
    1 and the column is cleared from every other row, retired rows included,
    so that the retired rows, read from the last one up, are the RREF in
    pivot-column order.  Returns the pivot columns.
    """
    cols = []
    for c in range(W.shape[1]):
        if not live:
            break
        col = W[:, c] if reduced else W[:live, c]  # the rows to clear
        units = np.flatnonzero(col[:live] % p)
        if not units.size:
            # no later row operation of this sweep makes a unit here
            continue
        r = int(units[0])
        inv = pow(int(col[r]), -1, q)
        if reduced:
            W[r] = W[r] * inv % q
            inv = 1
        others = np.flatnonzero(col)
        others = others[others != r]
        f = col[others] * inv % q
        # whole rows: columns swept earlier must follow too
        for s in range(0, others.size, _ROW_BLOCK):
            hit = others[s:s + _ROW_BLOCK]
            W[hit] = (W[hit] - f[s:s + _ROW_BLOCK, None] * W[r]) % q
        live -= 1
        if r != live:
            W[[r, live]] = W[[live, r]]
        cols.append(c)
    return cols


def _pivot_counts(rows, p, levels):
    """Number of invariant factors of each p-adic valuation 0..levels-1.

    Elimination over Z/p^levels with unit pivots: a pivot found at level v
    is one factor of valuation exactly v.  When no unit is left in the
    remaining rows they are all divisible by p, so they are divided by p
    and the next level starts.
    """
    q = p ** levels
    W = _residues(rows, q)
    live = W.shape[0]  # rows W[:live] have no pivot yet
    counts = []
    for level in range(levels):
        counts.append(len(_eliminate(W, p, q, live)))
        live -= counts[-1]
        if level + 1 < levels and live:
            W[:live] //= p
            q //= p
    return counts


def invariant_factors(rows, exponent, rank=None):
    """Nontrivial invariant factors (each >= 2, in a dividing chain) and rank
    of an integer matrix whose nonzero invariant factors all divide exponent.

    The p-part of the factors comes from elimination over Z/p^(k+1) for
    each p^k exactly dividing the exponent, and the pivots found over all
    p must number the rank.  The rank is the caller's when given (a rank
    over Q known without elimination, such as one from the exactness of a
    complex), and is otherwise taken modulo a prime that does not divide
    the exponent.  A factor whose p-part exceeds p^k, or a given rank that
    is wrong, shows as a pivot count off the rank and raises
    VerificationError (exponent 1 has no prime, so a given rank is taken
    as it is); a factor with a prime outside the exponent goes unseen, so
    the exponent must be a true bound.
    """
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    m = len(rows)
    n = len(rows[0]) if m else 0
    if rank is not None and not 0 <= rank <= min(m, n):
        raise ValueError("rank %d is outside [0, %d] for a %d x %d matrix"
                         % (rank, min(m, n), m, n))
    if not m or not n:
        return [], 0
    given = rank is not None
    if not given:
        ell = _rank_prime(exponent)
        rank = _pivot_counts(rows, ell, 1)[0]
    factors = [1] * rank
    for p, k in prime_powers(exponent):
        if p ** (k + 1) >= 1 << 31:
            raise ValueError("exponent %d has a prime power too large for int64"
                             " elimination" % exponent)
        counts = _pivot_counts(rows, p, k + 1)
        if sum(counts) != rank:
            raise VerificationError(
                "an invariant factor has %d-valuation above %d, or the rank is"
                " wrong: %d pivots over Z/%d^%d of a %d x %d matrix with"
                " exponent %d, rank %d %s"
                % (p, k, sum(counts), p, k + 1, m, n, exponent, rank,
                   "given" if given else "found modulo %d" % ell))
        # valuations ascending, so slot i gets the i-th smallest p-part
        vals = [v for v, c in enumerate(counts) for _ in range(c)]
        factors = [d * p ** v for d, v in zip(factors, vals)]
    return [d for d in factors if d != 1], rank


def quotient_structure(dim, cols, exponent, rank=None):
    """Structure of Z^dim / (lattice spanned by the given column vectors),
    as (free_rank, factors); exponent kills its torsion, and rank, when
    given, is that of the lattice."""
    if not len(cols):
        return dim, []
    factors, rank = invariant_factors(cols, exponent, rank)
    return dim - rank, factors


def kernel_mod(rows, moduli):
    """Basis of {x in Z^n : (A x)_i = 0 mod moduli[i] for every row i}: the
    x-parts of ker [A | diag(moduli)], in IntLattice echelon form."""
    A = _as_matrix(rows)
    n = A.shape[1]
    lat = IntLattice(n)
    for v in kernel_basis(np.hstack([A, np.diag(moduli)])):
        lat.add(v[:n])
    return lat.basis_vectors()
