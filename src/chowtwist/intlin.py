"""Exact linear algebra over the integers.

Column echelon, lattices and the Smith normal form work on plain Python
ints, so intermediate entries can grow past 64 bits without overflow
(bar-resolution matrices for the order-8 quaternion group do exactly that
during elimination).  Matrices there are lists of rows unless a name says
otherwise.  The column-echelon reduction yields saturated kernel bases and
exact solves.

Invariant factors of finite quotients come from a modular kernel instead:
the caller passes an exponent that every nonzero invariant factor divides,
and elimination runs in int64 numpy arrays modulo small prime powers
(Iliopoulos, SIAM J. Comput. 18, 1989; Dumas-Saunders-Villard, J. Symb.
Comput. 32, 2001).  The Smith normal form stays for its row transform,
which it keeps as a numpy array, and as the reference the tests compare
against.  Products of numpy matrices that may grow go through product(),
which switches to exact Python ints before int64 could wrap.
"""

from __future__ import annotations

import numpy as np

from .errors import VerificationError

# int64 arithmetic is exact while every intermediate stays below this
_INT64_SAFE = 1 << 62
# rows per elimination update: bounds the temporaries, which peak RSS sees
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


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mult(A, B):
    """Exact product of two list-of-rows matrices."""
    n = len(B)
    if any(len(row) != n for row in A):
        raise ValueError("inner dimensions of the product differ")
    p = len(B[0]) if n else 0
    Bc = [[B[i][j] for i in range(n)] for j in range(p)]
    return [[sum(row[k] * col[k] for k in range(n)) for col in Bc] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _max_abs(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def product(A, B):
    """Exact A @ B of integer arrays (or nested lists).

    In int64 when max|A| * max|B| * (inner dimension) < 2^62, so no sum of
    products can wrap; otherwise in Python ints, as an object array.
    """
    A, B = np.asarray(A), np.asarray(B)
    if _max_abs(A) * _max_abs(B) * A.shape[-1] < _INT64_SAFE:
        return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    return A.astype(object) @ B.astype(object)


class ColumnEchelon:
    """Column echelon form A*V = E computed by unimodular column operations.

    Zero columns of E give a basis of ker(A); because V is unimodular the
    kernel basis is automatically saturated.  With track_inverse=True the
    inverse transform is kept so arbitrary vectors can be written in
    V-coordinates.
    """

    def __init__(self, rows, track_inverse=False):
        m = len(rows)
        n = len(rows[0]) if m else 0
        self.m, self.n = m, n
        cols = [[rows[r][c] for r in range(m)] for c in range(n)]
        V = [[1 if i == c else 0 for i in range(n)] for c in range(n)]
        Vinv = identity_matrix(n) if track_inverse else None
        active = list(range(n))
        pivots = []

        def col_sub(c, j, q, r0):
            cc, cj = cols[c], cols[j]
            for r in range(r0, m):
                if cj[r]:
                    cc[r] -= q * cj[r]
            vc, vj = V[c], V[j]
            for i in range(n):
                if vj[i]:
                    vc[i] -= q * vj[i]
            if Vinv is not None:
                wj, wc = Vinv[j], Vinv[c]
                for i in range(n):
                    if wc[i]:
                        wj[i] += q * wc[i]

        for r in range(m):
            nz = [c for c in active if cols[c][r] != 0]
            if not nz:
                continue
            while len(nz) > 1:
                j = min(nz, key=lambda c: abs(cols[c][r]))
                rest = []
                for c in nz:
                    if c == j:
                        continue
                    q = cols[c][r] // cols[j][r]
                    if q:
                        col_sub(c, j, q, r)
                    if cols[c][r] != 0:
                        rest.append(c)
                nz = rest + [j]
                if len(nz) == 1:
                    break
            p = nz[0]
            if cols[p][r] < 0:
                cols[p] = [-x for x in cols[p]]
                V[p] = [-x for x in V[p]]
                if Vinv is not None:
                    Vinv[p] = [-x for x in Vinv[p]]
            pivots.append((r, p))
            active.remove(p)

        self.cols = cols
        self.V = V
        self.Vinv = Vinv
        self.pivots = pivots
        self.kernel_cols = active

    @property
    def rank(self):
        return len(self.pivots)

    def kernel_basis(self):
        """Saturated basis of {x : A x = 0}, as a list of length-n vectors."""
        return [list(self.V[c]) for c in self.kernel_cols]

    def solve(self, b):
        """One integer solution x of A x = b, or None."""
        res = list(b)
        y = [0] * self.n
        for r, c in self.pivots:
            piv = self.cols[c][r]
            if res[r] % piv != 0:
                return None
            t = res[r] // piv
            if t:
                cc = self.cols[c]
                for i in range(r, self.m):
                    if cc[i]:
                        res[i] -= t * cc[i]
                y[c] = t
        if any(res):
            return None
        x = [0] * self.n
        for c, t in enumerate(y):
            if t:
                vc = self.V[c]
                for i in range(self.n):
                    if vc[i]:
                        x[i] += t * vc[i]
        return x

    def coords(self, x):
        """Coordinates c with x = V c (requires track_inverse)."""
        if self.Vinv is None:
            raise ValueError("echelon built without track_inverse")
        return mat_vec(self.Vinv, x)


def kernel_basis(rows):
    """Saturated integer kernel basis of a matrix (list of vectors)."""
    return ColumnEchelon(rows).kernel_basis()


def lattice_coords(basis, vectors, dim):
    """Coordinates of each vector in the lattice spanned by the length-dim
    basis vectors; raises RuntimeError if a vector lies outside it."""
    ce = ColumnEchelon([[int(b[r]) for b in basis] for r in range(dim)])
    out = []
    for v in vectors:
        c = ce.solve([int(x) for x in v])
        if c is None:
            raise RuntimeError("vector outside the lattice")
        out.append(c)
    return out


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
            if U.dtype != object and bound[i] + abs(q) * bound[j] >= _INT64_SAFE:
                # the running bounds overshoot: retake them from the rows
                bound[i], bound[j] = _max_abs(U[i]), _max_abs(U[j])
                if bound[i] + abs(q) * bound[j] >= _INT64_SAFE:
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


def _prime_powers(n):
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
        found = 0
        for c in range(W.shape[1]):
            if not live:
                break
            col = W[:live, c]
            units = np.flatnonzero(col % p)
            if not units.size:
                # no later row operation of this level makes a unit here
                continue
            r = int(units[0])
            others = np.flatnonzero(col)
            others = others[others != r]
            f = col[others] * pow(int(col[r]), -1, q) % q
            # whole rows: columns swept earlier must follow too
            for s in range(0, others.size, _ROW_BLOCK):
                hit = others[s:s + _ROW_BLOCK]
                W[hit] = (W[hit] - f[s:s + _ROW_BLOCK, None] * W[r]) % q
            live -= 1
            if r != live:
                W[[r, live]] = W[[live, r]]
            found += 1
        counts.append(found)
        if level + 1 < levels and live:
            W[:live] //= p
            q //= p
    return counts


def invariant_factors(rows, exponent):
    """Nontrivial invariant factors (each >= 2, in a dividing chain) and rank
    of an integer matrix whose nonzero invariant factors all divide exponent.

    The rank is taken modulo a prime that does not divide the exponent, and
    the p-part of the factors over Z/p^(k+1) for each p^k exactly dividing
    it.  A factor whose p-part exceeds p^k shows as a missing pivot and
    raises VerificationError; a factor with a prime outside the exponent
    goes unseen, so the exponent must be a true bound.
    """
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    m = len(rows)
    n = len(rows[0]) if m else 0
    if not m or not n:
        return [], 0
    rank = _pivot_counts(rows, _rank_prime(exponent), 1)[0]
    factors = [1] * rank
    for p, k in _prime_powers(exponent):
        if p ** (k + 1) >= 1 << 31:
            raise ValueError("exponent %d has a prime power too large for int64"
                             " elimination" % exponent)
        counts = _pivot_counts(rows, p, k + 1)
        if sum(counts) != rank:
            raise VerificationError(
                "an invariant factor has %d-valuation above %d: the exponent %d"
                " does not kill the quotient" % (p, k, exponent))
        # valuations ascending, so slot i gets the i-th smallest p-part
        vals = [v for v, c in enumerate(counts) for _ in range(c)]
        factors = [d * p ** v for d, v in zip(factors, vals)]
    return [d for d in factors if d != 1], rank


def quotient_structure(dim, cols, exponent):
    """Structure of Z^dim / (lattice spanned by the given column vectors),
    as (free_rank, factors); exponent kills its torsion."""
    if not cols:
        return dim, []
    factors, rank = invariant_factors(cols, exponent)
    return dim - rank, factors


def kernel_mod(rows, moduli):
    """Basis of {x in Z^n : (A x)_i = 0 mod moduli[i] for every row i}: the
    x-parts of ker [A | diag(moduli)], in IntLattice echelon form."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    block = [[int(x) for x in row] + [k if i == j else 0 for j in range(m)]
             for i, (row, k) in enumerate(zip(rows, moduli))]
    lat = IntLattice(n)
    for v in kernel_basis(block):
        lat.add(v[:n])
    return lat.basis_vectors()
