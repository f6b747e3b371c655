"""Dense linear algebra over small prime fields (p in {2, 3, 5}).

Matrices are numpy int64 arrays with entries reduced mod p.  Sizes here are
module-level (a few hundred), so plain Gaussian elimination is enough; the
bar-resolution scale work over F_2 lives in f2.py with packed bit rows.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5)


def asmod(a, p):
    return np.asarray(a, dtype=np.int64) % p


def _inv_mod(x, p):
    return pow(int(x), p - 2, p)


def rref(a, p):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = asmod(a, p)
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
        R[row] = (R[row] * _inv_mod(R[row, col], p)) % p
        for r in range(m):
            if r != row and R[r, col]:
                R[r] = (R[r] - R[r, col] * R[row]) % p
        pivots.append(col)
        row += 1
    return R, pivots


def rank(a, p):
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Basis of {x : A x = 0} as rows of a matrix."""
    a = asmod(a, p)
    m, n = a.shape
    R, pivots = rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, fc]) % p
    return basis


def solve(a, b, p):
    """One solution x of A x = b mod p, or None; b may be a matrix of columns."""
    a = asmod(a, p)
    b = asmod(b, p)
    single = b.ndim == 1
    B = b.reshape(-1, 1) if single else b
    m, n = a.shape
    aug = np.concatenate([a, B], axis=1)
    R, pivots = rref(aug, p)
    pivots_a = [c for c in pivots if c < n]
    if len(pivots_a) != len(pivots):
        return None
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots_a):
        X[pc] = R[i, n:]
    return X[:, 0] if single else X


class Span:
    """Row span over F_p with incremental adds; the dense counterpart of
    f2.F2Span.

    The rows are kept fully reduced: each has a leading 1 at its pivot
    column and zeros at every other pivot column, so reducing a vector is
    one product with the stacked rows and basis() is the RREF of all rows
    added so far.
    """

    def __init__(self, n, p, rows=()):
        """Span of the given rows, reduced together in one elimination.

        Unlike rref, each pivot updates all the rows it hits in one step;
        rref keeps its per-row loop because the bar matrices it gets are
        large enough for those temporaries to show in peak memory.
        """
        self.n = n
        self.p = p
        self.cols = []  # pivot column of each stored row
        R = asmod(rows, p).reshape(len(rows), n)
        for col in range(n):
            top = len(self.cols)
            if top == len(R):
                break
            nz = np.flatnonzero(R[top:, col])
            if nz.size == 0:
                continue
            piv = top + int(nz[0])
            R[[top, piv]] = R[[piv, top]]
            R[top] = (R[top] * _inv_mod(R[top, col], p)) % p
            hit = np.flatnonzero(R[:, col])
            hit = hit[hit != top]
            R[hit] = (R[hit] - np.outer(R[hit, col], R[top])) % p
            self.cols.append(col)
        self.rows = R[:len(self.cols)].copy()

    @property
    def rank(self):
        return len(self.cols)

    def residual(self, row):
        """Reduce a vector by the span; zero iff the vector is in it."""
        v = asmod(row, self.p)
        return (v - v[self.cols] @ self.rows) % self.p

    def contains(self, row):
        return not self.residual(row).any()

    def add(self, row):
        """Add one vector; returns True if the span grew."""
        v = self.residual(row)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        col = int(nz[0])
        v = (v * _inv_mod(v[col], self.p)) % self.p
        # keep the stored rows reduced at the new pivot column
        self.rows = (self.rows - np.outer(self.rows[:, col], v)) % self.p
        self.rows = np.vstack([self.rows, v])
        self.cols.append(col)
        return True

    def basis(self):
        """The rows sorted by pivot column: rref(rows)[0][:rank]."""
        return self.rows[np.argsort(self.cols, kind="stable")]
