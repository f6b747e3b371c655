"""Dense linear algebra over small prime fields (p in {2, 3, 5}).

Matrices are numpy int64 arrays with entries reduced mod p.  Every
elimination goes through rref, which bar-complex coboundaries reach with
thousands of rows.  At p = 2 it packs the rows 64 bits a word and runs the
packed elimination of f2, so no dense int64 working copy is made; at p = 3
and 5 it runs the blocked int64 unit-pivot elimination of intlin, the one
that counts invariant factors over Z/p^k, in its reduced form.
"""

from __future__ import annotations

import numpy as np

from . import f2
from .intlin import _eliminate

SUPPORTED_PRIMES = (2, 3, 5)


def asmod(a, p):
    """An int64 copy of an integer matrix with entries reduced mod p."""
    a = f2.integer_array(a)
    return (a % p).astype(np.int64, copy=False)


def rref(a, p):
    """Reduced row echelon form of an integer matrix mod p; returns
    (R, pivot_columns), where R holds only the len(pivot_columns) nonzero
    rows."""
    a = f2.integer_array(a)
    if p == 2:
        M = f2.pack_rows(a)
        n = a.shape[1]
        pivots = f2.eliminate(M)
        cols = sorted(pivots)
        return f2.unpack_rows(M[[pivots[c] for c in cols]], n), cols
    W = asmod(a, p)
    m = W.shape[0]
    cols = _eliminate(W, p, p, m, reduced=True)
    return W[m - len(cols):][::-1].copy(), cols  # the retired rows


def rank(a, p):
    """Rank mod p; at p = 2 the pivots of the packed elimination are
    counted and no row is unpacked."""
    if p == 2:
        return len(f2.eliminate(f2.pack_rows(a)))
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Basis of {x : A x = 0} as rows of a matrix."""
    R, pivots = rref(a, p)
    n = R.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[:, pivots] = (-R[:, free].T) % p
    basis[np.arange(free.size), free] = 1
    return basis


def solve(a, b, p):
    """One solution x of A x = b mod p, or None; b may be a matrix of columns."""
    a = asmod(a, p)
    b = asmod(b, p)
    single = b.ndim == 1
    B = b.reshape(-1, 1) if single else b
    n = a.shape[1]
    R, pivots = rref(np.concatenate([a, B], axis=1), p)
    if pivots and pivots[-1] >= n:
        return None
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:, n:]
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
        """Span of the given rows, reduced together by one rref."""
        self.n = n
        self.p = p
        self.rows, self.cols = rref(
            f2.integer_array(rows).reshape(len(rows), n), p)

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
        v = (v * pow(int(v[col]), -1, self.p)) % self.p
        # keep the stored rows reduced at the new pivot column
        self.rows = (self.rows - np.outer(self.rows[:, col], v)) % self.p
        self.rows = np.vstack([self.rows, v])
        self.cols.append(col)
        return True

    def basis(self):
        """The rows sorted by pivot column: rref(rows)[0]."""
        return self.rows[np.argsort(self.cols, kind="stable")]
