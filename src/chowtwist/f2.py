"""Packed GF(2) linear algebra for bar-resolution sized matrices.

Vectors are stored 64 bits per uint64 word so coboundary spans with ~10^4
coordinates stay cheap.  Elimination is vectorized one pivot at a time: the
pivot row is XORed into every other row that has the pivot bit set.
eliminate() is that loop; F2Span.add_matrix, express_mod_span and fp.rref
at p = 2 all run it.
"""

from __future__ import annotations

import numpy as np


def n_words(n_bits):
    return (n_bits + 63) // 64


def integer_array(mat):
    """An integer matrix (an array, a list of rows or an object array) as
    int64, or as an object array of Python ints when an entry does not fit;
    an int64 array comes back as it is."""
    try:
        return np.asarray(mat, dtype=np.int64)
    except OverflowError:
        return np.asarray(mat, dtype=object)


def pack_rows(mat):
    """Pack an integer matrix, read mod 2, into uint64 rows.

    The cast to uint8 keeps the low bit, which is the residue mod 2 of a
    negative int64 too, so no int64 working copy is made; Python ints past
    int64 are reduced first.
    """
    a = integer_array(mat)
    if a.dtype == object:
        a = a % 2
    a = a.astype(np.uint8)
    a &= 1
    if a.ndim == 1:
        a = a.reshape(1, -1)
    bits = np.packbits(a, axis=1, bitorder="little")
    w = n_words(a.shape[1])
    padded = np.zeros((a.shape[0], 8 * w), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view(np.uint64).reshape(a.shape[0], w)


def unpack_rows(rows, n_bits):
    """The int64 0/1 matrix of packed uint64 rows, n_bits columns."""
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=n_bits,
                         bitorder="little")
    return bits.astype(np.int64)


def _lowest_bit(row):
    nz = np.nonzero(row)[0]
    if nz.size == 0:
        return None
    w = int(nz[0])
    word = int(row[w])
    return 64 * w + (word & -word).bit_length() - 1


def eliminate(M):
    """Fully reduce the packed uint64 rows of M in place, in row order.

    A row still nonzero when its turn comes becomes the pivot row of its
    lowest set bit and is XORed into every other row holding that bit, so
    the pivot rows end mutually reduced and every other row zero.  Returns
    the pivots as a dict bit -> row index, in the order they were found.
    """
    pivots = {}
    for i in range(len(M)):
        bit = _lowest_bit(M[i])
        if bit is None:
            continue
        row = M[i].copy()
        hit = np.flatnonzero(M[:, bit >> 6] & np.uint64(1 << (bit & 63)))
        M[hit] ^= row  # row i too, which is put back
        M[i] = row
        pivots[bit] = i
    return pivots


class F2Span:
    """Row span over GF(2) with incremental adds and residual reduction."""

    def __init__(self, n_bits, rows=None):
        self.n_bits = n_bits
        self.w = n_words(n_bits)
        self.pivots = {}  # bit -> packed echelon row
        if rows is not None and len(rows):
            self.add_matrix(rows)

    @property
    def rank(self):
        return len(self.pivots)

    def add_matrix(self, rows):
        """Bulk-eliminate a packed uint64 matrix into the span.

        Full (reduced) elimination: every pivot row is XORed out of all other
        rows, so the stored pivot rows stay mutually reduced and residual()
        terminates in at most one pass over the pivots.
        """
        M = np.array(rows, dtype=np.uint64, copy=True)
        if M.ndim == 1:
            M = M.reshape(1, -1)
        if self.pivots:
            M = np.vstack([np.vstack(list(self.pivots.values())), M])
        self.pivots = {bit: M[i] for bit, i in eliminate(M).items()}

    def residual(self, row):
        """Reduce a packed vector by the span; zero iff the vector is in it."""
        v = np.array(row, dtype=np.uint64, copy=True)
        while True:
            bit = _lowest_bit(v)
            if bit is None or bit not in self.pivots:
                return v
            v = v ^ self.pivots[bit]

    def contains(self, row):
        return not self.residual(row).any()

    def copy(self):
        """An independent span with the same rows.  Nothing writes into a
        stored row after add or add_matrix returns, so the rows are shared."""
        out = F2Span(self.n_bits)
        out.pivots = dict(self.pivots)
        return out

    def add(self, row):
        """Add one vector; returns True if the span grew."""
        v = self.residual(row)
        bit = _lowest_bit(v)
        if bit is None:
            return False
        # keep pivot rows mutually reduced
        for b, prow in list(self.pivots.items()):
            if (int(prow[bit >> 6]) >> (bit & 63)) & 1:
                self.pivots[b] = prow ^ v
        self.pivots[bit] = v
        return True


def express_mod_span(span, basis_rows, target):
    """Coefficients writing target as a GF(2) combination of basis_rows
    modulo the given F2Span, or None.

    The residuals are eliminated with unit vectors appended past the last
    bit, so the target's row, kept last and reduced by the rows above it,
    ends as [0 | coefficients] exactly when a combination exists.
    """
    k, n = len(basis_rows), span.n_bits
    res = [span.residual(v) for v in list(basis_rows) + [target]]
    bits = unpack_rows(np.array(res), n)
    M = pack_rows(np.hstack([bits, np.eye(k + 1, k, dtype=np.int64)]))
    eliminate(M)
    last = unpack_rows(M[-1:], n + k)[0]
    return None if last[:n].any() else last[n:].tolist()
