"""Packed GF(2) linear algebra for bar-resolution sized matrices.

Vectors are stored 64 bits per uint64 word so coboundary spans with ~10^4
coordinates stay cheap.  Elimination is vectorized one pivot at a time: the
pivot row is XORed into every other row that has the pivot bit set.
"""

from __future__ import annotations

import numpy as np


def n_words(n_bits):
    return (n_bits + 63) // 64


def pack_rows(mat):
    """Pack a 0/1 matrix (any integer dtype) into uint64 rows."""
    a = np.asarray(mat, dtype=np.uint8) & 1
    if a.ndim == 1:
        a = a.reshape(1, -1)
    bits = np.packbits(a, axis=1, bitorder="little")
    w = n_words(a.shape[1])
    padded = np.zeros((a.shape[0], 8 * w), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view(np.uint64).reshape(a.shape[0], w)


def _get_bit(rows, bit):
    return (rows[:, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1)


def _lowest_bit(row):
    nz = np.nonzero(row)[0]
    if nz.size == 0:
        return None
    w = int(nz[0])
    word = int(row[w])
    return 64 * w + (word & -word).bit_length() - 1


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
            self.pivots = {}
        n = len(M)
        for i in range(n):
            bit = _lowest_bit(M[i])
            if bit is None:
                continue
            mask = _get_bit(M, bit).astype(bool)
            mask[i] = False
            if mask.any():
                M[mask] ^= M[i]
            self.pivots[bit] = M[i]

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

    basis_rows is a short list of packed vectors; work happens on residuals.
    """
    res_basis = [span.residual(b) for b in basis_rows]
    res_t = span.residual(target)
    k = len(res_basis)
    if k == 0:
        return [] if not res_t.any() else None
    # small dense solve on the residuals with coefficient tracking
    aug = []  # (vector, coeff bitmask over basis indices)
    for i, v in enumerate(res_basis):
        aug.append([v.copy(), 1 << i])
    piv = {}
    for vec, mask in aug:
        v, m = vec, mask
        while True:
            bit = _lowest_bit(v)
            if bit is None:
                break
            if bit in piv:
                pv, pm = piv[bit]
                v = v ^ pv
                m ^= pm
            else:
                piv[bit] = (v, m)
                break
    v, m = res_t.copy(), 0
    while True:
        bit = _lowest_bit(v)
        if bit is None:
            break
        if bit not in piv:
            return None
        pv, pm = piv[bit]
        v = v ^ pv
        m ^= pm
    return [(m >> i) & 1 for i in range(k)]
