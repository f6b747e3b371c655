"""The tensor product of the 2-periodic resolutions of the cyclic factors of
a finite abelian group G = <g_1> x ... x <g_k> (Kuenneth; Brown, Cohomology
of Groups, I.6 and V.1), as the cochain complex Hom_G(P, M).

Degree-n cochains are one block of M for each a in N^k with |a| = n, in
lexicographic order, and (delta f)_b = sum_i (-1)^(b_1 + .. + b_(i-1)) D_i
f_(b - e_i), with D_i = rho(g_i) - I when b_i is odd and the norm
sum_(j < ord g_i) rho(g_i^j) when it is even.  k = 1 is the 2-periodic
complex of a cyclic group; k = 2 on the Klein group with (g_1, g_2) =
(g, h) is its minimal resolution over F_2, slot s of degree n standing for
e_(s, n-s).  The module keeps its Klein name because the benchmark tracer
wraps coboundary_rows, and imports only errors, so that gmodules and
cohomology both import it without a cycle.
"""

from __future__ import annotations

import numpy as np

from .errors import check_cells

KLEIN_G = 1
KLEIN_H = 2


def _slots(k, n):
    """Every a in N^k with |a| = n, in lexicographic order."""
    if k == 1:
        return [(n,)] if n >= 0 else []
    return [(a,) + rest for a in range(n + 1) for rest in _slots(k - 1, n - a)]


def _block(M, g, odd):
    """rho(g) - I when odd, else the norm over the powers of g in the table."""
    if odd:
        return M.act(g) - np.eye(M.rank, dtype=np.int64)
    G, h, norm = M.group, g, M.act(M.group.identity)
    while h != G.identity:
        h, norm = G.mul(h, g), norm + M.act(h)
    return norm


def cochain_differential(M, n, gens=(KLEIN_G, KLEIN_H)):
    """delta_n of Hom_G(P, M), G = <gens[0]> x ... x <gens[-1]>, mod p over
    F_p; on the Klein regular module, where rho(g) is symmetric, its
    transpose is d_(n+1) of the resolution.  It has dim(n+1) dim(n) cells,
    and one above max_cells() raises ResourceCapError before any is built."""
    r = M.rank
    src, dst = _slots(len(gens), n), _slots(len(gens), n + 1)
    check_cells("delta_%d of the tensor resolution" % n, len(dst) * len(src) * r * r)
    index = {a: s for s, a in enumerate(src)}
    blocks = {(i, odd): _block(M, gens[i], odd)  # the D_i that occur
              for i, odd in {(i, c % 2) for b in dst for i, c in enumerate(b) if c}}
    D = np.zeros((len(dst), r, len(src), r), dtype=np.int64)
    for t, b in enumerate(dst):
        for i, c in enumerate(b):
            if c:
                s = index[b[:i] + (c - 1,) + b[i + 1:]]
                D[t, :, s, :] = (-1) ** sum(b[:i]) * blocks[i, c % 2]  # its one term
    D = D.reshape(len(dst) * r, len(src) * r)
    return D % M.p if M.p else D


def coboundary_rows(M, n):
    """Rows spanning the degree-n Klein coboundaries (none when n = 0)."""
    return cochain_differential(M, n - 1).T % 2


def monomial_cocycle(M, m0, alpha, beta):
    """The degree alpha+beta cocycle placing the fixed vector m0 at slot
    (alpha, beta) and zero elsewhere.

    This represents the cup product (x^alpha y^beta) . m0, where x, y are
    the degree-1 classes dual to e_{1,0}, e_{0,1}: they act on cochains as
    index shifts, the cup product of the standard diagonal approximation,
    cross-checked against bar cup products in the tests.
    """
    n = alpha + beta
    r = M.rank
    f = np.zeros((n + 1) * r, dtype=np.int64)
    f[alpha * r: (alpha + 1) * r] = np.asarray(m0) % 2
    return f
