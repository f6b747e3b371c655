"""Minimal free resolution of F_2 over the group algebra of the Klein four
group, and the cochain complexes built from it.

The group algebra L = F_2[Klein4] is commutative with radical generated by
a = g+1 and b = h+1, and a^2 = b^2 = 0.  The minimal resolution is

    ... -> L^{n+1} -> L^n -> ... -> L -> F_2,

with basis e_{p,q} of L^{n+1} indexed by p+q = n and differential

    d(e_{p,q}) = a*e_{p-1,q} + b*e_{p,q-1}.

For a Klein module M over F_2, Hom_L(L^{n+1}, M) is M^{n+1}; the resulting
cochain complex computes H^n(G, M) in any degree without the exponential
growth of the bar resolution.  Basis slots are ordered by p = 0..n, so slot
s of degree n stands for e_{s, n-s}.

Multiplication by the degree-1 cohomology classes dual to e_{1,0} and
e_{0,1} acts on cochains as index shifts; this is the cup product read off
from the standard diagonal approximation for a tensor product of two
periodic rank-one resolutions, and is cross-checked against bar-resolution
cup products in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import check_cells

KLEIN_G = 1
KLEIN_H = 2


def cochain_differential(M, n):
    """delta_n : M^{n+1} -> M^{n+2} for Hom_L(resolution, M), mod 2.

    (delta f)_{p,q} = (rho(g)+I) f_{p-1,q} + (rho(h)+I) f_{p,q-1}.  On the
    regular module L its transpose is the resolution's own d_{n+1} :
    L^{n+2} -> L^{n+1}: there rho(g) is multiplication by g, which is
    symmetric as g = g^-1.  It has (n+2)(n+1) r^2 cells, and one above
    max_cells() raises ResourceCapError before any is allocated.
    """
    r = M.rank
    check_cells("delta_%d of the Klein resolution" % n, (n + 2) * (n + 1) * r * r)
    I = np.eye(r, dtype=np.int64)
    A = (M.act(KLEIN_G) + I) % 2
    B = (M.act(KLEIN_H) + I) % 2
    D = np.zeros(((n + 2) * r, (n + 1) * r), dtype=np.int64)
    for s in range(n + 2):
        p, q = s, n + 1 - s
        if p >= 1:
            D[s * r: (s + 1) * r, (s - 1) * r: s * r] += A
        if q >= 1:
            D[s * r: (s + 1) * r, s * r: (s + 1) * r] += B
    return D % 2


def coboundary_rows(M, n):
    """Rows spanning the coboundary subspace of degree-n cochains."""
    if n == 0:
        return np.zeros((0, M.rank), dtype=np.int64)
    return cochain_differential(M, n - 1).T % 2


def monomial_cocycle(M, m0, alpha, beta):
    """The degree alpha+beta cocycle placing the fixed vector m0 at slot
    (alpha, beta) and zero elsewhere.

    This represents the cup product (x^alpha y^beta) . m0, where x, y are
    the degree-1 classes dual to e_{1,0}, e_{0,1}.
    """
    n = alpha + beta
    r = M.rank
    f = np.zeros((n + 1) * r, dtype=np.int64)
    f[alpha * r: (alpha + 1) * r] = np.asarray(m0) % 2
    return f
