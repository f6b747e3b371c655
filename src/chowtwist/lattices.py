"""Coflasque and flasque lattices: predicates, resolutions by permutation
modules, and the explicit rank-(5m+1) kernel lattices over the Klein group.

H^1(H, M) for a lattice M equals the torsion of the cokernel of the map
m -> (h m - m)_{h in H}, so the coflasque predicate is a handful of small
invariant-factor computations; no bar resolution is involved.
"""

from __future__ import annotations

import numpy as np

from . import fp, intlin
from .errors import SizePolicyError, VerificationError
from .gmodules import (FiniteAbelianGroup, _submodule_from_kernel,
                       omega_negative_klein, permutation_sum)
from .groups import make_klein4


def h1_lattice(module, subgroup=None):
    """H^1(H, M) for an integral module, as a FiniteAbelianGroup.

    Torsion of the cokernel of delta_0 : M -> maps(H - {e}, M).
    """
    G = module.group
    elements = subgroup.elements if subgroup is not None else range(G.order)
    blocks = [module.act(h) - np.eye(module.rank, dtype=np.int64)
              for h in elements if h != G.identity]
    if not blocks or module.rank == 0:
        return FiniteAbelianGroup([], 0)
    order = subgroup.order if subgroup is not None else G.order
    factors, _ = intlin.invariant_factors(np.vstack(blocks), order)
    return FiniteAbelianGroup(factors, 0)


def is_coflasque(module):
    """(flag, witness): H^1(H, M) = 0 for every subgroup H.

    witness is None on success, else (subgroup, FiniteAbelianGroup).
    """
    if module.p is not None:
        raise ValueError("coflasqueness is defined for lattices over Z")
    for S in module.group.subgroups():
        h1 = h1_lattice(module, S)
        if not h1.is_trivial():
            return False, (S, h1)
    return True, None


class CoflasqueResolution:
    """0 -> Q -> P -> M -> 0 with P permutation and Q coflasque.

    pieces: list of (subgroup, fixed-vector) pairs, one per permutation
    summand Z[G/H]; surjection maps the identity coset of each summand to
    its fixed vector.  Q carries the induced action on the kernel basis.
    """

    def __init__(self, M, pieces, P, surjection, Q, q_basis):
        self.module = M
        self.pieces = pieces
        self.P = P
        self.surjection = surjection
        self.Q = Q
        self.q_basis = q_basis

    def check(self):
        """Check exactness, fixed-point surjectivity and coflasqueness;
        raises VerificationError on the first failure."""
        M, P, S = self.module, self.P, self.surjection
        # composite Q -> P -> M vanishes
        for qv in self.q_basis:
            img = S @ np.asarray(qv, dtype=np.int64)
            if M.p:
                img %= M.p
            if img.any():
                raise VerificationError("kernel basis not killed by the surjection")
        # surjectivity of P -> M and of P^H -> M^H for every subgroup
        for Ssub in M.group.subgroups():
            if not fixed_surjective(P, M, S, Ssub):
                raise VerificationError(
                    "fixed points not surjective for subgroup of order %d" % Ssub.order)
        ok, witness = is_coflasque(self.Q)
        if not ok:
            raise VerificationError("kernel is not coflasque: %r" % (witness,))
        return True


def fixed_surjective(P, M, S, subgroup):
    """Does the matrix S map P^H onto M^H?"""
    fixP = P.fixed_points(subgroup)
    fixM = M.fixed_points(subgroup)
    if not fixM:
        return True
    lat = fp.Span(M.rank, M.p) if M.p else intlin.IntLattice(M.rank)
    for v in fixP:
        lat.add([int(x) for x in S @ np.asarray(v, dtype=np.int64)])
    return all(lat.contains([int(x) for x in w]) for w in fixM)


def coflasque_resolution(M, prune=False):
    """Coflasque resolution of a module over Z or F_p.

    P gets one summand Z[G/H] per generator w of the fixed lattice M^H, for
    every subgroup H; the summands for the trivial subgroup make the
    surjection (and all its fixed-point restrictions) automatic.  With
    prune, P is built greedily instead: subgroups H by descending order,
    and a piece (H, w) only when w is not yet in the image of P^H.  The
    image of P^T is kept for every subgroup T, as the span of the images of
    the T-orbit sums of cosets, so P^T -> M^T is onto for every T by
    construction and the pieces are a subset of the full ones.  For F_p
    coefficients P is still an integral permutation module and Q is the
    full-rank preimage lattice of zero.
    """
    G = M.group
    subgroups = G.subgroups()
    pieces = []
    if not prune:
        for S in subgroups:
            pieces.extend((S, list(w)) for w in M.fixed_points(S))
    else:
        images = {T: fp.Span(M.rank, M.p) if M.p else intlin.IntLattice(M.rank)
                  for T in subgroups}
        for S in sorted(subgroups, key=lambda H: -H.order):
            for w in M.fixed_points(S):
                if images[S].contains(w):
                    continue
                pieces.append((S, list(w)))
                for T, lat in images.items():
                    for v in _orbit_sums(M, S, w, T):
                        lat.add(v)
    P, Smat = permutation_sum(M, pieces)
    if M.p:
        q_basis = intlin.kernel_mod(Smat, [M.p] * M.rank)
    else:
        q_basis = intlin.kernel_basis(Smat)
    Q = _submodule_from_kernel(P, q_basis, "Q(%s)" % M.name)
    return CoflasqueResolution(M, pieces, P, Smat, Q, q_basis)


def _orbit_sums(M, S, w, T):
    """Images under gS -> g.w of the T-orbit sums of the cosets G/S, which
    span Z[G/S]^T."""
    G = M.group
    seen, out = set(), []
    for g in range(G.order):
        if g in seen:
            continue
        v = 0
        for t in T.elements:  # the orbit of gS: one tg per new coset tgS
            x = G.mul(t, g)
            if x not in seen:
                seen.update(G.mul(x, s) for s in S.elements)
                v = v + M.apply(x, w)
        out.append([int(c) for c in v])
    return out


# ---------------------------------------------------------------------------
# the explicit Klein counterexample lattices


class CounterexampleData:
    """B = (ZG)^m + Z^{m+1} surjecting onto the (2m+1)-dimensional module,
    A = kernel with its explicit basis, and P = three blocks of index-2
    permutation modules mapping onto A."""

    def __init__(self, m, M, B, b_to_m, A, a_basis, P, p_pieces, p_to_a):
        self.m = m
        self.module = M
        self.B = B
        self.b_to_m = b_to_m        # matrix rank(M) x rank(B), mod 2
        self.A = A
        self.a_basis = a_basis      # basis vectors of A inside B
        self.P = P
        self.p_pieces = p_pieces    # list of (subgroup, fixed vector in A coords)
        self.p_to_a = p_to_a        # matrix rank(A) x rank(P)


def counterexample_lattices(m):
    """The explicit lattices witnessing failure of exactness for the
    twisted Chow groups of the Klein four group, with their stated bases."""
    if not (2 <= m <= 8):
        raise SizePolicyError("parameter must be between 2 and 8")
    G = make_klein4()
    M = omega_negative_klein(m)
    r = 2 * m + 1

    def e(i):
        v = np.zeros(r, dtype=np.int64)
        v[i - 1] = 1
        return v

    # B = (ZG)^m + Z^{m+1}; ZG block i has f_i at offset 4*i (identity slot).
    # The surjection B -> M sends f_i -> e_{m+1+i} (i <= m), f_{m+i} -> e_i,
    # extended over the regular blocks by equivariance
    nB = 4 * m + (m + 1)
    B, S = permutation_sum(
        M, [(G.trivial_subgroup(), e(m + 1 + i)) for i in range(1, m + 1)]
        + [(G.full_subgroup(), e(i)) for i in range(1, m + 2)], name="B")

    def f(i):
        """Basis vector f_i of B, 1-indexed as in the construction."""
        v = np.zeros(nB, dtype=np.int64)
        if i <= m:
            v[4 * (i - 1)] = 1
        else:
            v[4 * m + (i - m - 1)] = 1
        return v

    # A basis s_1..s_{5m+1} inside B
    def act_f(g, i):
        return B.apply(g, f(i))

    s = [None]
    for i in range(1, 2 * m + 2):
        s.append(2 * f(i))
    for i in range(1, m + 1):
        s.append(act_f(1, i) - f(i) - f(m + i))                 # g f_i - f_i - f_{m+i}
    for i in range(1, m + 1):
        s.append(act_f(2, i) - f(i) - f(m + 1 + i))             # h f_i - f_i - f_{m+1+i}
    for i in range(1, m + 1):
        s.append(act_f(3, i) - f(i) - f(m + i) - f(m + 1 + i))  # gh f_i - ...
    a_basis = [list(int(x) for x in v) for v in s[1:]]
    if len(a_basis) != 5 * m + 1:
        raise VerificationError("stated basis has %d vectors, not %d"
                                % (len(a_basis), 5 * m + 1))

    # the basis really spans the kernel of S mod 2
    stated = intlin.IntLattice(nB)
    for v in a_basis:
        if (S @ np.asarray(v, dtype=np.int64) % 2).any():
            raise VerificationError("stated basis vector outside the kernel")
        stated.add(list(v))
    for v in intlin.kernel_mod(S, [2] * r):
        if not stated.contains(v):
            raise VerificationError("stated basis does not span the kernel")

    A = _submodule_from_kernel(B, a_basis, "A")

    # P = three blocks of Z[G/H_a]^m; H_1 = <g>, H_2 = <h>, H_3 = <gh>; the
    # generator for block (a, i) maps to s_i + s_{(2+a)m+1+i}
    subgroups = [G.generated_subgroup([a]) for a in (1, 2, 3)]
    targets = [[x + y for x, y in zip(a_basis[i - 1], a_basis[2 * m + a * m + i])]
               for a in range(3) for i in range(1, m + 1)]
    a_coords = intlin.lattice_coords(a_basis, targets, nB).T.tolist()
    pieces = [(subgroups[j // m], c) for j, c in enumerate(a_coords)]
    P, p_to_a = permutation_sum(A, pieces)
    return CounterexampleData(m, M, B, S, A, a_basis, P, pieces, p_to_a)
