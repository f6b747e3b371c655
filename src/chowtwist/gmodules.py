"""Finite-rank modules with a group action over Z or a small prime field.

A GModule stores one integer matrix per group element (entries reduced mod p
when the ring is a prime field).  Constructors accept the action on
generators only and complete it over the Cayley table; the homomorphism
property is then checked exhaustively.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from . import fp, intlin, kleinres
from .errors import SizePolicyError, UnsupportedFamilyError, VerificationError
from .groups import make_klein4

RING_Z = "Z"


def ring_prime(ring):
    """None for Z, the prime for 'F2'/'F3'/'F5'."""
    if ring == RING_Z:
        return None
    if ring in ("F2", "F3", "F5"):
        return int(ring[1:])
    raise ValueError("unsupported ring %r" % ring)


class GModule:
    """Module of finite rank over Z or F_p with an action of a FiniteGroup."""

    def __init__(self, group, ring, rank, action_on_generators, check=True, name=None):
        self.group = group
        self.ring = ring
        self.p = ring_prime(ring)
        self.rank = int(rank)
        self.name = name or "M"
        gens = {}
        for g, m in action_on_generators.items():
            m = np.asarray(m, dtype=np.int64)
            if m.shape != (self.rank, self.rank):
                raise ValueError("action matrix has wrong shape")
            gens[int(g)] = m % self.p if self.p else m
        self._mats = {group.identity: np.eye(self.rank, dtype=np.int64)}
        self._bound = {group.identity: 1}
        for g, m in gens.items():
            self._store(g, m)
        # complete by BFS: multiply each newly reached element by the generators
        frontier = list(self._mats)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    c = group.mul(a, g)
                    if c not in self._mats:
                        self._store(c, self._product(a, g))
                        nxt.append(c)
            frontier = nxt
        if len(self._mats) < group.order:
            raise ValueError("generators with given action do not cover the group")
        if check:
            self._validate()

    def _store(self, g, m):
        """Record the matrix of g with its max |entry| (p - 1 bounds it over
        F_p)."""
        self._mats[g] = m
        self._bound[g] = self.p - 1 if self.p else int(np.abs(m).max(initial=0))

    def _product(self, a, b):
        """act(a) @ act(b), reduced mod p.  In int64 when the stored bounds
        show no sum of products can wrap; otherwise exact, and a ValueError
        when the product does not fit in int64."""
        A, B = self._mats[a], self._mats[b]
        if self._bound[a] * self._bound[b] * self.rank < intlin.INT64_SAFE:
            prod = A @ B
        else:
            prod = intlin.product(A, B)
            info = np.iinfo(np.int64)
            if prod.size and not info.min <= prod.min() <= prod.max() <= info.max:
                raise ValueError("action matrix product overflows int64")
            prod = prod.astype(np.int64)
        return prod % self.p if self.p else prod

    def _validate(self):
        G = self.group
        if not np.array_equal(self._mats[G.identity], np.eye(self.rank, dtype=np.int64)):
            raise ValueError("identity must act trivially")
        # act(a) act(a^-1) = act(e) = I is among the products checked, so
        # every integral act(a) has determinant +-1 once these pass
        for a in range(G.order):
            for b in range(G.order):
                prod = self._product(a, b)
                if not np.array_equal(prod, self._mats[G.mul(a, b)]):
                    raise ValueError("action is not a homomorphism at (%d,%d)" % (a, b))

    def act(self, g):
        return self._mats[g]

    def apply(self, g, v):
        out = self._mats[g] @ np.asarray(v, dtype=np.int64)
        return out % self.p if self.p else out

    def trace_matrix(self):
        """Matrix of tr = sum over all group elements of the action."""
        s = sum(self._mats[g] for g in range(self.group.order))
        return s % self.p if self.p else s

    def fixed_points(self, subgroup=None):
        """Basis of {v : g v = v for all g} in the group, or in the given
        subgroup; saturated over Z.

        The group's fixed points are cut out by its generators, a
        subgroup's by each of its non-identity elements.  Returns a list of
        rank-length integer vectors (rows).
        """
        if self.rank == 0:
            return []
        if subgroup is None:
            gens = self.group.generators
        else:
            gens = [h for h in subgroup.elements if h != self.group.identity]
            if not gens:
                return np.eye(self.rank, dtype=np.int64).tolist()
        stacked = np.vstack([self.act(g) - np.eye(self.rank, dtype=np.int64) for g in gens])
        if self.p:
            return [list(v) for v in fp.nullspace(stacked, self.p)]
        return intlin.kernel_basis(stacked)

    def fixed_dim(self):
        return len(self.fixed_points())

    def trace_quotient(self):
        """M^G / tr(M) as a FiniteAbelianGroup (Tate degree-0 invariant)."""
        fixed = self.fixed_points()
        k = len(fixed)
        tr = self.trace_matrix()
        if self.p:
            if k == 0:
                return FiniteAbelianGroup([], 0)
            quot = k - fp.rank(tr, self.p)
            return FiniteAbelianGroup([self.p] * quot, 0)
        if k == 0:
            return FiniteAbelianGroup([], 0)
        # write each tr(e_j) in the fixed basis, then take the cokernel; tr
        # is onto M^G over Q, as it is |G| on M^G
        cols = intlin.lattice_coords(fixed, tr.T, self.rank).T
        free_rank, factors = intlin.quotient_structure(k, cols, self.group.order, k)
        return FiniteAbelianGroup(factors, free_rank)

    def dual(self):
        """Contragredient module: g acts by transpose-inverse."""
        G = self.group
        gens = {g: self.act(G.inv(g)).T for g in G.generators}
        return GModule(G, self.ring, self.rank, gens, check=False, name=self.name + "*")

    def direct_sum(self, *others):
        """Block-diagonal sum of this module and the others, in order."""
        mods = (self,) + others
        if any(m.group is not self.group or m.ring != self.ring for m in mods):
            raise ValueError("direct summands need the same group and ring")
        total = sum(m.rank for m in mods)
        gens = {}
        for g in self.group.generators:
            mat = np.zeros((total, total), dtype=np.int64)
            off = 0
            for m in mods:
                mat[off:off + m.rank, off:off + m.rank] = m.act(g)
                off += m.rank
            gens[g] = mat
        return GModule(self.group, self.ring, total, gens, check=False)

    def to_json(self):
        return {
            "group": self.group.name,
            "ring": self.ring,
            "rank": self.rank,
            "action": {
                self.group.labels[g]: self.act(g).tolist() for g in self.group.generators
            },
        }

    @staticmethod
    def from_json(desc, group):
        if isinstance(desc, str):
            desc = json.loads(desc)
        label_to_idx = {lab: i for i, lab in enumerate(group.labels)}
        gens = {label_to_idx[lab]: mat for lab, mat in desc["action"].items()}
        return GModule(group, desc["ring"], desc["rank"], gens)

    def __repr__(self):
        return "GModule(%s, %s, rank=%d)" % (self.group.name, self.ring, self.rank)


class FiniteAbelianGroup:
    """Invariant-factor form d_1 | d_2 | ... plus a free rank."""

    def __init__(self, invariant_factors, free_rank=0):
        fac = [int(d) for d in invariant_factors if d != 1]
        for i in range(len(fac) - 1):
            if fac[i + 1] % fac[i] != 0:
                raise ValueError("invariant factors must form a dividing chain")
        if any(d < 2 for d in fac):
            raise ValueError("invariant factors must be >= 2")
        self.invariant_factors = fac
        self.free_rank = int(free_rank)

    @property
    def order(self):
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def exponent(self):
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    def __eq__(self, other):
        if isinstance(other, FiniteAbelianGroup):
            return (self.invariant_factors == other.invariant_factors
                    and self.free_rank == other.free_rank)
        return NotImplemented

    def __repr__(self):
        parts = ["Z/%d" % d for d in self.invariant_factors]
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"invariant_factors": self.invariant_factors, "free_rank": self.free_rank}


def make_trivial(group, ring=RING_Z, rank=1):
    I = np.eye(rank, dtype=np.int64)
    return GModule(group, ring, rank, {g: I for g in group.generators},
                   check=False, name="triv")


def make_permutation(group, subgroup, ring=RING_Z):
    """Permutation module on the left cosets G/H."""
    reps, coset_of = subgroup.cosets()
    k = len(reps)
    gens = {}
    for g in group.generators:
        m = np.zeros((k, k), dtype=np.int64)
        m[coset_of[group.table[g, reps]], np.arange(k)] = 1
        gens[g] = m
    return GModule(group, ring, k, gens, check=False,
                   name="%s[%s/H%d]" % (ring, group.name, subgroup.order))


def make_regular(group, ring=RING_Z):
    return make_permutation(group, group.trivial_subgroup(), ring)


def make_sign_cyclic(group, ring=RING_Z):
    """Rank-1 module where the first element of order |G| acts by -1 (needs a
    cyclic group of even order)."""
    if group.family() != "cyclic":
        raise UnsupportedFamilyError("the sign module needs a cyclic group")
    if group.order % 2:
        raise ValueError("sign module needs a group of even order")
    gens = {group.cyclic_generator(): [[-1]]}
    return GModule(group, ring, 1, gens, check=False, name="sign")


def make_augmentation_quotient(group, ring=RING_Z):
    """ZG/Z: regular module modulo the span of the all-ones trace vector.

    Basis: images of the non-identity group elements g - (identity coset
    collapse); concretely take basis [g] for g != e with [e] = -sum [g].
    """
    n = group.order
    e = group.identity
    others = [g for g in range(n) if g != e]
    pos = {g: i for i, g in enumerate(others)}
    k = n - 1
    gens = {}
    for g in group.generators:
        m = np.zeros((k, k), dtype=np.int64)
        for i, a in enumerate(others):
            ga = group.mul(g, a)
            if ga == e:
                m[:, i] = -1
            else:
                m[pos[ga], i] = 1
        gens[g] = m
    return GModule(group, ring, k, gens, check=False, name="%sG/%s" % (ring, ring))


def random_cyclic_module(group, rank, rng=None, ring=RING_Z):
    """Random integral representation of a cyclic group.

    Built from companion blocks of x^d -+ 1 for random divisors d of the
    group order (sign allowed only when the quotient m/d is even, so the
    generator relation holds by construction), then conjugated by a random
    unimodular matrix to obscure the block shape.
    """
    rng = rng or random.Random(0)
    m = group.order
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    blocks = []
    left = rank
    while left > 0:
        d = rng.choice([d for d in divisors if d <= left])
        eps = 1
        if (m // d) % 2 == 0 and rng.random() < 0.5:
            eps = -1
        blk = np.zeros((d, d), dtype=np.int64)
        for i in range(d - 1):
            blk[i + 1, i] = 1
        blk[0, d - 1] = eps
        blocks.append(blk)
        left -= d
    gen_mat = np.zeros((rank, rank), dtype=np.int64)
    off = 0
    for blk in blocks:
        d = blk.shape[0]
        gen_mat[off:off + d, off:off + d] = blk
        off += d
    U, Uinv = _random_unimodular(rank, rng)
    gens = {group.cyclic_generator(): intlin.product(intlin.product(U, gen_mat), Uinv)}
    return GModule(group, ring, rank, gens, check=True, name="rand")


def _random_unimodular(rank, rng):
    """A random product U of elementary matrices, and its exact inverse as
    the product of the elementary inverses in reverse order."""
    U = np.eye(rank, dtype=np.int64)
    Uinv = np.eye(rank, dtype=np.int64)
    for _ in range(2 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i != j:
            E = np.eye(rank, dtype=np.int64)
            E[i, j] = rng.choice([1, -1])
            U = U @ E
            E[i, j] = -E[i, j]
            Uinv = E @ Uinv
    return U, Uinv


def random_lattice(group, rng=None):
    """Random integral module for any supported group: a direct sum of
    permutation pieces, sum-kernel sublattices and augmentation quotients,
    conjugated by a random unimodular matrix.

    The sum-kernel and quotient pieces have nonvanishing H^1 in general, so
    these exercise coflasque resolutions nontrivially.
    """
    rng = rng or random.Random(0)
    subs = group.subgroups()
    pieces = []
    for _ in range(rng.randint(1, 2)):
        H = rng.choice(subs)
        P = make_permutation(group, H)
        kind = rng.randrange(3)
        if kind == 1 and P.rank > 1:
            # kernel of the coset-sum functional inside Z[G/H]
            ker = intlin.kernel_basis([[1] * P.rank])
            pieces.append(_submodule_from_kernel(P, ker, "ker(sum)"))
        elif kind == 2 and group.order > 1:
            pieces.append(make_augmentation_quotient(group))
        else:
            pieces.append(P)
    M = pieces[0].direct_sum(*pieces[1:])
    U, Uinv = _random_unimodular(M.rank, rng)
    gens = {g: intlin.product(intlin.product(U, M.act(g)), Uinv)
            for g in group.generators}
    return GModule(group, RING_Z, M.rank, gens, check=False, name="randlat")


def restrict(M, subgroup):
    """Restriction along a Subgroup; returns (module over H, H-as-group, embed)."""
    H, embed = subgroup.as_group()
    gens = {i: M.act(embed[i]) for i in H.generators}
    N = GModule(H, M.ring, M.rank, gens, check=False, name=M.name + "|H")
    return N, H, embed


def _module_generators_z(M):
    """Greedy generating set of M as a module over the integral group ring."""
    n = M.group.order
    gens = []
    lat = intlin.IntLattice(M.rank)
    for j in range(M.rank):
        e = [0] * M.rank
        e[j] = 1
        if not lat.contains(e):
            gens.append(e)
            for g in range(n):
                lat.add([int(x) for x in M.apply(g, e)])
    return gens


def _radical_complement_basis(M):
    """Lift of a basis of M / rad(M), rad generated by (g-1)M over generators."""
    eye = np.eye(M.rank, dtype=np.int64)
    span = fp.Span(M.rank, M.p, [row for g in M.group.generators
                                 for row in (M.act(g) - eye).T])
    return [list(e) for e in eye if span.add(e)]


def permutation_sum(M, pieces, ring=RING_Z, name="P"):
    """P = sum of ring[G/H] over the (H, w) pieces, with the matrix of the
    map S : P -> M sending the coset tH of each summand to t.w.

    Cosets are ordered by make_permutation.  S is G-equivariant when each w
    is fixed by its H; trivial-subgroup pieces give a free module.
    """
    G = M.group
    perms = [make_permutation(G, H, ring) for H, _ in pieces]
    P = make_trivial(G, ring, rank=0).direct_sum(*perms)
    P.name = name
    cols = [M.apply(t, w) for H, w in pieces for t in H.cosets()[0].tolist()]
    S = np.array(cols, dtype=np.int64).reshape(len(cols), M.rank).T
    return P, S % M.p if M.p else S


def _submodule_from_kernel(F, kernel_rows, name):
    """Module structure on a G-stable subspace/sublattice of the module F.

    kernel_rows: basis vectors in F's coordinates.  Action matrices are
    computed by applying F's generators and re-expressing in the basis.
    """
    k = len(kernel_rows)
    K = np.array(kernel_rows, dtype=np.int64).reshape(k, F.rank)
    gens = F.group.generators
    if F.p:
        mats = [fp.solve(K.T, (F.act(g) @ K.T) % F.p, F.p) for g in gens]
        if any(m is None for m in mats):
            raise RuntimeError("subspace is not stable under the action")
    else:
        # the images under every generator solved in the basis at once,
        # vector i*k + j being generator i applied to K[j]; they are not
        # held while the module below completes its action
        imgs = np.array([intlin.product(K, F.act(g).T) for g in gens])
        X = intlin.lattice_coords(K, imgs.reshape(-1, F.rank), F.rank)
        del imgs
        mats = [X[:, i * k:(i + 1) * k] for i in range(len(gens))]
    return GModule(F.group, F.ring, k, dict(zip(gens, mats)), check=False, name=name)


def syzygy(M, gens=None):
    """Kernel of a surjection from a free module onto M.

    Over Z the default generating set is greedy, so the result is
    well-defined only up to free summands; probe it with invariants that
    kill free modules, or pass a known small generating set explicitly.
    Over F_p (p-group) the generators lift a basis of M/rad(M), giving the
    minimal syzygy.
    """
    if gens is None and M.p:
        # minimal mode needs projective = free, so insist on a p-group:
        # every element order divides p^N for N the bit length of |G|
        N = M.group.order.bit_length()
        if any(M.p ** N % o for o in M.group.element_orders.tolist()):
            raise ValueError("minimal syzygy over F_p needs a p-group")
        gens = _radical_complement_basis(M)
    elif gens is None:
        gens = _module_generators_z(M)
    E = M.group.trivial_subgroup()
    F, S = permutation_sum(M, [(E, v) for v in gens], M.ring)
    if M.p:
        ker = fp.nullspace(S, M.p)
        ker_rows = [list(v) for v in ker]
    else:
        ker_rows = intlin.kernel_basis(S)
    return _submodule_from_kernel(F, ker_rows, "Omega(%s)" % M.name)


def augmentation_ideal(group):
    """Kernel of the sum map on the regular integral module.

    Basis b_g = g - e over the non-identity elements; h . b_g = b_{hg} - b_h
    (reading b_e as 0).  Generated over the group ring by the b_s for the
    declared group generators.
    """
    nonid = [g for g in range(group.order) if g != group.identity]
    pos = {g: i for i, g in enumerate(nonid)}
    r = len(nonid)
    gens = {}
    for h in group.generators:
        mat = np.zeros((r, r), dtype=np.int64)
        for g in nonid:
            hg = group.mul(h, g)
            if hg != group.identity:
                mat[pos[hg], pos[g]] += 1
            mat[pos[h], pos[g]] -= 1
        gens[h] = mat
    return GModule(group, RING_Z, r, gens, check=False, name="aug")


def make_omega2_trivial(group):
    """Second syzygy of the trivial integral module, kept small by using
    one free-module generator per group generator."""
    I = augmentation_ideal(group)
    nonid = [g for g in range(group.order) if g != group.identity]
    pos = {g: i for i, g in enumerate(nonid)}
    gens = []
    for s in group.generators:
        v = [0] * I.rank
        v[pos[s]] = 1
        gens.append(v)
    return syzygy(I, gens=gens)


def omega_klein(n, group=None):
    """Omega^n of the trivial F_2 Klein module, dimension 2n+1, over group
    (make_klein4() by default)."""
    M = make_trivial(make_klein4() if group is None else group, "F2")
    for _ in range(n):
        M = syzygy(M)
    return M


def omega_negative_klein(m, group=None):
    """The explicit (2m+1)-dimensional Klein module isomorphic to the m-th
    cosyzygy of the trivial F_2 module, over group (make_klein4() by
    default).

    Basis e_1..e_{2m+1}: both generators fix e_1..e_{m+1};
    g(e_{m+1+i}) = e_i + e_{m+1+i} and h(e_{m+1+i}) = e_{i+1} + e_{m+1+i}.
    """
    if not (1 <= m <= 8):
        raise SizePolicyError("parameter must be between 1 and 8")
    G = make_klein4() if group is None else group
    r = 2 * m + 1
    Mg = np.eye(r, dtype=np.int64)
    Mh = np.eye(r, dtype=np.int64)
    for i in range(1, m + 1):
        Mg[i - 1, m + i] = 1        # e_i component
        Mh[i, m + i] = 1            # e_{i+1} component
    return GModule(G, "F2", r, {kleinres.KLEIN_G: Mg, kleinres.KLEIN_H: Mh},
                   check=False, name="OmegaNeg%d" % m)


def l_zeta_klein(zeta, n, group=None):
    """Kernel of a cocycle representative of zeta^n on Omega^n(F_2), for the
    Klein four group (make_klein4() by default); dimension 2n.

    zeta = (alpha, beta) is a nonzero vector naming the degree-1 class
    alpha*x + beta*y.  The representative of zeta^n is fixed by expanding
    the n-th power binomially on the minimal resolution: the functional
    sending basis slot (p, q) to C(n, p) alpha^p beta^q mod 2.
    """
    alpha, beta = int(zeta[0]) % 2, int(zeta[1]) % 2
    if alpha == 0 and beta == 0:
        raise ValueError("zeta must be nonzero")
    if not (1 <= n <= 8):
        raise SizePolicyError("power must be between 1 and 8")
    G = make_klein4() if group is None else group
    # P_{n-1} = L^n as an F_2 module of n regular blocks; kleinres uses the
    # same element-major layout inside each block
    L = make_regular(G, "F2")
    Pprev = L.direct_sum(*[L] * (n - 1))
    D = kleinres.resolution_differential(G, n)
    # functional f on P_n: slot (p, n-p) contributes C(n,p) a^p b^{n-p} * aug
    f = np.zeros(4 * (n + 1), dtype=np.int64)
    for s in range(n + 1):
        c = (math.comb(n, s) % 2) * (alpha ** s) * (beta ** (n - s))
        if c % 2:
            f[4 * s: 4 * (s + 1)] = 1  # augmentation on the group-algebra block
    # f must kill the next differential (cocycle condition)
    Dnext = kleinres.resolution_differential(G, n + 1)
    if ((f @ Dnext) % 2).any():
        raise VerificationError("representative is not a cocycle")
    # Omega^n = image of D inside P_{n-1}; induced functional via preimages
    span = fp.Span(D.shape[0], 2)
    pivot_idx = [j for j in range(D.shape[1]) if span.add(D[:, j])]
    B = D[:, pivot_idx].T  # rows: basis of Omega^n in P_{n-1} coords
    fhat = np.array([f[j] for j in pivot_idx], dtype=np.int64)
    # kernel of fhat in the basis coordinates
    ker_coords = fp.nullspace(fhat.reshape(1, -1), 2)
    L_rows = [(c @ B) % 2 for c in ker_coords]
    return _submodule_from_kernel(Pprev, L_rows, "L_zeta^%d" % n)

