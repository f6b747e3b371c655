"""Group cohomology, homology and Tate groups via the normalized bar
resolution, with cup products, restriction and chain-level transfer.

Cochains of degree n are vectors of length (|G|-1)^n * rank(M): one
coefficient block per n-tuple of non-identity elements, tuples ordered
lexicographically in the non-identity element list.  Tuples containing the
identity are not part of the basis; evaluation on them returns zero, which
is what normalization means.

The bar cochains and chains splice, through the trace, into the complete
complex whose cohomology is Tate cohomology (Brown, Cohomology of Groups,
VI.3).  Every Tate group is finite (killed by |G|), so over Z it equals the
torsion of the cokernel of the map into its degree, i.e. the nontrivial
invariant factors of that matrix; the map out never has to be built.  H^n
and H_n for n > 0 are Tate groups; H^0 and H_0 are the ones with a free part.
The 2-periodic resolution of a cyclic group and the Klein resolution in
kleinres go through the same ker/im routine.

Restriction, corestriction (the chain-level transfer) and conjugation move
cochains between G and a subgroup, taken as subgroup.as_group().  Each map
reads one integer index table that sends every target tuple to the source
tuple(s) it evaluates on, and is then a numpy gather (plus one product with
an action matrix per coset for the transfer, one for conjugation).  A table
depends on the groups and the degree only, not on the module, so it is
built once and kept on the group G, keyed by the subgroup's elements.  All
three maps take one cochain or a 2-D stack of them, one per row.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from . import fp, intlin
from .errors import ResourceCapError, VerificationError
from .gmodules import FiniteAbelianGroup, make_trivial

DEFAULT_MAX_CELLS = 10 ** 6


def max_cells():
    env = os.environ.get("CHOWTWIST_MAX_CELLS")
    return int(env) if env else DEFAULT_MAX_CELLS


class BarComplex:
    """Normalized bar cochain/chain complex for a group and coefficient module."""

    def __init__(self, group, module):
        if module.group is not group and module.group.order != group.order:
            raise ValueError("module is over a group of another order")
        self.group = group
        self.module = module
        self.nonid = [g for g in range(group.order) if g != group.identity]
        self.q = len(self.nonid)
        self.r = module.rank
        self._pos = {g: i for i, g in enumerate(self.nonid)}
        self._delta_cache = {}
        self._boundary_cache = {}

    def dim(self, n):
        return (self.q ** n) * self.r

    def check_cap(self, n):
        cells = (self.q ** (n + 1)) * self.r
        cap = max_cells()
        if cells > cap:
            raise ResourceCapError(
                "degree-%d bar computation needs %d cells, cap is %d" % (n, cells, cap),
                cells=cells,
            )

    def tuples(self, n):
        """All degree-n basis tuples in lexicographic order."""
        if n == 0:
            return [()]
        out = [()]
        for _ in range(n):
            out = [t + (g,) for t in out for g in self.nonid]
        return out

    def tuple_index(self, t):
        idx = 0
        for g in t:
            idx = idx * self.q + self._pos[g]
        return idx

    def block(self, f, t):
        """Coefficient block of the cochain f at tuple t (zero if t has an
        identity entry)."""
        if self.group.identity in t:
            return np.zeros(self.r, dtype=np.int64)
        i = self.tuple_index(t)
        return f[i * self.r:(i + 1) * self.r]

    def _face_matrix(self, n, chains):
        """The faces of each n-tuple t, summed without a cap: t[1:] through
        t[0] (through t[0]^-1 on chains), the signed merges and t[:n-1].
        On cochains, with t indexing the rows, this is delta_{n-1}; on
        chains, with t indexing the columns, it is d_n."""
        G, M, r = self.group, self.module, self.r
        shape = (self.dim(n), self.dim(n - 1))
        D = np.zeros(shape[::-1] if chains else shape, dtype=np.int64)
        eye = np.eye(r, dtype=np.int64)

        def add_block(idx, face, mat):
            if G.identity in face:
                return
            j = self.tuple_index(face)
            a, b = (j, idx) if chains else (idx, j)
            D[a * r:(a + 1) * r, b * r:(b + 1) * r] += mat

        for idx, t in enumerate(self.tuples(n)):
            add_block(idx, t[1:], M.act(G.inv(t[0]) if chains else t[0]))
            sign = -1
            for i in range(n - 1):
                merged = t[:i] + (G.mul(t[i], t[i + 1]),) + t[i + 2:]
                add_block(idx, merged, sign * eye)
                sign = -sign
            add_block(idx, t[:n - 1], sign * eye)
        if M.p:
            D %= M.p
        return D

    def delta_matrix(self, n):
        """Dense matrix of delta_n, shape dim(n+1) x dim(n)."""
        if n not in self._delta_cache:
            self.check_cap(n)
            self._delta_cache[n] = self._face_matrix(n + 1, chains=False)
        return self._delta_cache[n]

    def complete_map(self, i):
        """d^i : C^i -> C^{i+1} of the complete complex, whose degree i >= 0
        holds the bar cochains C^i and degree i < 0 the chains C_{-1-i}:
        the coboundary for i >= 0, the trace at -1, the boundary below.

        delta_0 and d_1 are built without the cap, so that Tate degrees 0
        and -1 need none.
        """
        if i >= 1:
            return self.delta_matrix(i)
        if i <= -3:
            return self.boundary_matrix(-1 - i)
        if i == -1:
            return self.module.trace_matrix()
        return self._face_matrix(1, chains=i == -2)

    def boundary_matrix(self, n):
        """Matrix of the homology boundary d_n : C_n -> C_{n-1} for
        M tensored over the group ring with the bar resolution.

        Chains carry the right action m.g = rho(g^{-1}) m, so
        d(m (x) [g1|...|gn]) = m.g1 (x) [g2|...|gn]
          + sum (-1)^i m (x) [...|g_i g_{i+1}|...] + (-1)^n m (x) [g1|...].
        """
        if n not in self._boundary_cache:
            self.check_cap(n)
            self._boundary_cache[n] = self._face_matrix(n, chains=True)
        return self._boundary_cache[n]


class CohomologyResult:
    """H^n (or H_n, or a Tate group) with its presentation data.

    structure is a FiniteAbelianGroup over Z; over F_p the dimension is
    stored and structure lists that many copies of Z/p.
    """

    def __init__(self, degree, ring, structure=None, dim=None):
        self.degree = degree
        self.ring = ring
        if dim is not None and structure is None:
            p = int(ring[1:])
            structure = FiniteAbelianGroup([p] * dim if dim else [], 0)
        self.structure = structure
        self.dim = dim

    def __repr__(self):
        if self.dim is not None:
            return "H(deg=%d) = F^%d" % (self.degree, self.dim)
        return "H(deg=%d) = %s" % (self.degree, self.structure)

    def to_json(self):
        out = {"degree": self.degree, "ring": self.ring}
        if self.dim is not None:
            out["dim"] = self.dim
        if self.structure is not None:
            out["structure"] = self.structure.to_json()
        return out


def _finite_homology(degree, module, dim, d_in, d_out):
    """ker(d_out)/im(d_in) at a degree where that group is finite.

    d_in and d_out build the maps into and out of the degree (None for a
    zero map).  Over F_p the dimension is dim - rank - rank.  Over Z the
    group is the torsion of coker(d_in), so d_out is never built.
    """
    if module.p:
        ranks = [fp.rank(d(), module.p) for d in (d_out, d_in) if d is not None]
        return CohomologyResult(degree, module.ring, dim=dim - sum(ranks))
    factors = []
    if d_in is not None:
        factors, _ = intlin.invariant_factors(d_in(), module.group.order)
    return CohomologyResult(degree, "Z", structure=FiniteAbelianGroup(factors, 0))


def bar_cohomology(group, module, n):
    """H^n(G, M) from the normalized bar resolution."""
    if n > 0:
        return tate(group, module, n)
    if n < 0:
        raise ValueError("cohomology degrees must be >= 0 (use tate for negatives)")
    BarComplex(group, module).check_cap(n)
    if module.p:
        return CohomologyResult(0, module.ring, dim=module.fixed_dim())
    return CohomologyResult(0, "Z", structure=FiniteAbelianGroup([], module.fixed_dim()))


def bar_homology(group, module, n):
    """H_n(G, M) from the normalized bar resolution: Tate degree -1-n for
    n > 0, and the coinvariants M_G = coker d_1 at n = 0."""
    if n > 0:
        res = tate(group, module, -1 - n)
        res.degree = n
        return res
    if n < 0:
        raise ValueError("homology degrees must be >= 0")
    d1 = BarComplex(group, module).complete_map(-2)
    if module.p:
        return CohomologyResult(0, module.ring, dim=module.rank - fp.rank(d1, module.p))
    factors, rank = intlin.invariant_factors(d1, group.order)
    return CohomologyResult(0, "Z", structure=FiniteAbelianGroup(factors, module.rank - rank))


def tate(group, module, i):
    """Tate cohomology in any degree from the complete bar complex,
    labelled with the Tate degree i (below -1 it is the homology H_{-1-i})."""
    bc = BarComplex(group, module)
    if i > 0:
        bc.check_cap(i)
    elif i < -1:
        bc.check_cap(-i)
    k = i if i >= 0 else -1 - i  # bar degree of the (co)chains in Tate degree i
    return _finite_homology(i, module, bc.dim(k),
                            lambda: bc.complete_map(i - 1), lambda: bc.complete_map(i))


def cyclic_cohomology(group, module, n):
    """H^n for a cyclic group from the 2-periodic resolution.

    The cochain maps alternate S = sigma - 1 (out of even degrees) and the
    trace (out of odd ones); H^0 = M^G is the one group with a free part.
    """
    if len(group.generators) != 1 and group.order > 1:
        raise ValueError("periodic resolution needs a cyclic group")
    M = module
    if n == 0 and not M.p:
        return CohomologyResult(0, "Z", structure=FiniteAbelianGroup([], M.fixed_dim()))
    S = M.act(group.generators[0]) - np.eye(M.rank, dtype=np.int64)

    def d(k):
        return M.trace_matrix() if k % 2 else S

    return _finite_homology(n, M, M.rank, (lambda: d(n - 1)) if n else None,
                            lambda: d(n))


# ---------------------------------------------------------------------------
# cup products, restriction, transfer


def cup_with_trivial(group, module, a, p_deg, b, q_deg):
    """Cup product of a scalar cochain a (trivial F_p coefficients, degree
    p_deg) with a module-valued cochain b of degree q_deg.

    (a cup b)(g_1..g_{p+q}) = a(g_1..g_p) * ((g_1...g_p) . b(g_{p+1}..)).
    """
    if module.p is None:
        raise ValueError("cup_with_trivial needs F_p coefficients")
    bc = BarComplex(group, module)
    scal = BarComplex(group, make_trivial(group, module.ring))
    n = p_deg + q_deg
    out = np.zeros(bc.dim(n), dtype=np.int64)
    r = bc.r
    for idx, t in enumerate(bc.tuples(n)):
        front, back = t[:p_deg], t[p_deg:]
        av = scal.block(a, front)[0] if p_deg else a[0]
        if av % module.p == 0:
            continue
        g = group.identity
        for x in front:
            g = group.mul(g, x)
        bv = bc.block(b, back) if q_deg else b
        out[idx * r:(idx + 1) * r] = av * (module.act(g) @ bv)
    return out % module.p


def _cochain_table(G, key, build):
    """The index table key over G: built by build() on first use and kept
    on G, as the subgroups that key names are fresh objects on most calls."""
    tables = G._cochain_tables
    if key not in tables:
        tables[key] = build()
    return tables[key]


def _positions(G, elements):
    """(pos, q): pos maps each listed non-identity element of G to its place
    in the sorted list of them, and every other element to -1."""
    nonid = [e for e in elements if e != G.identity]
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[nonid] = np.arange(len(nonid))
    return pos, len(nonid)


def _tuple_indices(digits, base, n):
    """Base-`base` index of every n-tuple over `digits`, the tuples in
    lexicographic order of their places in `digits`."""
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        idx = (idx[:, None] * base + digits).ravel()
    return idx


def _blocks(f, tuples, r):
    """A cochain, or a 2-D stack of them (one per row), as an
    m x tuples x r array, and whether it was a single cochain."""
    F = np.asarray(f, dtype=np.int64)
    return F.reshape(len(F) if F.ndim > 1 else 1, tuples, r), F.ndim == 1


def _unblock(out, single, p):
    m, tuples, r = out.shape
    out = out.reshape(m, tuples * r)
    if p:
        out %= p
    return out[0] if single else out


def restriction_cochain(G, module, subgroup, f, n):
    """Restrict a degree-n cochain over G, or a 2-D stack of them, to the
    subgroup, as the group subgroup.as_group(); the coefficient module keeps
    its parent coordinates.  One gather through the G-tuple index of each
    subgroup tuple."""
    def build():
        posG, qG = _positions(G, range(G.order))
        return _tuple_indices(posG[[e for e in subgroup.elements if e != G.identity]],
                              qG, n)

    idx = _cochain_table(G, ("res", subgroup.elements, n), build)
    F, single = _blocks(f, (G.order - 1) ** n, module.rank)
    return _unblock(F[:, idx], single, None)


def corestriction_cochain(G, module, subgroup, fH, n):
    """Chain-level transfer of a degree-n cochain over subgroup.as_group(),
    or a 2-D stack of them, to G.

    Right coset representatives t_i of H\\G are the minimal element index in
    each coset.  Writing t_i g = h_i(g) t_{sigma_g(i)} with h_i(g) in the
    subgroup, the transfer is

      (cor f)(g_1,..,g_n) = sum_i t_i^{-1} . f(h_{i_1}(g_1), h_{i_2}(g_2), ..)

    with i_1 = i and i_{k+1} = sigma_{g_k}(i_k).

    The H-tuple of every G-tuple and coset comes from an index table built
    column by column out of the |cosets| x |G| tables sigma and h, read off
    G.table and G.inverse; -1 marks an H-tuple with an identity entry,
    where f is zero.  The table depends on (G, H, n) only and is kept on G.
    The transfer is then one gather and one product with t_i^{-1} per coset.
    """
    def build():
        reps = np.array(subgroup.right_coset_reps())
        els = np.array(subgroup.elements)
        coset = np.empty(G.order, dtype=np.int64)
        coset[G.table[np.ix_(els, reps)]] = np.arange(len(reps))
        tg = G.table[reps]  # t_i g
        sigma = coset[tg]
        posH, qH = _positions(G, subgroup.elements)
        h = posH[G.table[tg, G.inverse[reps[sigma]]]]
        nonid = [g for g in range(G.order) if g != G.identity]
        sigma, h = sigma[:, nonid], h[:, nonid]  # coset x G-position
        cur = np.arange(len(reps))[None, :]  # coset of each (G-tuple, i_1)
        idx = np.zeros_like(cur)
        for _ in range(n):
            hk = h[cur].transpose(0, 2, 1)  # G-tuple x next entry x i_1
            idx = np.where((idx[:, None, :] < 0) | (hk < 0), -1,
                           idx[:, None, :] * qH + hk).reshape(-1, len(reps))
            cur = sigma[cur].transpose(0, 2, 1).reshape(-1, len(reps))
        return idx, [G.inv(int(t)) for t in reps]

    idx, inv_reps = _cochain_table(G, ("cor", subgroup.elements, n), build)
    r = module.rank
    F, single = _blocks(fH, (subgroup.order - 1) ** n, r)
    padded = np.concatenate([F, np.zeros((len(F), 1, r), dtype=np.int64)], axis=1)
    out = np.zeros((len(F), len(idx), r), dtype=np.int64)
    for i, t_inv in enumerate(inv_reps):
        out += padded[:, idx[:, i]] @ module.act(t_inv).T
    return _unblock(out, single, module.p)


def conjugation_cochain(G, module, src_subgroup, x, f, n):
    """Conjugation c_x : cochains over H to cochains over xHx^{-1},
    (c_x f)(k_1..k_n) = x . f(x^{-1} k_1 x, ..), for one cochain or a 2-D
    stack of them.

    Both subgroup cochain spaces use their as_group presentations.
    """
    def build():
        tgt = G.generated_subgroup([G.conj(x, a) for a in src_subgroup.elements])
        posH, qH = _positions(G, src_subgroup.elements)
        xinv = G.inv(x)
        back = [G.conj(xinv, k) for k in tgt.elements if k != G.identity]
        return _tuple_indices(posH[back], qH, n), tgt

    idx, tgt = _cochain_table(G, ("conj", src_subgroup.elements, x, n), build)
    F, single = _blocks(f, (src_subgroup.order - 1) ** n, module.rank)
    return _unblock(F[:, idx] @ module.act(x).T, single, module.p), tgt


def character_chern(group, chi):
    """Degree-2 integral cocycle of the central extension classified by a
    character chi : group -> Q/Z (the carry cocycle of its rational lift).

    chi maps element index -> Fraction in [0, 1); checked to be a
    homomorphism into Q/Z.
    """
    chi = {g: Fraction(v) % 1 for g, v in chi.items()}
    for a in range(group.order):
        for b in range(group.order):
            if (chi[a] + chi[b] - chi[group.mul(a, b)]) % 1 != 0:
                raise ValueError("chi is not a homomorphism to Q/Z")
    bc = BarComplex(group, make_trivial(group))
    out = np.zeros(bc.dim(2), dtype=np.int64)
    for idx, (a, b) in enumerate(bc.tuples(2)):
        carry = chi[a] + chi[b] - (chi[group.mul(a, b)] % 1)
        if carry.denominator != 1:
            raise VerificationError("carry of a Q/Z-valued character is not an integer")
        out[idx] = int(carry)
    return out


def all_characters(group):
    """All homomorphisms group -> Q/Z, found by brute force over values on
    the declared generators (values are multiples of 1/order)."""
    from itertools import product

    n = group.order
    gens = group.generators
    out = []
    for vals in product([Fraction(k, n) for k in range(n)], repeat=len(gens)):
        chi = {group.identity: Fraction(0)}
        ok = True
        frontier = [group.identity]
        assign = dict(zip(gens, vals))
        while frontier and ok:
            nxt = []
            for g in frontier:
                for s, v in assign.items():
                    gs = group.mul(g, s)
                    val = (chi[g] + v) % 1
                    if gs in chi:
                        if chi[gs] != val:
                            ok = False
                            break
                    else:
                        chi[gs] = val
                        nxt.append(gs)
                if not ok:
                    break
            frontier = nxt
        if ok and len(chi) == n:
            out.append(chi)
    return out


class IntegralClassSpace:
    """Coordinates on H^n(G, M) over Z for mapping cocycles to classes.

    Runs Smith normal form on delta_{n-1} with the forward transform
    tracked; a cocycle's class is its vector of cokernel coordinates at the
    torsion slots (free slots must read zero, since H^n is finite).
    """

    def __init__(self, group, module, n):
        if n < 1 or module.p is not None:
            raise ValueError("class coordinates need degree >= 1 and Z coefficients")
        self.bc = BarComplex(group, module)
        dprev = self.bc.delta_matrix(n - 1)
        diag, U = intlin.smith_normal_form([[int(x) for x in r] for r in dprev], want_u=True)
        self.n = n
        self.diag = diag
        self.U = U
        self.m = self.bc.dim(n)
        self.torsion_slots = [j for j, d in enumerate(diag) if d != 1]
        self.factors = [diag[j] for j in self.torsion_slots]

    def class_of(self, cocycle):
        """Coordinates of a cocycle in the torsion factors of H^n."""
        w = intlin.product(self.U, cocycle)
        if w[len(self.diag):].any():
            raise ValueError("vector is not a cocycle (free cokernel coordinate)")
        return tuple(int(w[j]) % self.diag[j] for j in self.torsion_slots)

    def element_order(self, cls):
        ord_ = 1
        for c, m in zip(cls, self.factors):
            if c % m:
                ord_ = ord_ * (m // math.gcd(m, c)) // math.gcd(ord_, m // math.gcd(m, c))
        return ord_
