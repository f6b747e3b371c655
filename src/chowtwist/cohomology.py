"""Group cohomology, homology and Tate groups via the normalized bar
resolution and the small resolutions of the recognised families, with
restriction and chain-level transfer.

cohomology(G, M, n) reads H^n off a small resolution when the table has
one: in degree n its cochains have dimension r or 2r (generalized
quaternion) or C(n+k-1, k-1) r (abelian, k cyclic factors), against
(|G|-1)^n r for the bar complex, r = rank M.  The bar complex stays the
oracle: bar_cohomology, tate, bar_homology and the transfers use it alone.

Bar cochains of degree n are vectors of length (|G|-1)^n * rank(M): one
coefficient block per n-tuple of non-identity elements, tuples ordered
lexicographically in the non-identity element list, so that a tuple's index
is its base-q number, q = |G|-1, in the positions of its entries.  Tuples
containing the identity are not part of the basis; evaluation on them
returns zero, which is what normalization means.  The coboundaries and the
boundaries are built from that index by arithmetic: each face of the bar
differential is one numpy scatter over every tuple at once.

The bar cochains and chains splice, through the trace, into the complete
complex whose cohomology is Tate cohomology (Brown, Cohomology of Groups,
VI.3).  Every Tate group is finite (killed by |G|), so over Z it equals the
torsion of the cokernel of the map into its degree, i.e. the nontrivial
invariant factors of that matrix; the map out never has to be built.  H^n
and H_n for n > 0 are Tate groups; H^0 and H_0 are the ones with a free part.
For a lattice M the complete complex is exact over Q, as |G| kills every
Tate group (Brown, III.10 and VI.3), so the rank of each map follows from
rank M^G and the dimensions alone (BarComplex.rank): the invariant factors
take it as given, and only their p-adic eliminations run.  The small
resolutions go through the same ker/im routine, with their ranks over Q
from exactness in the same way.

Restriction, corestriction (the chain-level transfer) and conjugation move
cochains between G and a subgroup, taken as subgroup.as_group().  Each map
reads one integer index table, in the same base-q tuple index, that sends
every target tuple to the source tuple(s) it evaluates on, and is then a
numpy gather (plus one product with an action matrix per coset for the
transfer, one for conjugation).  A table depends on the groups and the
degree only, not on the module, so it is built once and kept on the group
G, keyed by the subgroup's elements.  All three maps take one cochain or a
2-D stack of them, one per row.
"""

from __future__ import annotations

import math

import numpy as np

from . import fp, intlin, kleinres
from .errors import VerificationError, check_cells
from .gmodules import FiniteAbelianGroup


class BarComplex:
    """Normalized bar cochain/chain complex for a group and coefficient module."""

    def __init__(self, group, module):
        if module.group is not group and module.group.order != group.order:
            raise ValueError("module is over a group of another order")
        self.group = group
        self.module = module
        self.nonid = np.array([g for g in range(group.order) if g != group.identity],
                              dtype=np.int64)
        self.q = len(self.nonid)
        self.r = module.rank
        self._delta_cache = {}
        self._boundary_cache = {}

    def dim(self, n):
        return (self.q ** n) * self.r

    def _face_matrix(self, n, chains):
        """The faces of each n-tuple t: t[1:] through t[0] (through
        t[0]^-1 on chains), the signed merges and t[:n-1].  On cochains,
        with t indexing the rows, this is delta_{n-1}; on chains, with t
        indexing the columns, it is d_n.  Either has q^(2n-1) r^2 cells, and
        one above max_cells() raises ResourceCapError before any is
        allocated.

        Tuples carry the base-q index of _tuple_indices, so every face index
        is arithmetic on t, and each face is one scatter of blocks over all
        t at once; a merge that hits the identity is dropped."""
        G, M, q, r = self.group, self.module, self.q, self.r
        name = "d_%d" % n if chains else "delta_%d" % (n - 1)
        check_cells(name + " of the bar complex", q ** (2 * n - 1) * r * r)
        t = np.arange(q ** n)
        entry = [self.nonid[(t // q ** (n - 1 - k)) % q] for k in range(n)]
        shape = (q ** (n - 1), r, q ** n, r) if chains else (q ** n, r, q ** (n - 1), r)
        D = np.zeros(shape, dtype=np.int64)

        def add(src, face, blocks):
            if chains:
                D[face, :, src, :] += blocks
            else:
                D[src, :, face, :] += blocks

        acts = np.array([M.act(g) for g in range(G.order)])
        add(t, t % q ** (n - 1), acts[G.inverse[entry[0]] if chains else entry[0]])
        pos, _ = _positions(G, range(G.order))
        eye = np.eye(r, dtype=np.int64)
        for i in range(n - 1):
            m = pos[G.table[entry[i], entry[i + 1]]]
            src, m = t[m >= 0], m[m >= 0]
            face = ((src // q ** (n - i)) * q + m) * q ** (n - i - 2) + src % q ** (n - i - 2)
            add(src, face, (-1) ** (i + 1) * eye)
        add(t, t // q, (-1) ** n * eye)
        D = D.reshape(shape[0] * r, shape[2] * r)
        if M.p:
            D %= M.p
        return D

    def delta_matrix(self, n):
        """Dense matrix of delta_n, shape dim(n+1) x dim(n)."""
        if n not in self._delta_cache:
            self._delta_cache[n] = self._face_matrix(n + 1, chains=False)
        return self._delta_cache[n]

    def complete_map(self, i):
        """d^i : C^i -> C^{i+1} of the complete complex, whose degree i >= 0
        holds the bar cochains C^i and degree i < 0 the chains C_{-1-i}:
        the coboundary for i >= 0, the trace at -1, the boundary below.
        Every bar matrix, delta_0 and d_1 included, is built under the cap.
        """
        if i >= 1:
            return self.delta_matrix(i)
        if i <= -3:
            return self.boundary_matrix(-1 - i)
        if i == -1:
            return self.module.trace_matrix()
        return self._face_matrix(1, chains=i == -2)

    def rank(self, i):
        """Rank over Q of complete_map(i), for a lattice: the complete
        complex is exact over Q, so with f = rank M^G, rank delta_0 = r - f,
        rank delta_n = dim(n) - rank delta_(n-1), the trace has rank f and
        rank d_n = rank delta_(n-1).  No matrix is built."""
        if self.module.p:
            raise ValueError("ranks from exactness need a lattice, not F_%d"
                             % self.module.p)
        f = self.module.fixed_rank()
        if i == -1:
            return f
        rank = self.r - f
        for n in range(1, i + 1 if i >= 0 else -1 - i):
            rank = self.dim(n) - rank
        return rank

    def boundary_matrix(self, n):
        """Matrix of the homology boundary d_n : C_n -> C_{n-1} for
        M tensored over the group ring with the bar resolution.

        Chains carry the right action m.g = rho(g^{-1}) m, so
        d(m (x) [g1|...|gn]) = m.g1 (x) [g2|...|gn]
          + sum (-1)^i m (x) [...|g_i g_{i+1}|...] + (-1)^n m (x) [g1|...].
        """
        if n not in self._boundary_cache:
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


def _finite_homology(degree, module, dim, d_in, d_out, rank_in=None):
    """ker(d_out)/im(d_in) at a degree where that group is finite.

    d_in and d_out build the maps into and out of the degree (None for a
    zero map).  Over F_p the dimension is dim - rank - rank.  Over Z the
    group is the torsion of coker(d_in), so d_out is never built, and
    rank_in returns the rank of d_in over Q (read over Z only), which spares
    the elimination that would find it.
    """
    if module.p:
        ranks = [fp.rank(d(), module.p) for d in (d_out, d_in) if d is not None]
        return CohomologyResult(degree, module.ring, dim=dim - sum(ranks))
    factors = []
    if d_in is not None:
        factors, _ = intlin.invariant_factors(d_in(), module.group.order,
                                              rank_in())
    return CohomologyResult(degree, "Z", structure=FiniteAbelianGroup(factors, 0))


def bar_cohomology(group, module, n):
    """H^n(G, M) from the normalized bar resolution."""
    if n > 0:
        return tate(group, module, n)
    if n < 0:
        raise ValueError("cohomology degrees must be >= 0 (use tate for negatives)")
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
    bc = BarComplex(group, module)
    d1 = bc.complete_map(-2)
    if module.p:
        return CohomologyResult(0, module.ring, dim=module.rank - fp.rank(d1, module.p))
    factors, rank = intlin.invariant_factors(d1, group.order, bc.rank(-2))
    return CohomologyResult(0, "Z", structure=FiniteAbelianGroup(factors, module.rank - rank))


def tate(group, module, i):
    """Tate cohomology in any degree from the complete bar complex,
    labelled with the Tate degree i (below -1 it is the homology H_{-1-i})."""
    bc = BarComplex(group, module)
    k = i if i >= 0 else -1 - i  # bar degree of the (co)chains in Tate degree i
    return _finite_homology(i, module, bc.dim(k),
                            lambda: bc.complete_map(i - 1), lambda: bc.complete_map(i),
                            lambda: bc.rank(i - 1))


def cohomology(group, module, n):
    """H^n(G, M) from the smallest complex the table offers: the 4-periodic
    resolution of a generalized quaternion group, the tensor resolution of
    kleinres on G.abelian_basis(), checking delta^n delta^(n-1) = 0 exactly
    (VerificationError), and the normalized bar resolution otherwise."""
    if n < 0:
        raise ValueError("cohomology degrees must be >= 0 (use tate for negatives)")
    basis = group.abelian_basis()
    if basis is None and group.family() == "quaternion":
        maps = quaternion_maps(group, module)
        return _resolution_cohomology(n, module, lambda j: maps[j % 4].shape[1],
                                      lambda j: maps[j % 4])
    if basis is None:
        return bar_cohomology(group, module, n)
    maps = {j: kleinres.cochain_differential(module, j, basis) for j in {max(n - 1, 0), n}}
    if n:
        square = intlin.product(maps[n], maps[n - 1])
        if (square % module.p if module.p else square).any():
            raise VerificationError("delta^%d delta^%d is not zero on the "
                                    "tensor resolution" % (n, n - 1))
    k, r = len(basis), module.rank
    return _resolution_cohomology(n, module, lambda j: math.comb(j + k - 1, k - 1) * r,
                                  maps.__getitem__)


def _resolution_cohomology(n, M, dim, delta):
    """H^n of a resolution's cochains, dim(j) of them in degree j with
    delta(j) out of it.  H^0 over Z is M^G, the one group with a free part;
    above it the complex is exact over Q, so rank delta^0 = r - rank M^G
    and rank delta^j = dim(j) - rank delta^(j-1)."""
    if n == 0 and not M.p:
        return CohomologyResult(0, "Z", structure=FiniteAbelianGroup([], M.fixed_dim()))

    def rank_in():
        rank = M.rank - M.fixed_rank()
        for j in range(1, n):
            rank = dim(j) - rank
        return rank

    return _finite_homology(n, M, dim(n), (lambda: delta(n - 1)) if n else None,
                            lambda: delta(n), rank_in)


def cyclic_cohomology(group, module, n):
    """H^n for a cyclic group: the tensor resolution on (cyclic_generator(),)."""
    if group.family() != "cyclic":
        raise ValueError("periodic resolution needs a cyclic group")
    return cohomology(group, module, n)


def quaternion_maps(group, module):
    """The cochain maps delta^0..delta^3 of the 4-periodic resolution of a
    generalized quaternion group <x, y | x^t = y^2, xyx = y>, |G| = 4t
    (Cartan-Eilenberg, Homological Algebra, XII.7), on Hom_G(-, M).

    x is the first element of order 2t and y the first with y^2 = x^t and
    xyx = y, both read off the table.  The cochains have dimensions r, 2r,
    2r, r, and with N = sum_{k<t} rho(x^k)

      delta^0 = [rho(x) - I ; rho(y) - I],
      delta^1 = [[N, -(rho(y) + I)], [rho(xy) + I, rho(x) - I]],
      delta^2 = [rho(x) - I, I - rho(xy)],
      delta^3 = the trace, and delta^(n+4) = delta^n.

    delta^(k+1) delta^k = 0 is checked exactly, and a failure raises
    VerificationError.
    """
    G, M = group, module
    if G.family() != "quaternion":
        raise ValueError("4-periodic resolution needs a generalized quaternion group")
    t = G.order // 4
    x = G.element_orders.tolist().index(2 * t)
    powers = [G.identity]
    for _ in range(t):
        powers.append(G.mul(powers[-1], x))
    xt = powers[-1]
    y = next(g for g in range(G.order)
             if G.mul(g, g) == xt and G.mul(G.mul(x, g), x) == g)
    rho, eye = M.act, np.eye(M.rank, dtype=np.int64)
    rx, ry, rxy = rho(x), rho(y), rho(G.mul(x, y))
    maps = [np.vstack([rx - eye, ry - eye]),
            np.block([[sum(rho(g) for g in powers[:-1]), -(ry + eye)],
                      [rxy + eye, rx - eye]]),
            np.hstack([rx - eye, eye - rxy]),
            M.trace_matrix()]
    if M.p:
        maps = [d % M.p for d in maps]
    for k in range(4):
        square = intlin.product(maps[(k + 1) % 4], maps[k])
        if (square % M.p if M.p else square).any():
            raise VerificationError("delta^%d delta^%d is not zero on the "
                                    "quaternion resolution" % ((k + 1) % 4, k))
    return maps


# ---------------------------------------------------------------------------
# restriction, transfer


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
        reps, coset = subgroup.cosets(right=True)
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


def character_generators(group):
    """Generators of the characters chi : group -> Q/Z, each as the integer
    vector x = |G| chi in 0..|G|-1, none in the group generated by the ones
    before it.

    The x are the solutions of x[a] + x[s] = x[as] (mod |G|) for every
    element a and every s in a generating set: one modular kernel.  The
    set is the declared generators less those the earlier ones generate,
    so at most log2 |G| of them: with all 63 elements of an order-64 group
    declared, the kernel would take about 0.4 GB.
    """
    n = group.order
    gens, reached = [], group.trivial_subgroup()
    for g in group.generators:
        if g not in reached:
            gens.append(g)
            reached = group.generated_subgroup(gens)
    a = np.tile(np.arange(n), len(gens))
    s = np.array(gens, dtype=np.int64).repeat(n)
    rows = np.zeros((len(a), n), dtype=np.int64)
    r = np.arange(len(a))
    # one statement per term: where a = s, the row gets 2 at a
    rows[r, a] += 1
    rows[r, s] += 1
    rows[r, group.table[a, s]] -= 1
    out = []
    seen = {(0,) * n}  # the group the kept x generate
    for v in intlin.kernel_mod(rows, [n] * len(a)):
        x = tuple(c % n for c in v)
        if x in seen:
            continue
        out.append(np.array(x, dtype=np.int64))
        seen = {tuple((c + k * d) % n for c, d in zip(y, x))
                for y in seen for k in range(n)}
    return out


def character_chern(group, x):
    """Degree-2 integral cocycle of the central extension classified by a
    character chi : group -> Q/Z (the carry cocycle of its rational lift),
    for x = |G| chi an integer vector indexed by element; a ValueError
    unless chi is a homomorphism.
    """
    n = group.order
    x = np.asarray(x, dtype=np.int64) % n
    carry, rest = np.divmod(x[:, None] + x[None, :] - x[group.table], n)
    if rest.any():
        raise ValueError("chi is not a homomorphism to Q/Z")
    # the identity is element 0: pairs of non-identity elements, in order
    return carry[1:, 1:].ravel()


class IntegralClassSpace:
    """Coordinates on H^n(G, M) over Z for mapping cocycles to classes.

    Runs Smith normal form on delta_{n-1} with the forward transform
    tracked; a cocycle's class is its vector of cokernel coordinates at the
    torsion slots (free slots must read zero, since H^n is finite).  No
    path of the package uses it: the tests build the reference for
    chow._subgroup_structure from its class tuples, and the benchmark
    tracer wraps class_of.
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
