"""Twisted Chow groups of classifying spaces for the supported families
(cyclic, Klein four, generalized quaternion), the Chow rings of their
classifying spaces with restriction/transfer structure, and the
twisted-motivic pipeline for the Klein group.

Conventions model a base field with enough roots of unity (k = C): cycle
maps into group cohomology are isomorphisms or injections per family, so
every value here is realized inside an explicitly computed cohomology
group.
"""

from __future__ import annotations

import math

import numpy as np

from . import cohomology as coh
from . import f2, fp, intlin, kleinres
from .errors import UnsupportedFamilyError, VerificationError
from .gmodules import FiniteAbelianGroup, restrict
from .groups import double_coset_index, make_klein4
from .lattices import coflasque_resolution, counterexample_lattices


class TwistedChowResult:
    """Value of one twisted Chow (or twisted motivic) group."""

    def __init__(self, degree, value, method, cross_check=None,
                 group_name=None, module_name=None):
        self.degree = degree
        self.value = value        # FiniteAbelianGroup or int dimension
        self.method = method
        self.cross_check = cross_check
        self.group_name = group_name
        self.module_name = module_name
        if cross_check is not None and not self._values_agree(value, cross_check):
            raise VerificationError("method value %r disagrees with oracle %r"
                                    % (value, cross_check))

    @staticmethod
    def _values_agree(a, b):
        if isinstance(a, FiniteAbelianGroup) and isinstance(b, FiniteAbelianGroup):
            return a == b
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return False

    @property
    def dim(self):
        if isinstance(self.value, int):
            return self.value
        raise TypeError("integral result has no F_p dimension")

    def to_json(self):
        if isinstance(self.value, FiniteAbelianGroup):
            val = {"free_rank": self.value.free_rank,
                   "torsion": self.value.invariant_factors}
        else:
            val = {"dim": self.value}
        out = {"group": self.group_name, "module": self.module_name,
               "degree": self.degree, "value": val, "method": self.method}
        if self.cross_check is not None:
            if isinstance(self.cross_check, FiniteAbelianGroup):
                out["oracle"] = {"free_rank": self.cross_check.free_rank,
                                 "torsion": self.cross_check.invariant_factors}
            else:
                out["oracle"] = {"dim": self.cross_check}
        return out

    def __repr__(self):
        return "TwistedChow(deg=%d, %r, %s)" % (self.degree, self.value, self.method)


# ---------------------------------------------------------------------------
# cyclic groups


def twisted_chow_cyclic(group, module, i, oracle=False):
    """CH^i of the classifying space of a cyclic group with coefficients in
    a lattice: the fixed points in degree 0 and the trace quotient above."""
    if group.family() != "cyclic":
        raise UnsupportedFamilyError("closed form needs a cyclic group")
    if i == 0:
        if module.p:
            value = module.fixed_dim()
        else:
            value = FiniteAbelianGroup([], module.fixed_dim())
        return TwistedChowResult(0, value, "closed_form",
                                 group_name=group.name, module_name=module.name)
    st = module.trace_quotient()
    value = len(st.invariant_factors) if module.p else st
    check = None
    if oracle:
        res = coh.cyclic_cohomology(group, module, 2 * i)
        check = res.dim if module.p else res.structure
    return TwistedChowResult(i, value, "closed_form", cross_check=check,
                             group_name=group.name, module_name=module.name)


# ---------------------------------------------------------------------------
# Klein four group: image of fixed points times the Chow ring of BG


class KleinChowModule:
    """CH^*(BG, M) for the Klein group as a graded F_2[u, v]-module.

    Degree-i component: span of the classes (x^{2a} y^{2b}) . m0 inside
    H^{2i}(G, M), a+b = i, m0 running over a fixed-point basis; cocycles
    live on the small resolution from kleinres.  Bases are chosen greedily
    in (a, m0-index) order and the u, v actions are degree shifts expressed
    in those bases.
    """

    def __init__(self, module):
        if module.p != 2 or module.group.family() != "klein":
            raise ValueError("Klein Chow groups need an F_2 module over Klein4")
        self.module = module
        self.fixed = module.fixed_points()
        self._cache = {}

    def _degree_data(self, i):
        """(span of coboundaries, list of (a, b, m0_idx), basis cocycles)."""
        if i in self._cache:
            return self._cache[i]
        M = self.module
        n = 2 * i
        nbits = (n + 1) * M.rank
        cob_span = f2.F2Span(nbits)
        cob = kleinres.coboundary_rows(M, n)
        if len(cob):
            cob_span.add_matrix(f2.pack_rows(cob))
        span = cob_span.copy()
        labels, basis = [], []
        for a in range(i + 1):
            b = i - a
            for k, m0 in enumerate(self.fixed):
                z = kleinres.monomial_cocycle(M, m0, 2 * a, 2 * b)
                packed = f2.pack_rows(z)[0]
                if span.add(packed):
                    labels.append((a, b, k))
                    basis.append(packed)
        out = (cob_span, labels, basis)
        self._cache[i] = out
        return out

    def dim(self, i):
        return len(self._degree_data(i)[1])

    def multiplication_matrix(self, i, var):
        """Matrix of multiplication by u (var=0) or v (var=1) from the
        degree-i basis to the degree-(i+1) basis, over F_2."""
        M = self.module
        n = 2 * i
        cobs, labels, basis = self._degree_data(i)
        cobs1, labels1, basis1 = self._degree_data(i + 1)
        out = np.zeros((len(labels1), len(labels)), dtype=np.int64)
        for j, (a, b, k) in enumerate(labels):
            na, nb = (a + 1, b) if var == 0 else (a, b + 1)
            z = kleinres.monomial_cocycle(M, self.fixed[k], 2 * na, 2 * nb)
            coeffs = f2.express_mod_span(cobs1, basis1, f2.pack_rows(z)[0])
            if coeffs is None:
                raise VerificationError("shifted class escaped the image span")
            out[:, j] = coeffs
        return out


def twisted_chow_klein(module, i):
    """CH^i(BG, M) for the Klein four group, M an F_2 module."""
    kcm = module if isinstance(module, KleinChowModule) else KleinChowModule(module)
    return TwistedChowResult(i, kcm.dim(i), "image_computation",
                             group_name=kcm.module.group.name,
                             module_name=kcm.module.name)


# ---------------------------------------------------------------------------
# generalized quaternion groups


def _transfer_images(group, module, *subgroup_lists):
    """The subgroups of H^2(G, M) generated by the transfers
    cor_H(c_1(chi) . m0), chi running over generators of the characters of
    H and m0 over a basis of M^H: for H in the first list, then in the
    first two lists together, and so on.  c_1, the cup product with m0 and
    cor are additive, so generators of the characters give the subgroup
    that all characters give.

    Over Z the structure comes from invariant factors of delta_1 next to
    the raw cocycles (_subgroup_structure), with no transform; the rank of
    delta_1 comes from exactness, and only the cocycles of all the lists
    together are checked, as they hold those of every shorter prefix.
    Over F_p the image is (Z/p)^d, d its dimension modulo the coboundaries.
    """
    p = module.p
    bc = coh.BarComplex(group, module)
    d1 = bc.delta_matrix(1)
    if p:
        span = fp.Span(d1.shape[0], p, d1.T)
        coboundaries = span.rank
    cocycles = []
    ends = []  # the number of cocycles once each list is in
    images = []
    for subgroups in subgroup_lists:
        for sub in subgroups:
            if sub.order == 1:
                continue
            MH, H, _ = restrict(module, sub)
            fixed = MH.fixed_points()
            for x in coh.character_generators(H):
                chern = coh.character_chern(H, x)
                for m0 in fixed:
                    z = coh.corestriction_cochain(group, module, sub,
                                                  np.kron(chern, m0), 2)
                    if p:
                        span.add(z)
                    else:
                        cocycles.append(z)
        if p:
            images.append(FiniteAbelianGroup([p] * (span.rank - coboundaries), 0))
        else:
            ends.append(len(cocycles))
    if p:
        return images
    h2 = intlin.invariant_factors(d1, group.order, bc.rank(1)) if cocycles else None
    last = _subgroup_structure(d1, h2, cocycles, group.order)
    return [_subgroup_structure(d1, h2, cocycles[:end], group.order, check=False)
            for end in ends[:-1]] + [last]


def _subgroup_structure(d1, h2, cocycles, exponent, check=True):
    """Structure of the subgroup C of H^2 = tors coker d1 generated by the
    classes of the given cocycles, from invariant factors alone; exponent
    kills H^2, and h2 is invariant_factors(d1, exponent).

    C^2 / ker delta_2 is free, so with Z the cocycles as columns the torsion
    of coker [d1 | m Z] is H^2 / mC.  With m = p^j, log_p |p^j C|_p is
    s_j = log_p |H^2|_p - log_p |H^2 / p^j C|_p, and C has s_(j-1) - s_j
    cyclic p-factors of order at least p^j.  One call serves every prime,
    with m the product of their p^j.  A prime needs no further call once
    s_j is 0 by definition (p^j kills H^2_p), or once p^j H^2_p, and so
    p^j C_p, has at most one cyclic factor, for then the order p^(s_j) of
    p^j C_p fixes the rest.  With check, the first call, at m = 1, finds
    the rank of [d1 | Z] by elimination and so checks that every column of
    Z is a cocycle; every other call takes it to be that of d1, which holds
    once the columns are cocycles.
    """
    if not cocycles:
        return FiniteAbelianGroup([], 0)
    h2_factors, rank = h2
    Z = np.column_stack(cocycles)
    # p -> log_p of the exponent of H^2_p
    kills = dict(intlin.prime_powers(h2_factors[-1] if h2_factors else 1))
    vals = {p: [_valuation(d, p) for d in h2_factors] for p in kills}
    sizes = {p: [] for p in kills}  # p -> [s_0, s_1, ...], ending in 0
    open_primes = list(kills)
    j = 0
    while True:
        m = math.prod(p ** j for p in open_primes)
        factors, r = intlin.invariant_factors(np.hstack([d1, m * Z]), exponent,
                                              None if check and not j else rank)
        if r != rank:
            raise VerificationError("a transfer is not a cocycle: rank [d1 | Z]"
                                    " is %d, rank d1 is %d" % (r, rank))
        j += 1
        for p in list(open_primes):
            s = sizes[p]
            s.append(sum(vals[p]) - sum(_valuation(d, p) for d in factors))
            if j >= kills[p]:
                s.append(0)
            elif sum(v >= j for v in vals[p]) <= 1:
                # p^(j-1) C_p has no more cyclic factors than p^(j-1) H^2_p
                s.extend(range(s[-1] - 1, -1, -1))
            else:
                continue
            open_primes.remove(p)
        if not open_primes:
            break
    # s_(a-1) - s_a cyclic factors of order at least p^a; each p-part is
    # listed largest first and spread over the chain from its top
    parts = []
    for p, s in sizes.items():
        at_least = [s[a - 1] - s[a] for a in range(1, len(s))] + [0]
        parts.append([p ** a for a in range(len(s) - 1, 0, -1)
                      for _ in range(at_least[a - 1] - at_least[a])])
    out = [1] * max(map(len, parts), default=0)
    for part in parts:
        for i, q in enumerate(part):
            out[-1 - i] *= q
    return FiniteAbelianGroup(out, 0)


def _valuation(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def twisted_chow_quaternion(group, module, i, oracle=False):
    """CH^i(BG, M) for a generalized quaternion group and a lattice M.

    Even positive degrees are the trace quotient; odd degrees are the
    subgroup of H^2(G, M) (a 2-group, as G is) generated by transfers of
    first Chern classes from the cyclic subgroups <x>, <y> and <xy> (all
    three of index 2 in Q8; above Q8 only <x> is, and <y>, <xy> have order
    4); degree 0 is the fixed lattice.  Odd answers are degree-independent
    by Euler periodicity.
    """
    if module.p is not None:
        raise UnsupportedFamilyError("quaternion closed form needs a lattice")
    name = group.name
    if group.family() != "quaternion":
        raise UnsupportedFamilyError("group is not a generalized quaternion group")
    if i == 0:
        return TwistedChowResult(0, FiniteAbelianGroup([], module.fixed_dim()),
                                 "closed_form", group_name=name,
                                 module_name=module.name)
    if i % 2 == 0:
        check = None
        if oracle:
            check = coh.tate(group, module, 0).structure
        return TwistedChowResult(i, module.trace_quotient(), "closed_form",
                                 cross_check=check, group_name=name,
                                 module_name=module.name)
    st, = _transfer_images(group, module, _xy_subgroups(group))
    return TwistedChowResult(i, st, "image_computation", group_name=name,
                             module_name=module.name)


def _xy_subgroups(group):
    """One maximal cyclic subgroup per conjugacy class, each first reached
    as the closure of an element in index order: <x>, <y> and <xy> of a
    generalized quaternion group, in that order, in any labelling."""
    cyclic = list(dict.fromkeys(group.generated_subgroup([a])
                                for a in range(group.order)))
    out = []
    for sub in cyclic:
        if (not any(set(sub.elements) < set(c.elements) for c in cyclic)
                and not any(sub.conjugate(g) in out for g in range(group.order))):
            out.append(sub)
    return out


# ---------------------------------------------------------------------------
# Mackey structure on the Chow rings of Klein subgroups


class MackeyChowKlein:
    """Chow rings of the five Klein subgroups with restriction and transfer.

    CH^* of the full group is Z[u, v]/(2u, 2v) with monomial basis u^a v^b
    in degree a+b; of each order-2 subgroup Z[c]/(2c); of the trivial
    subgroup just Z in degree 0.  In positive degree all transfers vanish
    and restriction is determined by the character table: u restricts to c
    on the first subgroup, to 0 on the second, to c on the diagonal one.
    """

    def __init__(self):
        self.group = make_klein4()
        # res^G_{<g>}(u), res^G_{<g>}(v) etc., as (coefficient of c) pairs
        self.res_table = {1: (1, 0), 2: (0, 1), 3: (1, 1)}

    def chow_dim(self, subgroup, i):
        """F_2 dimension of CH^i(BH) for i > 0 (degree 0 is Z for every H)."""
        if i == 0:
            return 1
        if subgroup.order == 1:
            return 0
        if subgroup.order == 2:
            return 1
        return i + 1

    def restriction_matrix(self, K, H, i):
        """res^K_H on degree-i Chow groups mod 2, H <= K, i > 0.

        Bases: monomials u^a v^b (a+b = i) for the full group, c^i for an
        order-2 subgroup.
        """
        dK, dH = self.chow_dim(K, i), self.chow_dim(H, i)
        out = np.zeros((dH, dK), dtype=np.int64)
        if dH == 0 or dK == 0:
            return out
        if K.order == H.order:
            np.fill_diagonal(out, 1)
            return out
        if K.order == 4 and H.order == 2:
            gen = next(a for a in H.elements if a != self.group.identity)
            ru, rv = self.res_table[gen]
            for col in range(dK):  # column col is the monomial u^col v^{i-col}
                out[0, col] = ((ru ** col) * (rv ** (i - col))) % 2
            return out
        return out  # restriction to the trivial subgroup is zero in degree > 0

    def evaluate_block(self, K, H, coeff, i):
        """Induced map CH^i(BK) -> CH^i(BH) of coeff times the double-coset
        basis map; nonzero in positive degree only when H <= K, where it is
        restriction (the transfer factor is the identity)."""
        dK, dH = self.chow_dim(K, i), self.chow_dim(H, i)
        if coeff % 2 == 0 or dK == 0 or dH == 0:
            return np.zeros((dH, dK), dtype=np.int64)
        Hset, Kset = set(H.elements), set(K.elements)
        if not Hset <= Kset:
            return np.zeros((dH, dK), dtype=np.int64)
        return (coeff * self.restriction_matrix(K, H, i)) % 2


def _double_coset_coefficients(G, K, H, block):
    """Coefficients of the double-coset basis in a G-map Z[G/K] -> Z[G/H].

    block is the matrix in coset bases (rows: cosets of H, cols: cosets of
    K); the coefficient of the class of gH is constant on K-orbits, so it
    is read off the identity-coset column.  Returns total coefficient sums
    per double coset KgH, in the order of their least elements (for the
    Klein group all conjugations are trivial, so only the sum matters
    downstream).
    """
    _, coset_of = H.cosets()
    reps, double_of = double_coset_index(G, K, H)
    coeff = block[coset_of, 0]  # of the coset of each element
    if (coeff != coeff[reps][double_of]).any():
        raise VerificationError("map is not equivariant on a K-orbit")
    return coeff[reps].tolist()


def twisted_motivic_klein(module, i, resolutions=None):
    """Degree-(2i, i) twisted motivic cohomology of the Klein classifying
    space, as the cokernel of a Chow-group map between covering spaces.

    Two coflasque resolutions 0 -> A -> B -> M -> 0 and A' -> P -> A give
    a composite P -> B of permutation modules; its Mackey decomposition is
    evaluated on CH^i of the pieces and the cokernel dimension returned.
    Both resolutions are built greedily (coflasque_resolution with prune)
    and checked, so a defect raises VerificationError.  resolutions can
    supply ((B_pieces, psi)) data directly: a list of (subgroup, offset)
    target pieces, same for sources, and the integer matrix of P -> B.
    """
    G = module.group
    mk = MackeyChowKlein()
    if resolutions is None:
        res1 = coflasque_resolution(module, prune=True)
        res1.check()
        A = res1.Q
        res2 = coflasque_resolution(A, prune=True)
        res2.check()
        # composite P -> A -> B; q_basis holds A's basis in B coordinates
        psi = intlin.product(np.array(res1.q_basis).T, res2.surjection)
        target_pieces = [s for s, _ in res1.pieces]
        source_pieces = [s for s, _ in res2.pieces]
    else:
        target_pieces, source_pieces, psi = resolutions
    tgt_dims = [mk.chow_dim(H, i) for H in target_pieces]
    src_dims = [mk.chow_dim(K, i) for K in source_pieces]
    total_t, total_s = sum(tgt_dims), sum(src_dims)
    mat = np.zeros((total_t, total_s), dtype=np.int64)
    t_off = np.cumsum([0] + tgt_dims)
    s_off = np.cumsum([0] + src_dims)
    # offsets of the permutation pieces inside the module matrices
    t_block = np.cumsum([0] + [H.index for H in target_pieces])
    s_block = np.cumsum([0] + [K.index for K in source_pieces])
    for si, K in enumerate(source_pieces):
        for ti, H in enumerate(target_pieces):
            block = psi[t_block[ti]:t_block[ti + 1], s_block[si]:s_block[si + 1]]
            if not block.any():
                continue
            coeffs = _double_coset_coefficients(G, K, H, block)
            total = sum(coeffs)
            piece = mk.evaluate_block(K, H, total, i)
            mat[t_off[ti]:t_off[ti + 1], s_off[si]:s_off[si + 1]] += piece
    mat %= 2
    coker = total_t - fp.rank(mat, 2) if total_t else 0
    chow = twisted_chow_klein(module, i).value if module.p == 2 else None
    if chow is not None and i > 0:
        if coker < chow:
            raise VerificationError("motivic value smaller than the Chow image")
    return TwistedChowResult(i, coker, "motivic_pipeline", cross_check=None,
                             group_name=G.name, module_name=module.name)


def twisted_motivic_klein_explicit(m, i):
    """Same pipeline but on the explicit counterexample resolutions."""
    data = counterexample_lattices(m)
    G = data.module.group
    psi = intlin.product(np.array(data.a_basis).T, data.p_to_a)
    target_pieces = ([G.trivial_subgroup()] * m) + ([G.full_subgroup()] * (m + 1))
    source_pieces = [H for H, _ in data.p_pieces]
    return twisted_motivic_klein(data.module, i,
                                 resolutions=(target_pieces, source_pieces, psi))


# ---------------------------------------------------------------------------
# generation-by-transfers report


def transfer_generation_check(group, module, i):
    """Checks that the twisted Chow value is generated by transfers of Chern
    classes from (centralizer) subgroups, per family.

    Returns a dict report with a boolean 'generated'.
    """
    name, family = group.name, group.family()
    if family == "cyclic":
        if i != 1:
            raise UnsupportedFamilyError("cyclic transfer check implemented at degree 1")
        sub_all, = _transfer_images(group, module, group.subgroups())
        target = module.trace_quotient()
        return {"group": name, "module": module.name, "degree": i,
                "generated": sub_all == target, "span": repr(sub_all),
                "target": repr(target)}
    if family == "klein":
        # the bar model checks that the proper-subgroup transfers add nothing
        # in degree 1 to the transfers from G itself
        if i != 1:
            raise UnsupportedFamilyError("Klein transfer check implemented at degree 1")
        top = group.full_subgroup()
        own, every = _transfer_images(group, module, [top],
                                      [s for s in group.subgroups() if s != top])
        return {"group": name, "module": module.name, "degree": i,
                "generated": own == every, "dim": KleinChowModule(module).dim(i)}
    if family == "quaternion":
        if i % 2 == 0:
            raise UnsupportedFamilyError(
                "quaternion transfer check holds in odd degrees")
        three = _xy_subgroups(group)
        # span3 lies inside span_all, so equal orders mean equal subgroups
        span3, span_all = (im.order for im in _transfer_images(
            group, module, three, [s for s in group.subgroups() if s not in three]))
        return {"group": name, "module": module.name, "degree": i,
                "generated": span3 == span_all,
                "span3": span3, "span_all": span_all}
    raise UnsupportedFamilyError("no transfer model for %s" % name)
