"""Twisted Chow groups of classifying spaces for the supported families
(cyclic, Klein four, generalized quaternion), the Chow rings of their
classifying spaces with restriction/transfer structure, and the
twisted-motivic pipeline for the Klein group.

Conventions model a base field with enough roots of unity (k = C): cycle
maps into group cohomology are isomorphisms or injections per family, so
every value here is realized inside an explicitly computed cohomology
group.  For the Klein group and an F_2 module M, CH^*(BG, M) is the image of
M^G (x) F_2[u, v] in H^{2*}(G, M); KleinChowModule is that evaluation map,
and graded presents the ring as its kernel.
"""

from __future__ import annotations

import math

import numpy as np

from . import cohomology as coh
from . import f2, fp, intlin, kleinres
from .errors import UnsupportedFamilyError, VerificationError
from .gmodules import FiniteAbelianGroup, restrict
from .graded import FreeBasis
from .groups import double_coset_index
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
    """CH^*(BG, M) for the Klein group, as the evaluation map that presents
    it as a graded F_2[u, v]-module.

    The ring is generated in degree 0 by a basis m0 of M^G: u^a v^b . m0
    goes to the class of the cocycle (x^{2a} y^{2b}) . m0 in H^{2i}(G, M),
    a + b = i, on the small resolution from kleinres.  So the map leaves
    the free module `source` on the fixed basis, every generator in degree
    0, and calling it with i gives its memoised degree-i slice: column
    (k, a, b) is that cocycle for the k-th fixed vector, reduced modulo the
    degree's coboundaries.  CH^i is the slice's image.
    """

    def __init__(self, module):
        if module.p != 2 or module.group.family() != "klein":
            raise ValueError("Klein Chow groups need an F_2 module over Klein4")
        self.module = module
        self.fixed = module.fixed_points()
        self.source = FreeBasis([0] * len(self.fixed))
        self.p = 2
        self._slices = {}

    def __call__(self, i):
        if i in self._slices:
            return self._slices[i]
        M = self.module
        cob = f2.F2Span((2 * i + 1) * M.rank)
        rows = kleinres.coboundary_rows(M, 2 * i)
        if len(rows):
            cob.add_matrix(f2.pack_rows(rows))
        cocycles = [kleinres.monomial_cocycle(M, self.fixed[k], 2 * a, 2 * b)
                    for k, a, b in self.source.basis(i)]
        Z = np.reshape(cocycles, (len(cocycles), cob.n_bits))
        self._slices[i] = f2.unpack_rows(cob.residual(f2.pack_rows(Z)), cob.n_bits).T
        return self._slices[i]

    def dim(self, i):
        return fp.rank(self(i).T, 2)  # the slice has fewer columns than rows


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
# Mackey structure on the Chow rings of Klein subgroups, mod 2: the map of
# permutation modules in the motivic pipeline is evaluated on CH^i of its
# pieces block by block


# the restrictions of u and v to <g>, as multiples of c, keyed by the
# non-identity element g
_KLEIN_RES = {1: (1, 0), 2: (0, 1), 3: (1, 1)}


def _klein_chow_dim(H, i):
    """F_2 dimension of CH^i(BH)/2 for a subgroup H of the Klein group.

    CH^* of the full group is Z[u, v]/(2u, 2v) with monomial basis u^a v^(i-a),
    a = 0..i; of an order-2 subgroup Z[c]/(2c) with basis c^i; of the
    trivial subgroup Z in degree 0.
    """
    if i == 0:
        return 1
    return {1: 0, 2: 1, 4: i + 1}[H.order]


def _klein_block(K, H, i):
    """The mod-2 map CH^i(BK) -> CH^i(BH) that one double-coset basis map
    Z[G/K] -> Z[G/H] induces.

    When H is not inside K the map factors through a transfer of even index,
    so it is zero in every degree; when H = K it is the identity.  Otherwise
    H is a proper subgroup of order at most 2, the map is restriction, and a
    monomial restricts to the product of the restrictions of its variables:
    u and v to multiples of c by _KLEIN_RES, and u, v and c all to 0 on the
    trivial subgroup (so degree 0, with 0**0 = 1, gives [[1]]).
    """
    dK, dH = _klein_chow_dim(K, i), _klein_chow_dim(H, i)
    if not set(H.elements) <= set(K.elements):
        return np.zeros((dH, dK), dtype=np.int64)
    if H == K:
        return np.eye(dK, dtype=np.int64)
    ru = rv = 0
    if H.order == 2:
        ru, rv = _KLEIN_RES[next(g for g in H.elements if g != H.parent.identity)]
    row = [ru ** a * rv ** (i - a) for a in range(i + 1)] if K.order == 4 else [0 ** i]
    return np.array([row] * dH, dtype=np.int64).reshape(dH, dK)


def _double_coset_coefficients(G, K, H, block):
    """Sum of the coefficients of the double-coset basis in a G-map
    Z[G/K] -> Z[G/H].

    block is the matrix in coset bases (rows: cosets of H, cols: cosets of
    K); the coefficient of the class of gH is constant on K-orbits, so it
    is read off the identity-coset column, one per double coset KgH.  For
    the Klein group all conjugations are trivial, so only the sum matters.
    """
    _, coset_of = H.cosets()
    reps, double_of = double_coset_index(G, K, H)
    coeff = block[coset_of, 0]  # of the coset of each element
    if (coeff != coeff[reps][double_of]).any():
        raise VerificationError("map is not equivariant on a K-orbit")
    return int(coeff[reps].sum())


def motivic_resolutions(module):
    """The data twisted_motivic_klein evaluates: two coflasque resolutions
    0 -> A -> B -> M -> 0 and A' -> P -> A, both built greedily
    (coflasque_resolution with prune) and checked, so a defect raises
    VerificationError, as (target pieces of B, source pieces of P, the
    integer matrix of the composite P -> A -> B).  They do not depend on
    the degree."""
    res1 = coflasque_resolution(module, prune=True)
    res1.check()
    res2 = coflasque_resolution(res1.Q, prune=True)
    res2.check()
    # q_basis holds A's basis in B coordinates
    psi = intlin.product(np.array(res1.q_basis).T, res2.surjection)
    return [s for s, _ in res1.pieces], [s for s, _ in res2.pieces], psi


def twisted_motivic_klein(module, i, resolutions=None, kcm=None):
    """Degree-(2i, i) twisted motivic cohomology of the Klein classifying
    space, as the cokernel of a Chow-group map between covering spaces.

    The composite P -> B of permutation modules from motivic_resolutions
    has a Mackey decomposition, which is evaluated on CH^i of the pieces,
    and the cokernel dimension returned.  resolutions can supply that data
    directly, (target pieces, source pieces, psi): lists of subgroups and
    the integer matrix of P -> B; it is built from module when absent.  An
    F_2 module's value is checked to contain its Chow image, read off kcm,
    the module's KleinChowModule, when given.
    """
    G = module.group
    target_pieces, source_pieces, psi = resolutions or motivic_resolutions(module)
    tgt_dims = [_klein_chow_dim(H, i) for H in target_pieces]
    src_dims = [_klein_chow_dim(K, i) for K in source_pieces]
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
            if block.any() and _double_coset_coefficients(G, K, H, block) % 2:
                mat[t_off[ti]:t_off[ti + 1],
                    s_off[si]:s_off[si + 1]] += _klein_block(K, H, i)
    mat %= 2
    coker = total_t - fp.rank(mat, 2) if total_t else 0
    if module.p == 2 and coker < twisted_chow_klein(kcm or module, i).value:
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
