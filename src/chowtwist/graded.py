"""Graded modules over a two-variable polynomial ring F_l[u, v] with both
variables in degree 1: presentations extracted from degreewise data, Hilbert
series, minimal free resolutions (length at most 2 by the syzygy theorem for
two variables) and Castelnuovo-Mumford regularity.

Everything is degreewise dense linear algebra on monomial bases; no Groebner
machinery.  A module is fed in as a dimension table plus the two
multiplication maps per degree.
"""

from __future__ import annotations

import json

import numpy as np

from . import fp
from .errors import HorizonError, VerificationError


def monomials(d):
    """Degree-d monomials u^a v^b as (a, b), ordered by decreasing a."""
    return [(d - j, j) for j in range(d + 1)]


class FreeBasis:
    """Degree slices of a free module with prescribed generator degrees.

    Basis of the degree-d slice: (i, a, b) with a + b = d - gen_degrees[i],
    generators first, monomials in the order of monomials().
    """

    def __init__(self, gen_degrees):
        self.gen_degrees = list(gen_degrees)

    def basis(self, d):
        out = []
        for i, gi in enumerate(self.gen_degrees):
            if d >= gi:
                for a, b in monomials(d - gi):
                    out.append((i, a, b))
        return out

    def dim(self, d):
        return sum(d - gi + 1 for gi in self.gen_degrees if d >= gi)

    def index(self, d, key):
        return self.basis(d).index(key)

    def shift(self, d, var):
        """Matrix of multiplication by u (var=0) or v (var=1), slice d to d+1."""
        src = self.basis(d)
        tgt = {k: i for i, k in enumerate(self.basis(d + 1))}
        out = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for j, (i, a, b) in enumerate(src):
            k = (i, a + 1, b) if var == 0 else (i, a, b + 1)
            out[tgt[k], j] = 1
        return out


class GradedModulePresentation:
    """Generators and homogeneous relations for a graded module, plus the
    degreewise dimension table they were extracted from.

    gen_degrees: degree of each generator.
    gen_vectors: the generator as a vector in the module's own degree slice.
    relations: list of (degree, vector over the free-module slice basis).
    """

    def __init__(self, p, dims, u_maps, v_maps, gen_degrees, gen_vectors,
                 relations, name=None):
        self.p = p
        self.dims = list(dims)
        self.horizon = len(dims) - 1
        self.u_maps = u_maps
        self.v_maps = v_maps
        self.gen_degrees = gen_degrees
        self.gen_vectors = gen_vectors
        self.relations = relations
        self.name = name
        self.free = FreeBasis(gen_degrees)
        self._eval_cache = {}

    def relation_degrees(self):
        return [d for d, _ in self.relations]

    def evaluation(self, d):
        """Matrix of the surjection (free module slice d) -> M_d.

        Column for (i, a, b) is u^a v^b applied to generator i, built
        recursively along u first.
        """
        if d in self._eval_cache:
            return self._eval_cache[d]
        cols = {}
        for i, gi in enumerate(self.gen_degrees):
            if d < gi:
                continue
            if d == gi:
                cols[(i, 0, 0)] = np.asarray(self.gen_vectors[i], dtype=np.int64)
                continue
            prev = self.evaluation(d - 1)
            pb = self.free.basis(d - 1)
            for a, b in monomials(d - gi):
                if a > 0:
                    src = prev[:, pb.index((i, a - 1, b))]
                    cols[(i, a, b)] = (self.u_maps[d - 1] @ src) % self.p
                else:
                    src = prev[:, pb.index((i, a, b - 1))]
                    cols[(i, a, b)] = (self.v_maps[d - 1] @ src) % self.p
        basis = self.free.basis(d)
        out = np.zeros((self.dims[d], len(basis)), dtype=np.int64)
        for j, key in enumerate(basis):
            out[:, j] = cols[key]
        self._eval_cache[d] = out
        return out

    def relation_matrix(self, d):
        """Independent rows spanning the degree-d slice of the submodule
        generated by the relations, inside the free module slice.  Built
        incrementally (shift the previous slice, add new relations, reduce)
        so the row count stays at the slice rank."""
        if not hasattr(self, "_rel_cache"):
            self._rel_cache = {}
        if d in self._rel_cache:
            return self._rel_cache[d]
        rows = []
        if d > 0:
            prev = self.relation_matrix(d - 1)
            if len(prev):
                su = self.free.shift(d - 1, 0)
                sv = self.free.shift(d - 1, 1)
                rows.extend((su @ w) % self.p for w in prev)
                rows.extend((sv @ w) % self.p for w in prev)
        rows.extend(np.asarray(vec, dtype=np.int64) for rd, vec in self.relations
                    if rd == d)
        out = fp.Span(self.free.dim(d), self.p, rows).basis()
        self._rel_cache[d] = out
        return out

    def check(self):
        """Dimension table consistent with the presentation in every degree:
        dim M_d = dim F_d - rank(relations in degree d), and the evaluation
        map is onto with the relations inside its kernel."""
        for d in range(self.horizon + 1):
            E = self.evaluation(d)
            if fp.rank(E.T, self.p) != self.dims[d]:
                raise ValueError("presentation not surjective in degree %d" % d)
            R = self.relation_matrix(d)
            if len(R):
                if ((E @ R.T) % self.p).any():
                    raise ValueError("relation fails to evaluate to zero in degree %d" % d)
            if self.free.dim(d) - fp.rank(R, self.p) != self.dims[d]:
                raise ValueError("dimension table inconsistent in degree %d" % d)
        return True

    def to_json(self):
        rels = []
        for d, vec in self.relations:
            entries = []
            for j, key in enumerate(self.free.basis(d)):
                if vec[j] % self.p:
                    i, a, b = key
                    entries.append({"generator": i, "u": a, "v": b,
                                    "coeff": int(vec[j] % self.p)})
            rels.append({"degree": d, "entries": entries})
        return {"base": "F%d[u,v]" % self.p,
                "generators": [{"index": i, "degree": d}
                               for i, d in enumerate(self.gen_degrees)],
                "relations": rels,
                "dims": self.dims}


def present_from_action(dims, u_maps, v_maps, p=2, name=None):
    """Minimal presentation of a graded module given per-degree dimensions
    and the two degree-raising multiplication maps.

    dims has length D+1; u_maps[d], v_maps[d] map slice d to slice d+1 for
    d < D.  Raises ValueError if the two actions do not commute.
    """
    D = len(dims) - 1
    u_maps = [np.asarray(m, dtype=np.int64) % p for m in u_maps]
    v_maps = [np.asarray(m, dtype=np.int64) % p for m in v_maps]
    for d in range(D - 1):
        if ((u_maps[d + 1] @ v_maps[d] - v_maps[d + 1] @ u_maps[d]) % p).any():
            raise ValueError("u and v actions do not commute at degree %d" % d)

    gen_degrees, gen_vectors = [], []
    for d in range(D + 1):
        # u and v images of the previous slice: columns of the two maps
        span = fp.Span(dims[d], p, np.vstack([u_maps[d - 1].T, v_maps[d - 1].T])
                       if d > 0 and dims[d - 1] else ())
        for e in np.eye(dims[d], dtype=np.int64):
            if span.add(e):
                gen_degrees.append(d)
                gen_vectors.append([int(x) for x in e])

    pres = GradedModulePresentation(p, dims, u_maps, v_maps, gen_degrees,
                                    gen_vectors, [], name=name)
    # relations: minimal generators of the kernel of the evaluation map
    pres.relations = _minimal_kernel_generators(
        p, pres.free, lambda d: pres.evaluation(d), D)
    pres.check()
    return pres


def _minimal_kernel_generators(p, free, eval_fn, D):
    """Minimal homogeneous generators of ker(evaluation) over F_p[u, v].

    New generators in degree d span ker_d modulo u*ker_{d-1} + v*ker_{d-1}.
    """
    gens = []
    prev_kernel = None
    for d in range(D + 1):
        E = eval_fn(d)
        ker = fp.nullspace(E, p)  # rows spanning ker_d
        span = fp.Span(free.dim(d), p)
        if prev_kernel is not None and len(prev_kernel):
            for var in (0, 1):
                shift = free.shift(d - 1, var)
                for w in prev_kernel:
                    span.add(shift @ w)
        cands = [np.asarray(w, dtype=np.int64) for w in ker]
        gens.extend((d, [int(x) for x in c]) for c in cands if span.add(c))
        prev_kernel = cands
    return gens


class BettiTable:
    """Generator degrees of each free module in a minimal resolution."""

    def __init__(self, degrees_by_index, horizon):
        # degrees_by_index: dict p -> sorted list of generator degrees
        self.levels = {k: sorted(v) for k, v in degrees_by_index.items() if v}
        self.horizon = horizon

    def degrees(self, idx):
        return list(self.levels.get(idx, []))

    @property
    def length(self):
        return max(self.levels) if self.levels else 0

    def shape(self):
        return tuple(len(self.levels.get(k, [])) for k in range(self.length + 1))

    def to_json(self):
        return {"levels": [{"index": k, "degrees": self.levels[k]}
                           for k in sorted(self.levels)],
                "horizon": self.horizon}

    def to_text(self):
        lines = ["index  count  degrees"]
        for k in sorted(self.levels):
            degs = self.levels[k]
            lines.append("%-5d  %-5d  %s" % (k, len(degs),
                                             " ".join(str(d) for d in degs)))
        return "\n".join(lines)

    def __repr__(self):
        return "BettiTable(%s)" % {k: self.levels[k] for k in sorted(self.levels)}


def minimal_free_resolution(P):
    """Minimal free resolution 0 -> F_2 -> F_1 -> F_0 -> M -> 0 over
    F_p[u, v], returned as a BettiTable.

    F_0 and F_1 come from the presentation; F_2 is the minimal generator set
    of the syzygies among the relations.  The third syzygy module must
    vanish inside the horizon, and nothing may appear in the last three
    degrees (otherwise the horizon was too small and HorizonError reports
    the degree reached).
    """
    p, D = P.p, P.horizon
    free1 = FreeBasis(P.relation_degrees())
    rel_vecs = [np.asarray(v, dtype=np.int64) for _, v in P.relations]

    eval1_cache = {}

    def eval1(d):
        # free module on the relations -> slice d of F_0's free module
        if d in eval1_cache:
            return eval1_cache[d]
        basis = free1.basis(d)
        out = np.zeros((P.free.dim(d), len(basis)), dtype=np.int64)
        if d > 0 and any(rd < d for rd in free1.gen_degrees):
            prev = eval1(d - 1)
            pb = free1.basis(d - 1)
            su = P.free.shift(d - 1, 0)
            sv = P.free.shift(d - 1, 1)
        for j, (i, a, b) in enumerate(basis):
            if a == 0 and b == 0:
                out[:, j] = rel_vecs[i]
            elif a > 0:
                out[:, j] = su @ prev[:, pb.index((i, a - 1, b))]
            else:
                out[:, j] = sv @ prev[:, pb.index((i, a, b - 1))]
        out %= p
        eval1_cache[d] = out
        return out

    syz = _minimal_kernel_generators(p, free1, eval1, D)

    # minimality: no differential entry is a unit (no constant coefficients)
    for d, vec in P.relations:
        for j, (i, a, b) in enumerate(P.free.basis(d)):
            if a == 0 and b == 0 and vec[j] % p:
                raise ValueError("presentation not minimal: unit entry")
    for d, vec in syz:
        for j, (i, a, b) in enumerate(free1.basis(d)):
            if a == 0 and b == 0 and vec[j] % p:
                raise ValueError("resolution not minimal: unit entry")

    # third syzygies must be zero: the F_2 evaluation map is injective
    free2 = FreeBasis([d for d, _ in syz])
    syz_vecs = [np.asarray(v, dtype=np.int64) for _, v in syz]
    eval2_cache = {}

    def eval2(d):
        if d in eval2_cache:
            return eval2_cache[d]
        basis = free2.basis(d)
        out = np.zeros((free1.dim(d), len(basis)), dtype=np.int64)
        if d > 0 and any(sd < d for sd in free2.gen_degrees):
            prev = eval2(d - 1)
            pb = free2.basis(d - 1)
            su = free1.shift(d - 1, 0)
            sv = free1.shift(d - 1, 1)
        for j, (i, a, b) in enumerate(basis):
            if a == 0 and b == 0:
                out[:, j] = syz_vecs[i]
            elif a > 0:
                out[:, j] = su @ prev[:, pb.index((i, a - 1, b))]
            else:
                out[:, j] = sv @ prev[:, pb.index((i, a, b - 1))]
        out %= p
        eval2_cache[d] = out
        return out

    for d in range(D + 1):
        E2 = eval2(d)
        if E2.shape[1] and fp.rank(E2.T, p) != E2.shape[1]:
            raise HorizonError("third syzygies persist at degree %d" % d, degree=d)

    # stabilization: the last three degrees must contribute nothing anywhere
    tail = set(range(D - 2, D + 1))
    late = [d for d in P.gen_degrees if d in tail]
    late += [d for d in P.relation_degrees() if d in tail]
    late += [d for d, _ in syz if d in tail]
    if late:
        raise HorizonError(
            "generators still appearing at degree %d; horizon %d too small"
            % (max(late), D), degree=max(late))

    return BettiTable({0: list(P.gen_degrees),
                       1: P.relation_degrees(),
                       2: [d for d, _ in syz]}, D)


def hilbert_series(P, D=None):
    """Dimensions of the module in degrees 0..D, recomputed from the
    presentation by degreewise linear algebra and checked against the
    stored table."""
    if D is None:
        D = P.horizon
    if D > P.horizon:
        raise HorizonError("requested degree beyond the horizon", degree=P.horizon)
    out = []
    for d in range(D + 1):
        R = P.relation_matrix(d)
        dim = P.free.dim(d) - fp.rank(R, P.p)
        if dim != P.dims[d]:
            raise VerificationError("presentation disagrees with the dimension table")
        out.append(dim)
    return out


def cm_regularity(B):
    """Castelnuovo-Mumford regularity from a complete Betti table:
    max over levels of (largest generator degree) - level."""
    if not B.levels:
        return 0
    return max(max(degs) - k for k, degs in B.levels.items())


def check_euler_identity(B, hilbert):
    """Alternating-sum identity: sum_p (-1)^p sum_deg t^deg equals
    H_M(t) * (1-t)^2, exactly up to the horizon."""
    D = len(hilbert) - 1
    lhs = [0] * (D + 1)
    for k, degs in B.levels.items():
        s = 1 if k % 2 == 0 else -1
        for d in degs:
            if d <= D:
                lhs[d] += s
    rhs = [0] * (D + 1)
    for d, h in enumerate(hilbert):
        for shift, c in ((0, 1), (1, -2), (2, 1)):
            if d + shift <= D:
                rhs[d + shift] += c * h
    # the top two coefficients of rhs are truncation-polluted
    return lhs[:max(0, D - 1)] == rhs[:max(0, D - 1)]


def hilbert_to_text(hilbert):
    lines = ["degree  dim"]
    for d, h in enumerate(hilbert):
        lines.append("%-6d  %d" % (d, h))
    return "\n".join(lines)


def hilbert_to_json(hilbert):
    return {"dims": list(hilbert)}


# ---------------------------------------------------------------------------
# feeding the Klein Chow rings in


def klein_chow_presentation(module, D):
    """Presentation of CH^*(Klein, M) as a module over F_2[u, v], from the
    image computation's bases and shift actions."""
    from .chow import KleinChowModule

    kcm = module if isinstance(module, KleinChowModule) else KleinChowModule(module)
    dims = [kcm.dim(i) for i in range(D + 1)]
    u_maps = [kcm.multiplication_matrix(i, 0) for i in range(D)]
    v_maps = [kcm.multiplication_matrix(i, 1) for i in range(D)]
    return present_from_action(dims, u_maps, v_maps, p=2,
                               name="CH(Klein4,%s)" % kcm.module.name)
