"""Graded modules over a two-variable polynomial ring F_l[u, v] with both
variables in degree 1: presentations extracted from degreewise data, Hilbert
series, minimal free resolutions (length at most 2 by the syzygy theorem for
two variables) and Castelnuovo-Mumford regularity.

Everything is degreewise dense linear algebra on monomial bases; no Groebner
machinery.  A module is fed in as a dimension table plus its evaluation
map, onto the module from a free module (present); present_from_action
builds that map from the two multiplication maps per degree.  Every map out
of a free module (the evaluation onto the module, the relations into the
generators' free module, the syzygies into the relations' one) is taken a
degree slice at a time; kernels, ranks and the minimality checks are read
off its slices.
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

    def shift(self, d, var):
        """Matrix of multiplication by u (var=0) or v (var=1), slice d to d+1."""
        src = self.basis(d)
        tgt = {k: i for i, k in enumerate(self.basis(d + 1))}
        out = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for j, (i, a, b) in enumerate(src):
            k = (i, a + 1, b) if var == 0 else (i, a, b + 1)
            out[tgt[k], j] = 1
        return out


class FreeMap:
    """The F_p[u, v]-linear map out of the free module `source` that sends
    generator i to images[i], one degree slice at a time.

    target_dim(d) is the dimension of the target's slice d and
    target_shift(d, var) the matrix of multiplication by u (var=0) or v
    (var=1) from slice d to d+1.  Calling the map with d gives the memoised
    slice-d matrix, target_dim(d) x source.dim(d); its column (i, a, b) is
    u^a v^b applied to images[i], built recursively along u first.
    """

    def __init__(self, source, images, p, target_dim, target_shift):
        self.source = source
        self.images = images
        self.p = p
        self.target_dim = target_dim
        self.target_shift = target_shift
        self._slices = {}

    @classmethod
    def into_free(cls, target, gens, p):
        """The map from the free module on gens = [(degree, vector over
        target's slice basis)] into the free module `target`."""
        return cls(FreeBasis([d for d, _ in gens]), [v for _, v in gens], p,
                   target.dim, target.shift)

    def __call__(self, d):
        if d in self._slices:
            return self._slices[d]
        basis = self.source.basis(d)
        out = np.zeros((self.target_dim(d), len(basis)), dtype=np.int64)
        if any(gi < d for gi in self.source.gen_degrees):
            prev = self(d - 1)
            pos = {k: j for j, k in enumerate(self.source.basis(d - 1))}
            su, sv = self.target_shift(d - 1, 0), self.target_shift(d - 1, 1)
        for j, (i, a, b) in enumerate(basis):
            if a == b == 0:
                out[:, j] = self.images[i]
            elif a:
                out[:, j] = su @ prev[:, pos[(i, a - 1, b)]]
            else:
                out[:, j] = sv @ prev[:, pos[(i, a, b - 1)]]
        out %= self.p
        self._slices[d] = out
        return out


class GradedModulePresentation:
    """Generators and homogeneous relations for a graded module, plus the
    degreewise dimension table they were extracted from.

    evaluation is the surjection onto the module from the free module on
    the generators: any map out of a free module, with its `source`
    FreeBasis, its prime `p` and its degree-d slice as evaluation(d), as a
    FreeMap has them.  relations: list of (degree, vector over the
    free-module slice basis); relation_map is the map from the free module
    on the relations into the free module on the generators.
    """

    def __init__(self, dims, evaluation, relations, name=None):
        self.p = evaluation.p
        self.dims = list(dims)
        self.horizon = len(dims) - 1
        self.evaluation = evaluation
        self.free = evaluation.source
        self.gen_degrees = self.free.gen_degrees
        self.name = name
        self.relations = relations
        self.relation_map = FreeMap.into_free(self.free, relations, self.p)

    def relation_degrees(self):
        return [d for d, _ in self.relations]

    def check(self):
        """Dimension table consistent with the presentation in every degree:
        dim M_d = dim F_d - rank(relations in degree d), and the evaluation
        map is onto with the relations inside its kernel."""
        for d in range(self.horizon + 1):
            E, R = self.evaluation(d), self.relation_map(d)
            if fp.rank(E.T, self.p) != self.dims[d]:
                raise ValueError("presentation not surjective in degree %d" % d)
            if ((E @ R) % self.p).any():
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


def present(evaluation, dims, name=None):
    """The checked minimal presentation of the module that evaluation maps
    onto, dims its dimension table in degrees 0..D: the relations are
    minimal generators of the evaluation's kernel up to degree D."""
    relations = _minimal_kernel_generators(evaluation, len(dims) - 1)
    pres = GradedModulePresentation(dims, evaluation, relations, name)
    pres.check()
    return pres


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

    dims = list(dims)
    evaluation = FreeMap(FreeBasis(gen_degrees), gen_vectors, p, dims.__getitem__,
                         lambda d, var: (u_maps, v_maps)[var][d])
    return present(evaluation, dims, name)


def _minimal_kernel_generators(fmap, D):
    """Minimal homogeneous generators of ker(fmap) over F_p[u, v], as
    (degree, vector over the source slice basis).

    New generators in degree d span ker_d modulo u*ker_{d-1} + v*ker_{d-1}.
    """
    free, p = fmap.source, fmap.p
    gens = []
    prev_kernel = ()
    for d in range(D + 1):
        ker = fp.nullspace(fmap(d), p)  # rows spanning ker_d
        shifted = ()  # u * ker_{d-1} and v * ker_{d-1}, as rows
        if len(prev_kernel):
            shifted = np.vstack([prev_kernel @ free.shift(d - 1, var).T
                                 for var in (0, 1)])
        span = fp.Span(free.dim(d), p, shifted)
        gens.extend((d, [int(x) for x in c]) for c in ker if span.add(c))
        prev_kernel = ker
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
    free1 = P.relation_map.source
    syz = _minimal_kernel_generators(P.relation_map, D)

    # minimality: no differential entry is a unit (no constant coefficients)
    for free, gens, what in ((P.free, P.relations, "presentation"),
                             (free1, syz, "resolution")):
        for d, vec in gens:
            if any(vec[j] % p for j, (_, a, b) in enumerate(free.basis(d))
                   if a == b == 0):
                raise ValueError("%s not minimal: unit entry" % what)

    # third syzygies must be zero: the F_2 evaluation map is injective
    syz_map = FreeMap.into_free(free1, syz, p)
    for d in range(D + 1):
        E2 = syz_map(d)
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
        dim = P.free.dim(d) - fp.rank(P.relation_map(d), P.p)
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
    """Presentation of CH^*(Klein, M) as a module over F_2[u, v]: the
    relations are the kernel of its evaluation from the fixed points."""
    from .chow import KleinChowModule

    kcm = module if isinstance(module, KleinChowModule) else KleinChowModule(module)
    return present(kcm, [kcm.dim(i) for i in range(D + 1)],
                   name="CH(Klein4,%s)" % kcm.module.name)
