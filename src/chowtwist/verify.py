"""Verification batteries: every closed-form value the package claims is
recomputed here against an independent oracle and reported as a list of
named checks.

Each battery function returns a list of dicts with keys name, expected,
computed, ok.  The CLI's verify command and the acceptance test suite both
run these; nothing here is mocked or special-cased.
"""

from __future__ import annotations

import os
import random

import numpy as np

from . import chow, fp, graded, intlin
from . import cohomology as coh
from .errors import ResourceCapError, VerificationError
from .gmodules import (_submodule_from_kernel, make_augmentation_quotient,
                       make_klein4, make_regular, make_sign_cyclic, make_trivial,
                       make_omega2_trivial, omega_klein, omega_negative_klein,
                       random_cyclic_module, random_lattice, restrict)
from .groups import double_cosets, make_cyclic, make_quaternion
from .lattices import coflasque_resolution, counterexample_lattices, is_coflasque


def _check(name, expected, computed):
    return {"name": name, "expected": str(expected), "computed": str(computed),
            "ok": str(expected) == str(computed)}


def _check_bool(name, ok, detail=""):
    return {"name": name, "expected": "true", "computed": "true" if ok else
            ("false" + (" (%s)" % detail if detail else "")), "ok": bool(ok)}


# ---------------------------------------------------------------------------
# cyclic groups: closed form vs the resolution oracles


def cyclic_checks(m, seed=None):
    """One cyclic order: closed form vs the periodic-resolution oracle for a
    battery of modules, plus a bar-resolution spot check where it fits."""
    G = make_cyclic(m)
    rng = random.Random(seed if seed is not None else m)
    modules = [make_trivial(G), make_regular(G)]
    if m > 1:
        modules.append(make_augmentation_quotient(G))
    if m % 2 == 0:
        modules.append(make_sign_cyclic(G))
    modules.append(random_cyclic_module(G, min(4, max(1, m)), rng))
    out = []
    for k, M in enumerate(modules):
        for i in (1, 2, 3):
            closed = chow.twisted_chow_cyclic(G, M, i).value
            oracle = coh.cyclic_cohomology(G, M, 2 * i).structure
            out.append(_check("C%d %s CH^%d vs periodic H^%d" % (m, M.name, i, 2 * i),
                              oracle, closed))
        # trivial Z (the first module) gives Z/m in every positive degree
        if k == 0 and m > 1:
            out.append(_check("C%d trivial CH^1" % m, "Z/%d" % m,
                              chow.twisted_chow_cyclic(G, M, 1).value))
        # independent bar-resolution oracle at degree 2 where the cap allows
        if m > 1:
            try:
                bar = coh.bar_cohomology(G, M, 2).structure
            except ResourceCapError:
                continue
            out.append(_check("C%d %s bar H^2" % (m, M.name),
                              coh.cyclic_cohomology(G, M, 2).structure, bar))
    return out


def battery_cyclic(orders=None):
    out = []
    for m in (orders if orders is not None else range(2, 13)):
        out.extend(cyclic_checks(m))
    return out


# ---------------------------------------------------------------------------
# quaternion exponent gap


def battery_quaternion():
    out = []
    G = make_quaternion(3)
    M = make_omega2_trivial(G)
    h2 = coh.bar_cohomology(G, M, 2).structure
    out.append(_check("Q8 Omega^2(Z): H^2", "Z/8", h2))
    ch1 = chow.twisted_chow_quaternion(G, M, 1).value
    out.append(_check_bool("Q8 Omega^2(Z): CH^1 exponent divides 4",
                           4 % ch1.exponent == 0 if ch1.exponent else True,
                           "exponent %d" % ch1.exponent))
    out.append(_check_bool("Q8 Omega^2(Z): CH^1 strictly smaller than H^2",
                           ch1.order < h2.order,
                           "%s vs %s" % (ch1, h2)))
    ch3 = chow.twisted_chow_quaternion(G, M, 3).value
    out.append(_check("Q8 Omega^2(Z): CH^3 = CH^1 (periodicity)", ch1, ch3))
    return out


# ---------------------------------------------------------------------------
# Klein closed forms


def klein_checks(m):
    out = []
    Mneg = omega_negative_klein(m)
    for i in range(4):
        d = chow.twisted_chow_klein(Mneg, i).value
        out.append(_check("Klein Omega^-%d CH^%d dim" % (m, i), m + 2 * i + 1, d))
    return out


def battery_klein(ms=None):
    out = []
    for m in (ms if ms is not None else range(1, 6)):
        out.extend(klein_checks(m))
    K = make_klein4()
    Mtriv = make_trivial(K, "F2")
    Momega = omega_klein(1)
    for i in range(4):
        out.append(_check("Klein trivial CH^%d dim" % i, i + 1,
                          chow.twisted_chow_klein(Mtriv, i).value))
    for i in range(1, 4):
        out.append(_check("Klein Omega^1 CH^%d dim" % i, 0,
                          chow.twisted_chow_klein(Momega, i).value))
    return out


# ---------------------------------------------------------------------------
# the counterexample: motivic vs Chow in degree 1


def counterexample_checks(m):
    M = omega_negative_klein(m)
    mot = chow.twisted_motivic_klein(M, 1).value
    ch = chow.twisted_chow_klein(M, 1).value
    explicit = chow.twisted_motivic_klein_explicit(m, 1).value
    out = [
        _check("m=%d motivic degree (2,1)" % m, 2 * m + 2, mot),
        _check("m=%d Chow degree 1" % m, m + 3, ch),
        _check("m=%d kernel of the comparison" % m, m - 1, mot - ch),
        _check("m=%d motivic, explicit resolutions" % m, mot, explicit),
    ]
    return out


def battery_counterexample(ms=None):
    out = []
    for m in (ms if ms is not None else range(2, 7)):
        out.extend(counterexample_checks(m))
    return out


# ---------------------------------------------------------------------------
# counterexample lattice structure + coflasque resolutions


def coflasque_checks(m):
    data = counterexample_lattices(m)
    G = data.module.group
    out = [_check("m=%d rank(A)" % m, 5 * m + 1, data.A.rank),
           _check("m=%d rank(A^G)" % m, 2 * m + 1, data.A.fixed_dim())]
    for a in (1, 2, 3):
        H = G.generated_subgroup([a])
        out.append(_check("m=%d rank(A^H_%d)" % (m, a), 3 * m + 1,
                          len(data.A.fixed_points(H))))
    ok, wit = is_coflasque(data.A)
    out.append(_check_bool("m=%d A coflasque" % m, ok, repr(wit)))
    # kernel of P -> A
    kb = _submodule_from_kernel(data.P, intlin.kernel_basis(data.p_to_a), "ker")
    ok2, wit2 = is_coflasque(kb)
    out.append(_check_bool("m=%d ker(P->A) coflasque" % m, ok2, repr(wit2)))
    return out


def battery_coflasque(ms=None):
    out = []
    for m in (ms if ms is not None else range(2, 7)):
        out.extend(coflasque_checks(m))
    return out


def random_resolution_modules(count=50, seed=11):
    """The seeded lattices of battery_coflasque_random, over cyclic groups
    of order <= 8, Klein and Q8."""
    rng = random.Random(seed)
    groups = [make_cyclic(k) for k in range(2, 9)] + [make_klein4(),
                                                      make_quaternion(3)]
    for _ in range(count):
        G = rng.choice(groups)
        if G.family() == "cyclic" and rng.random() < 0.5:
            yield random_cyclic_module(G, rng.randint(1, 4), rng)
        else:
            yield random_lattice(G, rng)


def battery_coflasque_random(count=50, seed=11):
    """Randomized coflasque resolutions: every output passes its invariants
    (exactness at Q, fixed-point surjectivity for all subgroups, coflasque
    kernel)."""
    out = []
    for n, M in enumerate(random_resolution_modules(count, seed)):
        res = coflasque_resolution(M)
        try:
            res.check()
            ok = True
            detail = ""
        except VerificationError as exc:
            ok = False
            detail = str(exc)
        out.append(_check_bool("random resolution %d (%s, rank %d)"
                               % (n, M.group.name, M.rank), ok, detail))
    return out


# ---------------------------------------------------------------------------
# regularity of the Klein Chow modules


def regularity_checks(m):
    M = omega_klein(m)
    P = graded.klein_chow_presentation(M, m + 6)
    B = graded.minimal_free_resolution(P)
    H = graded.hilbert_series(P)
    expected_hilb = [max(m - 2 * i, 0) for i in range(m + 7)]
    out = [
        _check("m=%d Betti shape" % m, (m, m + 2, 2), B.shape()),
        _check("m=%d second syzygy degrees" % m,
               sorted(((m + 2) // 2, (m + 3) // 2)), B.degrees(2)),
        _check("m=%d regularity" % m, (m - 1) // 2, graded.cm_regularity(B)),
        _check("m=%d Hilbert dims" % m, expected_hilb, H),
        _check_bool("m=%d alternating-sum identity" % m,
                    graded.check_euler_identity(B, H)),
    ]
    return out


def battery_regularity(ms=None):
    out = []
    for m in (ms if ms is not None else range(2, 9)):
        out.extend(regularity_checks(m))
    # the trivial module gives a free Chow module: regularity zero
    K = make_klein4()
    P = graded.klein_chow_presentation(make_trivial(K, "F2"), 6)
    B = graded.minimal_free_resolution(P)
    out.append(_check("trivial module regularity", 0, graded.cm_regularity(B)))
    out.append(_check("trivial module Betti shape", (1,), B.shape()))
    return out


# ---------------------------------------------------------------------------
# transfer properties: cor o res, double cosets, generation


def _cocycle_basis(group, module, n):
    """Rows spanning ker(delta_n) over F_p."""
    bc = coh.BarComplex(group, module)
    return bc, fp.nullspace(bc.delta_matrix(n), module.p)


def _coboundary_rows(bc, n, p):
    return bc.delta_matrix(n - 1).T % p


def cor_res_checks(G, modules, max_degree=3):
    """cor o res = [G:H] on H^n for every subgroup, checked on a basis of
    cocycles modulo coboundaries."""
    out = []
    for M in modules:
        p = M.p
        for n in range(1, max_degree + 1):
            bc, cocycles = _cocycle_basis(G, M, n)
            span = None  # of the coboundaries, built when first needed
            for sub in G.subgroups():
                idx = sub.index
                good = True
                cz = coh.corestriction_cochain(
                    G, M, sub, coh.restriction_cochain(G, M, sub, cocycles, n), n)
                for diff in (cz - idx * cocycles) % p:
                    if not diff.any():
                        continue
                    if span is None:
                        span = fp.Span(len(diff), p, _coboundary_rows(bc, n, p))
                    if not span.contains(diff):
                        good = False
                        break
                out.append(_check_bool(
                    "%s %s n=%d cor.res=[G:H] (index %d)" % (G.name, M.name, n, idx),
                    good))
    return out


def _subgroup_inside(restricted, small):
    """(H, M|H, small inside H) for subgroups small <= big, given
    restricted = restrict(M, big), so H = big.as_group().

    Subgroup presentations sort elements by parent index, so cochains over
    the returned subgroup's presentation are directly comparable to any
    other cochain over small's presentation.
    """
    MH, H, embed = restricted
    pos = {e: i for i, e in enumerate(embed)}
    return H, MH, H.subgroup([pos[e] for e in small.elements])


def double_coset_checks(G, modules, max_degree=2):
    """Mackey double-coset formula res_K cor_H = sum over K\\G/H of
    cor c_g res, verified modulo coboundaries on a cocycle basis."""
    out = []
    for M in modules:
        p = M.p
        restricted = {S: restrict(M, S) for S in G.subgroups()}
        for n in range(1, max_degree + 1):
            spans = {}  # subK -> span of its coboundaries, built when first needed
            for subH in G.subgroups():
                MH, H, _ = restricted[subH]
                bcH = coh.BarComplex(H, MH)
                dn = bcH.delta_matrix(n)
                cocyclesH = fp.nullspace(dn, p)
                corf = coh.corestriction_cochain(G, M, subH, cocyclesH, n)
                for subK in G.subgroups():
                    good = True
                    lhs = coh.restriction_cochain(G, M, subK, corf, n)
                    rhs = np.zeros_like(lhs)
                    for g, inter in double_cosets(G, subK, subH):
                        # L = g^{-1} K g cap H, conjugate of the stored
                        # intersection K cap g H g^{-1}
                        L = inter.conjugate(G.inv(g))
                        fL = coh.restriction_cochain(
                            *_subgroup_inside(restricted[subH], L), cocyclesH, n)
                        cf, tgt = coh.conjugation_cochain(G, M, L, g, fL, n)
                        rhs = rhs + coh.corestriction_cochain(
                            *_subgroup_inside(restricted[subK], tgt), cf, n)
                    for diff in (lhs - rhs) % p:
                        if not diff.any():
                            continue
                        if subK not in spans:
                            MK, K, _ = restricted[subK]
                            spans[subK] = fp.Span(len(diff), p, _coboundary_rows(
                                coh.BarComplex(K, MK), n, p))
                        if not spans[subK].contains(diff):
                            good = False
                            break
                    out.append(_check_bool(
                        "%s %s n=%d res_%d cor_%d double cosets"
                        % (G.name, M.name, n, subK.order, subH.order), good))
    return out


def battery_transfer():
    out = []
    K4 = make_klein4()
    Q8 = make_quaternion(3)
    klein_mods = [make_trivial(K4, "F2"),
                  omega_negative_klein(2)]
    q8_mods = [make_trivial(Q8, "F2")]
    out.extend(cor_res_checks(K4, klein_mods, max_degree=3))
    out.extend(cor_res_checks(Q8, q8_mods, max_degree=3))
    out.extend(double_coset_checks(Q8, q8_mods, max_degree=2))
    # generation of the twisted Chow groups by transfers of Chern classes
    for m in (4, 6):
        G = make_cyclic(m)
        for M in (make_trivial(G), make_sign_cyclic(G)):
            rep = chow.transfer_generation_check(G, M, 1)
            out.append(_check_bool("C%d %s generated by transfers" % (m, M.name),
                                   rep["generated"]))
    for M in klein_mods:
        rep = chow.transfer_generation_check(K4, M, 1)
        out.append(_check_bool("Klein %s generated by transfers" % M.name,
                               rep["generated"]))
    rep = chow.transfer_generation_check(Q8, make_omega2_trivial(Q8), 1)
    out.append(_check_bool("Q8 Omega^2(Z) generated by the three cyclic subgroups",
                           rep["generated"]))
    return out


# ---------------------------------------------------------------------------
# structural properties: delta^2 = 0, periodicity


def battery_delta_squared(max_degree=6):
    """delta_{n+1} delta_n = 0 for all degrees n+1 <= max_degree on both
    groups of order 4, for trivial and nontrivial modules."""
    out = []
    K4 = make_klein4()
    C4 = make_cyclic(4)
    cases = [(K4, make_trivial(K4, "F2")),
             (K4, omega_negative_klein(1)),
             (C4, make_trivial(C4)),
             (C4, make_sign_cyclic(C4))]
    for G, M in cases:
        bc = coh.BarComplex(G, M)
        good = True
        for n in range(max_degree):
            # int64 matmul bypasses BLAS; float64 is much faster, and exact
            # while max|a| * max|b| * (inner dimension) stays below 2^53
            a, b = bc.delta_matrix(n + 1), bc.delta_matrix(n)
            bound = intlin._max_abs(a) * intlin._max_abs(b) * b.shape[0]
            if bound >= 2 ** 53:
                raise VerificationError("delta^2 product is not exact in float64: "
                                        "bound %d for degree %d" % (bound, n))
            prod = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
            if M.p:
                prod %= M.p
            if prod.any():
                good = False
                break
        out.append(_check_bool("%s %s delta^2=0 through degree %d"
                               % (G.name, M.name, max_degree), good))
    return out


def battery_periodicity():
    """Tate 2-periodicity for cyclic groups (bar/homology oracles included)
    and the quaternion 4-periodicity of the odd Chow values."""
    out = []
    rng = random.Random(5)
    for m in (3, 4, 6):
        G = make_cyclic(m)
        for M in (make_trivial(G), random_cyclic_module(G, 3, rng)):
            good = True
            for i in range(-3, 3):
                a = coh.tate(G, M, i).structure
                b = coh.tate(G, M, i + 2).structure
                if a != b:
                    good = False
                    break
            out.append(_check_bool("C%d %s Tate 2-periodicity on [-3,4]"
                                   % (m, M.name), good))
    out.extend(battery_quaternion()[3:])  # the CH^3 = CH^1 line
    return out


BATTERIES = {
    "cyclic": battery_cyclic,
    "quaternion": battery_quaternion,
    "klein": battery_klein,
    "counterexample": battery_counterexample,
    "coflasque": battery_coflasque,
    "regularity": battery_regularity,
    "transfer": battery_transfer,
}

# per-parameter task functions for the worker-pool fan-out; assembled in
# parameter order so output is deterministic regardless of job count
PARAM_TASKS = {
    "cyclic": ("orders", cyclic_checks, list(range(2, 13))),
    "klein": ("ms", klein_checks, list(range(1, 6))),
    "counterexample": ("ms", counterexample_checks, list(range(2, 7))),
    "coflasque": ("ms", coflasque_checks, list(range(2, 7))),
    "regularity": ("ms", regularity_checks, list(range(2, 9))),
}


def _param_worker(args):
    tag, param = args
    return PARAM_TASKS[tag][1](param)


def run_battery(tag, params=None, jobs=1):
    """Run one verification battery, optionally restricting the parameter
    list and fanning the per-parameter tasks out to a process pool of at
    most min(jobs, parameter count, CPU count) workers."""
    if tag not in BATTERIES:
        raise ValueError("unknown battery %r; choose from %s"
                         % (tag, sorted(BATTERIES)))
    if tag not in PARAM_TASKS:
        return BATTERIES[tag]()
    kw, task, default = PARAM_TASKS[tag]
    params = list(params) if params is not None else default
    jobs = min(jobs, len(params), os.cpu_count() or 1)
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_param_worker, [(tag, p) for p in params]))
    else:
        chunks = [task(p) for p in params]
    out = [c for chunk in chunks for c in chunk]
    # the global (parameter-independent) tail checks of the battery
    if tag == "klein":
        out.extend(battery_klein(ms=[]))
    if tag == "regularity":
        out.extend(battery_regularity(ms=[]))
    return out
