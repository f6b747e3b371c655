import collections
import random

import numpy as np
import pytest

from chowtwist import chow, verify
from chowtwist import cohomology as coh
from chowtwist import fp, intlin
from chowtwist import gmodules as gm
from chowtwist.errors import ResourceCapError
from chowtwist.groups import make_cyclic, make_klein4, make_quaternion

from conftest import change_ring_mod, characters


def test_delta_squared_zero():
    G = make_klein4()
    M = gm.omega_negative_klein(1)
    bc = coh.BarComplex(G, M)
    for n in (0, 1, 2):
        d1 = bc.delta_matrix(n)
        d2 = bc.delta_matrix(n + 1)
        assert not ((d2 @ d1) % 2).any()


def test_cyclic_trivial_integral():
    G = make_cyclic(6)
    T = gm.make_trivial(G)
    assert coh.bar_cohomology(G, T, 0).structure == gm.FiniteAbelianGroup([], 1)
    assert coh.bar_cohomology(G, T, 1).structure.is_trivial()
    assert coh.bar_cohomology(G, T, 2).structure == gm.FiniteAbelianGroup([6])


def test_bar_matches_periodic():
    for m in (2, 3, 4):
        G = make_cyclic(m)
        mods = [gm.make_trivial(G), gm.make_augmentation_quotient(G)]
        if m % 2 == 0:
            mods.append(gm.make_sign_cyclic(G))
        for M in mods:
            for n in (1, 2, 3):
                a = coh.bar_cohomology(G, M, n).structure
                b = coh.cyclic_cohomology(G, M, n).structure
                assert a == b, (m, M.name, n)


def test_cyclic_cohomology_modulus():
    # H^*(C4, Z/2): every degree is Z/2
    G = make_cyclic(4)
    T = gm.make_trivial(G)
    for n in (0, 1, 2, 3):
        st = coh.cyclic_cohomology(G, change_ring_mod(T, 2), n).structure
        assert st == gm.FiniteAbelianGroup([2]), n
    # the sign module mod 2 is trivial
    S = change_ring_mod(gm.make_sign_cyclic(G), 2)
    assert coh.cyclic_cohomology(G, S, 1).structure == gm.FiniteAbelianGroup([2])


def test_klein_trivial_f2_dims():
    G = make_klein4()
    T = gm.make_trivial(G, "F2")
    # polynomial ring on two degree-1 classes
    for n in (0, 1, 2, 3):
        assert coh.bar_cohomology(G, T, n).dim == n + 1


def test_quaternion_low_degrees():
    G = make_quaternion(3)
    T = gm.make_trivial(G)
    assert coh.bar_cohomology(G, T, 1).structure.is_trivial()
    assert coh.bar_cohomology(G, T, 2).structure == gm.FiniteAbelianGroup([2, 2])
    assert coh.bar_cohomology(G, T, 3).structure.is_trivial()


def test_homology_and_negative_tate():
    G = make_cyclic(5)
    T = gm.make_trivial(G)
    assert coh.bar_homology(G, T, 0).structure == gm.FiniteAbelianGroup([], 1)
    assert coh.bar_homology(G, T, 1).structure == gm.FiniteAbelianGroup([5])
    # Tate hat: H^0 = Z/5, H^{-1} = 0, H^{-2} = H_1 = Z/5
    assert coh.tate(G, T, 0).structure == gm.FiniteAbelianGroup([5])
    assert coh.tate(G, T, -1).structure.is_trivial()
    assert coh.tate(G, T, -2).structure == gm.FiniteAbelianGroup([5])
    # negative degrees belong to tate, not to the bar (co)homology
    for f in (coh.bar_cohomology, coh.bar_homology):
        with pytest.raises(ValueError):
            f(G, T, -1)


def test_homology_dual_to_cohomology_mod_p():
    # over a field, H_n(G, M) is dual to H^n(G, M*); on nonabelian Q8 this
    # pins the orientation of every block of the boundary matrices
    Q8, C6 = make_quaternion(3), make_cyclic(6)
    modules = [change_ring_mod(gm.make_augmentation_quotient(Q8), 2),
               change_ring_mod(gm.make_omega2_trivial(Q8), 2),
               gm.omega_negative_klein(2),
               change_ring_mod(gm.make_augmentation_quotient(C6), 3)]
    for M in modules:
        G = M.group
        for n in (1, 2):
            homology = coh.bar_homology(G, M, n)
            assert homology.degree == n
            assert homology.dim == coh.bar_cohomology(G, M.dual(), n).dim, (M.name, n)


def test_tate_two_periodicity():
    G = make_cyclic(4)
    for M in (gm.make_trivial(G), gm.make_sign_cyclic(G)):
        for i in (-3, -2, -1, 0, 1):
            assert coh.tate(G, M, i).structure == coh.tate(G, M, i + 2).structure


def test_tate_matches_periodic_resolution():
    # every degree of the complete bar complex, including the trace at 0
    # and the coinvariant map at -1, against the 2-periodic resolution
    for m in (4, 6):
        G = make_cyclic(m)
        S = gm.make_sign_cyclic(G)
        for M in (gm.make_regular(G), S, change_ring_mod(S, 3),
                  change_ring_mod(gm.make_augmentation_quotient(G), 2)):
            for i in range(-2, 3):
                periodic = coh.cyclic_cohomology(G, M, 2 if i % 2 == 0 else 1)
                assert coh.tate(G, M, i).structure == periodic.structure, (m, M.name, i)


def _lattice_cases():
    """Every (group, lattice) pair these tests build: cyclic C2..C9 with
    trivial, sign and seeded modules, omega2Z over Q8 and Q16, the regular
    module of C6 and trivial Z over Klein4."""
    for m in range(2, 10):
        G = make_cyclic(m)
        yield G, gm.make_trivial(G)
        if m % 2 == 0:
            yield G, gm.make_sign_cyclic(G)
        yield G, gm.random_cyclic_module(G, min(4, m), random.Random(m))
    for G in (make_quaternion(3), make_quaternion(4)):
        yield G, gm.make_omega2_trivial(G)
    yield make_cyclic(6), gm.make_regular(make_cyclic(6))
    yield make_klein4(), gm.make_trivial(make_klein4())


# the largest dense matrix whose rank the test finds by elimination: bigger
# maps under the cap take seconds each for the rank pass alone
_RANK_CELLS = 400_000


def test_exactness_ranks_match_the_large_prime_rank():
    # the ranks from exactness over Q against the elimination modulo a
    # large prime that they replace; both give the same invariant factors
    for G, M in _lattice_cases():
        bc = coh.BarComplex(G, M)
        maps = []
        for i in range(-4, 4):
            k = i + 1 if i >= 0 else -1 - i  # the larger bar degree of the map
            if bc.dim(k) * bc.dim(k - 1 if k else 0) <= _RANK_CELLS:
                maps.append((i, bc.complete_map(i), bc.rank(i)))
        if G.family() == "cyclic":
            f = M.fixed_dim()
            S = M.act(G.cyclic_generator()) - np.eye(M.rank, dtype=np.int64)
            maps += [("sigma - 1", S, M.rank - f), ("trace", M.trace_matrix(), f)]
        assert len(maps) >= 3, (G.name, M.name)
        for i, A, rank in maps:
            found = intlin.invariant_factors(A, G.order)
            assert found[1] == rank, (G.name, M.name, i)
            assert intlin.invariant_factors(A, G.order, rank) == found


def test_exactness_ranks_need_a_lattice():
    G = make_cyclic(4)
    with pytest.raises(ValueError, match="need a lattice"):
        coh.BarComplex(G, gm.make_trivial(G, "F2")).rank(1)


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "100")
    G = make_cyclic(6)
    with pytest.raises(ResourceCapError) as exc:
        coh.bar_cohomology(G, gm.make_trivial(G), 3)
    assert exc.value.cells > 100


def test_cup_product_cocycle_and_square():
    # x cup x on C2 with F2 coefficients is the nonzero degree-2 class
    G = make_cyclic(2)
    T = gm.make_trivial(G, "F2")
    bc = coh.BarComplex(G, T)
    # the carry cocycle of the nontrivial character is x cup x: [1] on (g, g)
    xx = coh.character_chern(G, [0, 1]) % 2
    assert not (bc.delta_matrix(2) @ xx % 2).any()
    d1 = bc.delta_matrix(1)
    # not a coboundary
    assert not any(np.array_equal(xx % 2, (d1 @ np.array([c])) % 2) for c in (0, 1))


def test_character_generators():
    for G, count in ((make_cyclic(6), 6), (make_klein4(), 4),
                     (make_quaternion(3), 4)):
        chars = characters(G)
        assert len(chars) == count
        for x in chars:
            for a in range(G.order):
                for b in range(G.order):
                    assert (x[a] + x[b] - x[G.mul(a, b)]) % G.order == 0


def _h2_coboundaries(G):
    """delta_1 of G with trivial Z coefficients, and its invariant factors
    and rank: H^2 = tors coker delta_1."""
    d1 = coh.BarComplex(G, gm.make_trivial(G)).delta_matrix(1)
    return d1, intlin.invariant_factors(d1, G.order)


def test_character_chern_order():
    G = make_cyclic(4)
    d1, h2 = _h2_coboundaries(G)
    assert h2[0] == [4]
    z = coh.character_chern(G, [0, 1, 2, 3])  # faithful: sigma^g -> g/4
    assert chow._subgroup_structure(d1, h2, [z], 4).order == 4
    with pytest.raises(ValueError, match="not a homomorphism"):
        coh.character_chern(G, [0, 1, 1, 3])


def test_class_of_exact_product_agrees_with_int64():
    G = make_cyclic(4)
    space = coh.IntegralClassSpace(G, gm.make_trivial(G), 2)
    z = coh.character_chern(G, [0, 1, 2, 3])
    cls = space.class_of(z)
    # adding a huge coboundary keeps the class but forces the exact product
    cob = space.bc.delta_matrix(1)[:, 0].astype(object)
    big = z.astype(object) + (1 << 70) * cob
    assert intlin.product(space.U, big).dtype == object
    assert space.class_of(big) == cls
    assert space.class_of(list(big)) == cls


def test_character_chern_nonfaithful():
    G = make_cyclic(4)
    d1, h2 = _h2_coboundaries(G)
    z = coh.character_chern(G, [0, 2, 0, 2])  # factors through C2
    assert chow._subgroup_structure(d1, h2, [z], 4).order == 2


def test_cor_res_is_multiplication_by_index():
    G = make_cyclic(4)
    sub = G.generated_subgroup([2])
    T = gm.make_trivial(G, "F2")
    bc = coh.BarComplex(G, T)
    n = 2
    for z in fp.nullspace(bc.delta_matrix(n), 2):
        fH = coh.restriction_cochain(G, T, sub, z, n)
        back = coh.corestriction_cochain(G, T, sub, fH, n)
        # index 2 kills everything mod 2: back must be a coboundary
        diff = (back - 0 * z) % 2
        rows = bc.delta_matrix(n - 1)
        assert fp.Span(len(diff), 2, rows.T).contains(diff)


def test_subgroup_generated():
    G = make_cyclic(6)
    d1, h2 = _h2_coboundaries(G)
    assert h2[0] == [6]
    z = coh.character_chern(G, [0, 1, 2, 3, 4, 5])
    sub = chow._subgroup_structure(d1, h2, [2 * z], 6)
    assert sub.order == 3  # the index-2 subgroup of Z/6


# ---------------------------------------------------------------------------
# reference per-tuple bar differentials, restriction, transfer and
# conjugation: the index-arithmetic versions in cohomology must agree with
# these exactly


def _tuples(bc, n):
    """All degree-n basis tuples of bc in lexicographic order."""
    out = [()]
    for _ in range(n):
        out = [t + (g,) for t in out for g in bc.nonid.tolist()]
    return out


def _tuple_index(bc, t):
    idx = 0
    for g in t:
        idx = idx * bc.q + bc.nonid.tolist().index(g)
    return idx


def _block(bc, f, t):
    """Coefficient block of the cochain f at tuple t (zero if t has an
    identity entry)."""
    if bc.group.identity in t:
        return np.zeros(bc.r, dtype=np.int64)
    i = _tuple_index(bc, t)
    return f[i * bc.r:(i + 1) * bc.r]


def _ref_face_matrix(bc, n, chains):
    """bc._face_matrix(n, chains), one tuple and one face at a time."""
    G, M, r = bc.group, bc.module, bc.r
    shape = (bc.dim(n), bc.dim(n - 1))
    D = np.zeros(shape[::-1] if chains else shape, dtype=np.int64)
    eye = np.eye(r, dtype=np.int64)

    def add_block(idx, face, mat):
        if G.identity in face:
            return
        j = _tuple_index(bc, face)
        a, b = (j, idx) if chains else (idx, j)
        D[a * r:(a + 1) * r, b * r:(b + 1) * r] += mat

    for idx, t in enumerate(_tuples(bc, n)):
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


def _ref_restriction(G, module, subgroup, f, n):
    bcG = coh.BarComplex(G, module)
    MH, H, embed = gm.restrict(module, subgroup)
    bcH = coh.BarComplex(H, MH)
    out = np.zeros(bcH.dim(n), dtype=np.int64)
    r = module.rank
    for idx, t in enumerate(_tuples(bcH, n)):
        out[idx * r:(idx + 1) * r] = _block(bcG, f, tuple(embed[x] for x in t))
    return out


def _ref_corestriction(G, module, subgroup, fH, n, skip=None):
    """The transfer summed over every coset but the one numbered skip."""
    MH, H, embed = gm.restrict(module, subgroup)
    inv_embed = {e: j for j, e in enumerate(embed)}
    reps, coset_of = [], {}  # the right cosets Ht, each met first at its least t
    for t in range(G.order):
        if t not in coset_of:
            coset_of.update((G.mul(h, t), len(reps)) for h in subgroup.elements)
            reps.append(t)
    bcG = coh.BarComplex(G, module)
    bcH = coh.BarComplex(H, MH)
    r = module.rank
    out = np.zeros(bcG.dim(n), dtype=np.int64)
    for idx, t in enumerate(_tuples(bcG, n)):
        acc = np.zeros(r, dtype=np.int64)
        for i0 in range(len(reps)):
            i = i0
            h_tuple = []
            for g in t:
                tg = G.mul(reps[i], g)
                j = coset_of[tg]
                h_tuple.append(inv_embed[G.mul(tg, G.inv(reps[j]))])
                i = j
            if i0 != skip:
                acc = acc + module.act(G.inv(reps[i0])) @ _block(bcH, fH, tuple(h_tuple))
        out[idx * r:(idx + 1) * r] = acc
    return out % module.p if module.p else out


def _ref_conjugation(G, module, src_subgroup, x, f, n):
    tgt = G.generated_subgroup([G.conj(x, a) for a in src_subgroup.elements])
    MH, H, embedH = gm.restrict(module, src_subgroup)
    MK, K, embedK = gm.restrict(module, tgt)
    inv_embedH = {e: j for j, e in enumerate(embedH)}
    bcH = coh.BarComplex(H, MH)
    bcK = coh.BarComplex(K, MK)
    r = module.rank
    out = np.zeros(bcK.dim(n), dtype=np.int64)
    for idx, t in enumerate(_tuples(bcK, n)):
        back = tuple(inv_embedH[G.conj(G.inv(x), embedK[k])] for k in t)
        out[idx * r:(idx + 1) * r] = module.act(x) @ _block(bcH, f, back)
    return (out % module.p if module.p else out), tgt


def _oracle_cases():
    rng = random.Random(3)
    for G, top in ((make_cyclic(4), 3), (make_cyclic(6), 3), (make_klein4(), 3),
                   (make_quaternion(3), 2)):
        lat = gm.random_lattice(G, rng)
        mods = [gm.make_trivial(G), gm.make_trivial(G, "F2"),
                gm.make_augmentation_quotient(G), lat, change_ring_mod(lat, 2),
                gm.make_trivial(G, "F3")]
        if len(G.generators) == 1:
            mods.append(gm.make_sign_cyclic(G))
        yield G, top, mods
    # the trivial group: q = 0, so every positive degree has no tuples
    E, _ = make_klein4().trivial_subgroup().as_group()
    yield E, 3, [gm.make_trivial(E), gm.make_trivial(E, "F3")]


def _random_cochains(rng, M, length, rows=3):
    lo, hi = (0, M.p) if M.p else (-5, 6)
    return np.array([[rng.randrange(lo, hi) for _ in range(length)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, length)


def test_cochain_maps_match_per_tuple_reference():
    rng = random.Random(7)
    for G, top, mods in _oracle_cases():
        for M in mods:
            r = M.rank
            for sub in G.subgroups():
                for n in range(top + 1):
                    dimG = (G.order - 1) ** n * r
                    dimH = (sub.order - 1) ** n * r
                    F = _random_cochains(rng, M, dimG)
                    FH = _random_cochains(rng, M, dimH)
                    res = coh.restriction_cochain(G, M, sub, F, n)
                    cor = coh.corestriction_cochain(G, M, sub, FH, n)
                    for k in range(len(F)):
                        ref = _ref_restriction(G, M, sub, F[k], n)
                        one = coh.restriction_cochain(G, M, sub, F[k], n)
                        assert one.shape == ref.shape and np.array_equal(one, ref)
                        assert np.array_equal(res[k], ref)
                        ref = _ref_corestriction(G, M, sub, FH[k], n)
                        one = coh.corestriction_cochain(G, M, sub, FH[k], n)
                        assert one.shape == ref.shape and np.array_equal(one, ref)
                        assert np.array_equal(cor[k], ref)
                    for x in range(G.order):
                        cf, tgt = coh.conjugation_cochain(G, M, sub, x, FH, n)
                        for k in range(len(FH)):
                            ref, ref_tgt = _ref_conjugation(G, M, sub, x, FH[k], n)
                            one, one_tgt = coh.conjugation_cochain(G, M, sub, x, FH[k], n)
                            assert tgt == one_tgt == ref_tgt
                            assert one.shape == ref.shape and np.array_equal(one, ref)
                            assert np.array_equal(cf[k], ref)


def test_bar_differentials_match_per_tuple_reference():
    for G, top, mods in _oracle_cases():
        for M in mods:
            bc = coh.BarComplex(G, M)
            for n in range(1, top + 2):  # d_1 .. d_{top+1} and delta_0 .. delta_top
                for chains in (False, True):
                    D = bc._face_matrix(n, chains)
                    ref = _ref_face_matrix(bc, n, chains)
                    assert D.dtype == np.int64 and D.flags.c_contiguous
                    assert D.shape == ref.shape and np.array_equal(D, ref), \
                        (G.name, M.name, n, chains)


def test_cochain_maps_take_empty_stacks():
    G = make_klein4()
    M = gm.make_trivial(G, "F2")
    sub = G.generated_subgroup([1])
    assert coh.restriction_cochain(G, M, sub, np.zeros((0, 9)), 2).shape == (0, 1)
    assert coh.corestriction_cochain(G, M, sub, np.zeros((0, 1)), 2).shape == (0, 9)


def test_transfer_checks_fail_without_one_coset(monkeypatch):
    """Dropping the last coset's term from every transfer must make the
    cor/res and double coset batteries report failures."""
    def one_coset_short(G, module, subgroup, fH, n):
        F = np.asarray(fH)
        skip = subgroup.index - 1
        if F.ndim == 1:
            return _ref_corestriction(G, module, subgroup, F, n, skip)
        out = [_ref_corestriction(G, module, subgroup, f, n, skip) for f in F]
        return np.array(out).reshape(len(F), (G.order - 1) ** n * module.rank)

    monkeypatch.setattr(coh, "corestriction_cochain", one_coset_short)
    K4, Q8 = make_klein4(), make_quaternion(3)
    checks = verify.cor_res_checks(K4, [gm.make_trivial(K4, "F2")], 2)
    assert not all(c["ok"] for c in checks)
    checks = verify.double_coset_checks(Q8, [gm.make_trivial(Q8, "F2")], 1)
    assert not all(c["ok"] for c in checks)


def test_cochain_maps_restrict_modules_once(monkeypatch):
    """The batteries restrict each module to each subgroup at most once."""
    original = gm.restrict
    calls = collections.Counter()

    def counted(M, subgroup):
        calls[id(M), subgroup.elements] += 1
        return original(M, subgroup)

    for owner in (gm, verify, chow):
        if getattr(owner, "restrict", None) is original:
            monkeypatch.setattr(owner, "restrict", counted)
    Q8, K4 = make_quaternion(3), make_klein4()
    assert all(c["ok"] for c in verify.double_coset_checks(
        Q8, [gm.make_trivial(Q8, "F2")], 2))
    assert all(c["ok"] for c in verify.cor_res_checks(
        K4, [gm.make_trivial(K4, "F2"), gm.omega_negative_klein(2)], 3))
    assert calls and max(calls.values()) == 1
