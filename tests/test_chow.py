import math
import random
import time

import numpy as np
import pytest

from chowtwist import chow, cli, f2, fp, intlin
from chowtwist import lattices as lat
from chowtwist import cohomology as coh
from chowtwist import gmodules as gm
from chowtwist.errors import UnsupportedFamilyError, VerificationError
from chowtwist.groups import (FiniteGroup, make_cyclic, make_klein4,
                              make_quaternion)

from conftest import abelian, change_ring_mod, characters, metacyclic, relabel


def test_cyclic_trivial_values():
    G = make_cyclic(5)
    T = gm.make_trivial(G)
    r0 = chow.twisted_chow_cyclic(G, T, 0)
    assert r0.value == gm.FiniteAbelianGroup([], 1)  # Z
    for i in (1, 2, 3):
        assert chow.twisted_chow_cyclic(G, T, i).value == gm.FiniteAbelianGroup([5])


def test_cyclic_oracle_cross_check():
    G = make_cyclic(6)
    for M in (gm.make_trivial(G), gm.make_sign_cyclic(G),
              gm.make_augmentation_quotient(G)):
        r = chow.twisted_chow_cyclic(G, M, 2, oracle=True)
        assert r.cross_check is not None
        assert r.value == r.cross_check


def test_cyclic_rejects_noncyclic():
    K = make_klein4()
    with pytest.raises(UnsupportedFamilyError):
        chow.twisted_chow_cyclic(K, gm.make_trivial(K), 1)


def test_klein_trivial_polynomial_growth():
    T = gm.make_trivial(make_klein4(), "F2")
    for i in range(4):
        assert chow.twisted_chow_klein(T, i).value == i + 1


def test_klein_omega_negative_dims():
    for m in (1, 2):
        M = gm.omega_negative_klein(m)
        for i in range(3):
            assert chow.twisted_chow_klein(M, i).value == m + 2 * i + 1


def test_klein_omega_positive_vanishes():
    M = gm.omega_klein(1)
    assert chow.twisted_chow_klein(M, 0).value == 1
    for i in (1, 2):
        assert chow.twisted_chow_klein(M, i).value == 0


def test_klein_requires_f2():
    with pytest.raises(ValueError):
        chow.twisted_chow_klein(gm.make_trivial(make_klein4()), 1)


def test_klein_module_multiplication():
    # u and v carry the kernel of each slice of the evaluation map into the
    # next slice's kernel, so they act on CH^*, the image of the slices
    km = chow.KleinChowModule(gm.omega_negative_klein(3))
    assert km.source.gen_degrees == [0] * 4
    for i in range(4):
        E = km(i)
        assert E.shape == (7 * (2 * i + 1), 4 * (i + 1))
        assert km.dim(i) == 3 + 2 * i + 1
        ker = fp.nullspace(E, 2)
        assert len(ker) == 4 * (i + 1) - km.dim(i)
        for var in (0, 1):
            shifted = km.source.shift(i, var) @ ker.T
            assert not ((km(i + 1) @ shifted) % 2).any()


def test_quaternion_omega2():
    G = make_quaternion(3)
    M = gm.make_omega2_trivial(G)
    assert coh.bar_cohomology(G, M, 2).structure == gm.FiniteAbelianGroup([8])
    ch1 = chow.twisted_chow_quaternion(G, M, 1).value
    assert ch1 == gm.FiniteAbelianGroup([4])
    assert chow.twisted_chow_quaternion(G, M, 3).value == ch1
    ch2 = chow.twisted_chow_quaternion(G, M, 2).value
    assert ch2 == gm.FiniteAbelianGroup([2, 2])


def test_quaternion_degree_zero():
    G = make_quaternion(3)
    M = gm.make_omega2_trivial(G)
    r = chow.twisted_chow_quaternion(G, M, 0)
    assert r.value.free_rank == M.fixed_dim()


def test_mackey_chow_klein():
    G = make_klein4()
    full = G.full_subgroup()
    for i in range(3):
        assert chow._klein_chow_dim(full, i) == i + 1
    H = G.generated_subgroup([1])
    assert chow._klein_chow_dim(H, 2) == 1
    R = chow._klein_block(full, H, 1)
    assert R.shape == (1, 2)
    # columns are v, u: restriction to <g> sends u -> c and v -> 0
    assert R.tolist() == [[0, 1]]


def test_mackey_evaluate_block_requires_containment():
    G = make_klein4()
    H = G.generated_subgroup([1])
    K = G.generated_subgroup([2])
    for i in range(4):
        assert not chow._klein_block(K, H, i).any()  # H not inside K


def test_klein_restriction_to_the_trivial_group_is_the_identity_in_degree_0():
    # CH^0 = Z on every subgroup, and restriction there is the identity
    G = make_klein4()
    trivial = G.trivial_subgroup()
    for K in (G.full_subgroup(), G.generated_subgroup([1])):
        assert chow._klein_block(K, trivial, 0).tolist() == [[1]]
        assert chow._klein_block(K, trivial, 1).shape == (0, chow._klein_chow_dim(K, 1))


@pytest.mark.parametrize("spec", [
    "trivialF2", "omega:1", "omega:2", "omega:3", "omega:4", "omega:5",
    "omega:-1", "omega:-2", "omega:-3", "omega:-4", "omega:-5",
    "l_zeta:x:2", "l_zeta:x+y:3"])
def test_motivic_degree_0_is_the_fixed_points(spec):
    # both coflasque resolutions are onto on G-fixed points, so the degree-0
    # cokernel is M^G, which is also CH^0
    M = cli.parse_module(make_klein4(), spec)
    assert (chow.twisted_motivic_klein(M, 0).value
            == chow.twisted_chow_klein(M, 0).value == M.fixed_dim())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_motivic_explicit_degree_0(m):
    assert chow.twisted_motivic_klein_explicit(m, 0).value == m + 1


def test_motivic_explicit_matches_generic():
    for m in (2, 3):
        M = gm.omega_negative_klein(m)
        generic = chow.twisted_motivic_klein(M, 1).value
        explicit = chow.twisted_motivic_klein_explicit(m, 1).value
        assert generic == explicit == 2 * m + 2
        assert chow.twisted_chow_klein(M, 1).value == m + 3


def _full_resolutions(M):
    """The motivic pipeline's input from two full coflasque resolutions."""
    res1 = lat.coflasque_resolution(M)
    res2 = lat.coflasque_resolution(res1.Q)
    psi = intlin.product(np.array(res1.q_basis).T, res2.surjection)
    return [S for S, _ in res1.pieces], [S for S, _ in res2.pieces], psi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_motivic_value_agrees_across_resolutions(m):
    M = gm.omega_negative_klein(m)
    greedy = chow.twisted_motivic_klein(M, 1).value
    full = chow.twisted_motivic_klein(M, 1, resolutions=_full_resolutions(M)).value
    explicit = chow.twisted_motivic_klein_explicit(m, 1).value
    assert greedy == full == explicit == 2 * m + 2


def test_motivic_value_greedy_matches_full_on_seeded_modules():
    rng = random.Random(5)
    G = make_klein4()
    # the full resolutions grow fast with the rank: keep the oracle small
    modules = [M for M in (change_ring_mod(gm.random_lattice(G, rng), 2)
                           for _ in range(6)) if M.rank <= 4]
    assert len(modules) >= 4
    for M in modules:
        full = _full_resolutions(M)
        for i in (1, 2):
            assert (chow.twisted_motivic_klein(M, i).value
                    == chow.twisted_motivic_klein(M, i, resolutions=full).value)


def test_motivic_higher_degree():
    m = 2
    assert chow.twisted_motivic_klein_explicit(m, 2).value == (m + 1) * 3


def test_transfer_generation():
    G4, K, Q = make_cyclic(4), make_klein4(), make_quaternion(3)
    for G, M in ((G4, gm.make_trivial(G4)), (K, gm.make_trivial(K, "F2")),
                 (Q, gm.make_omega2_trivial(Q))):
        assert chow.transfer_generation_check(G, M, 1)["generated"] is True


def test_klein_transfer_comparison_can_fail():
    # on F_2[K/<g>] the transfers from the proper subgroups have a nonzero
    # image, so leaving out the transfers from K itself makes the first
    # image differ from the cumulative one
    K = make_klein4()
    M = gm.make_permutation(K, K.generated_subgroup([1]), "F2")
    top = K.full_subgroup()
    proper = [s for s in K.subgroups() if s != top]
    own, every = chow._transfer_images(K, M, [top], proper)
    assert own == every == gm.FiniteAbelianGroup([2], 0)
    none, alone = chow._transfer_images(K, M, [], proper)
    assert none == gm.FiniteAbelianGroup([], 0)
    assert alone == gm.FiniteAbelianGroup([2], 0)


@pytest.mark.parametrize("spec, dim", [
    ("trivialF2", 2), ("omega:-1", 4), ("omega:-2", 5), ("omega:-3", 6),
    ("omega:-4", 7), ("omega:1", 0), ("omega:2", 0), ("l_zeta:x:2", 2),
    ("l_zeta:x+y:3", 3)])
def test_klein_transfer_image_matches_chow_module(spec, dim):
    # the G-level transfer image in the bar model and the Chow image on the
    # minimal resolution are two independent models of CH^1
    K = make_klein4()
    M = cli.parse_module(K, spec)
    own, = chow._transfer_images(K, M, [K.full_subgroup()])
    assert own == gm.FiniteAbelianGroup([2] * dim, 0)
    assert chow.KleinChowModule(M).dim(1) == dim


def test_quaternion_transfer_check_refuses_even_degrees():
    Q = make_quaternion(3)
    M = gm.make_omega2_trivial(Q)
    for i in (0, 2):
        with pytest.raises(UnsupportedFamilyError):
            chow.transfer_generation_check(Q, M, i)


def test_klein_transfer_check_refuses_other_degrees():
    # only degree 1 has a transfer comparison; a report without one would
    # say "generated" having checked nothing
    K = make_klein4()
    M = gm.make_trivial(K, "F2")
    for i in (0, 2, 3):
        with pytest.raises(UnsupportedFamilyError):
            chow.transfer_generation_check(K, M, i)
    assert chow.transfer_generation_check(K, M, 1) == {
        "group": "Klein4", "module": M.name, "degree": 1, "generated": True, "dim": 2}


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_klein_slices_add_coboundaries_once(monkeypatch):
    calls = _count_calls(monkeypatch, f2.F2Span, "add_matrix")
    km = chow.KleinChowModule(gm.omega_negative_klein(4))
    assert (km.dim(1), km.dim(2)) == (7, 9)
    assert len(calls) == 2  # one coboundary span per degree sliced
    for i in (1, 2, 1, 2):
        km(i)
    assert km.dim(0) == 5  # degree 0 has no coboundaries
    assert len(calls) == 2


def test_quaternion_transfer_check_corestricts_once(monkeypatch):
    calls = _count_calls(monkeypatch, coh, "corestriction_cochain")
    snf = _count_calls(monkeypatch, intlin, "smith_normal_form")
    inv = _count_calls(monkeypatch, intlin, "invariant_factors")
    Q = make_quaternion(3)
    M = gm.make_omega2_trivial(Q)
    report = chow.transfer_generation_check(Q, M, 1)
    assert report == {"group": "Q8", "module": M.name, "degree": 1,
                      "generated": True, "span3": 4, "span_all": 4}
    # one per generating character and fixed vector: 9 from the three
    # index-2 subgroups, 5 from the centre and 4 from Q8 itself
    assert len(calls) == 18
    assert len(snf) == 0  # no transform on the integral path
    # H^2 = Z/8 once for both lists, then one call per list: H^2 is cyclic,
    # so the order of each image fixes it
    assert len(inv) <= 3


def test_exactness_ranks_spare_the_large_prime_pass(monkeypatch):
    # over Z only the check that every transfer is a cocycle finds a rank
    # by elimination modulo a large prime
    primes = []
    original = intlin._pivot_counts

    def counted(rows, p, levels):
        primes.append(p)
        return original(rows, p, levels)

    monkeypatch.setattr(intlin, "_pivot_counts", counted)
    Q = make_quaternion(3)
    M = gm.make_omega2_trivial(Q)
    ell = intlin._rank_prime(Q.order)
    values = [repr(coh.tate(Q, M, i).structure) for i in range(-3, 4)]
    assert values == ["0", "Z/8", "0", "Z/2 + Z/2", "0", "Z/8", "0"]
    assert primes and ell not in primes
    del primes[:]
    assert chow.transfer_generation_check(Q, M, 1)["generated"]
    assert primes.count(ell) == 1


# ---------------------------------------------------------------------------
# reference for the transfer-image structure: class tuples in the Smith
# normal form coordinates of H^2, and the evaluation kernel modulo its
# invariant factors


def _evaluation_structure(classes, mods):
    """The subgroup of the sum of the Z/mods[t] generated by the class
    tuples, as Z^k modulo the kernel of the evaluation map."""
    if not classes or not mods:
        return gm.FiniteAbelianGroup([], 0)
    rows = [[c[t] for c in classes] for t in range(len(mods))]
    free, factors = intlin.quotient_structure(
        len(classes), intlin.kernel_mod(rows, mods), math.lcm(*mods))
    assert free == 0
    return gm.FiniteAbelianGroup(factors, 0)


def _class_tuple_structure(space, cocycles):
    """The subgroup of H^2 generated by the cocycles' classes, from their
    class tuples in space (an IntegralClassSpace; None when H^2 is
    trivial)."""
    if space is None:
        return gm.FiniteAbelianGroup([], 0)
    return _evaluation_structure([space.class_of(z) for z in cocycles],
                                 space.factors)


def _reference_space(G, M):
    """IntegralClassSpace of H^2(G, M), or None when H^2 is trivial (its
    Smith normal form takes 14 s for the augmentation module of Q16)."""
    if coh.tate(G, M, 2).structure.is_trivial():
        return None
    return coh.IntegralClassSpace(G, M, 2)


def _recorded_structures(monkeypatch):
    """Wrap chow._subgroup_structure; the list it returns fills with
    (cocycles, structure) per call."""
    seen = []
    original = chow._subgroup_structure

    def recorded(d1, h2, cocycles, exponent, **kwargs):
        out = original(d1, h2, cocycles, exponent, **kwargs)
        seen.append((list(cocycles), out))
        return out

    monkeypatch.setattr(chow, "_subgroup_structure", recorded)
    return seen


def _q8_relabelled():
    G = make_quaternion(3)
    return relabel(G, [0] + random.Random(3).sample(range(1, 8), 7))


def _case(name, make, *specs):
    return [pytest.param(make, spec, id="%s-%s" % (name, spec)) for spec in specs]


_STRUCTURE_CASES = (
    [c for n in range(2, 10)
     for c in _case("C%d" % n, lambda n=n: make_cyclic(n),
                    *(["trivialZ", "sign"] if n % 2 == 0 else ["trivialZ"]))]
    + _case("Q8", lambda: make_quaternion(3), "trivialZ", "augmentation", "omega2Z")
    # omega2Z over Q16 is left out: its Smith normal form takes 21 s
    + _case("Q16", lambda: make_quaternion(4), "trivialZ", "augmentation")
    + _case("Q8relabelled", _q8_relabelled, "trivialZ", "omega2Z")
    + _case("D8", lambda: metacyclic(4, -1, 0, "D8"), "trivialZ"))


@pytest.mark.parametrize("make, spec", _STRUCTURE_CASES)
def test_transfer_structure_matches_class_tuples(monkeypatch, make, spec):
    # C6 has two primes and C9 a p^2 factor; two primes open past j = 0
    # are left to the mixed diagonal presentations below
    G = make()
    M = cli.parse_module(G, spec)
    seen = _recorded_structures(monkeypatch)
    top = G.full_subgroup()
    chow._transfer_images(G, M, [s for s in G.subgroups() if s != top], [top])
    assert len(seen) == 2
    space = _reference_space(G, M)
    for cocycles, structure in seen:
        assert structure == _class_tuple_structure(space, cocycles)


@pytest.mark.parametrize("orders", [(2, 12), (4, 8), (6, 6)])
def test_random_cocycle_subgroups_match_class_tuples(orders):
    # integer combinations of first Chern classes plus coboundaries give
    # subgroups of H^2 = Hom(G, Q/Z) of every shape, not only the
    # transfer images
    A = abelian(list(orders), "A")
    G = FiniteGroup(A.table, generators=[1, orders[0]], name="A")
    M = gm.make_trivial(G)
    d1 = coh.BarComplex(G, M).delta_matrix(1)
    h2 = intlin.invariant_factors(d1, G.order)
    space = coh.IntegralClassSpace(G, M, 2)
    cherns = [coh.character_chern(G, x) for x in characters(G)[1:]]
    rng = np.random.default_rng(sum(orders))
    shapes = set()
    for _ in range(12):
        cocycles = []
        for _ in range(int(rng.integers(1, 4))):
            c = rng.integers(-3, 4, size=len(cherns)) * rng.choice([1, 2, 3, 4],
                                                                   size=len(cherns))
            c[rng.random(len(cherns)) < 0.7] = 0
            z = sum(int(a) * b for a, b in zip(c, cherns))
            cocycles.append(z + d1 @ rng.integers(-2, 3, size=d1.shape[1]))
        got = chow._subgroup_structure(d1, h2, cocycles, G.order)
        assert got == _class_tuple_structure(space, cocycles)
        shapes.add(len(got.invariant_factors))
    assert shapes >= {1, 2}  # cyclic and two-factor images both occur


def _unimodular(n, rng):
    """A random integer matrix of determinant 1 with small entries."""
    U = np.eye(n, dtype=np.int64)
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False)
        U[i] += int(rng.integers(-2, 3)) * U[j]
    return U


@pytest.mark.parametrize("mods", [(36, 36), (4, 36, 72), (8, 9, 27)])
def test_subgroup_structure_on_mixed_diagonal_presentations(monkeypatch, mods):
    # no small group has H^2 with p^2 and two cyclic p-factors for two
    # primes at once, which is when two primes stay open past j = 0; here
    # H^2 = (+) Z/mods[t] is the torsion of coker U [diag(mods); 0] V, and
    # the last coordinate before U plays C^2 / ker delta_2
    rng = np.random.default_rng(sum(mods))
    k = len(mods)
    U, V = _unimodular(k + 1, rng), _unimodular(k, rng)
    d1 = U @ np.vstack([np.diag(mods), np.zeros((1, k), dtype=np.int64)]) @ V
    exponent = math.lcm(*mods)
    h2 = intlin.invariant_factors(d1, exponent)
    calls = _count_calls(monkeypatch, intlin, "invariant_factors")
    bound = max(e for _, e in intlin.prime_powers(exponent))
    for _ in range(10):
        X = rng.integers(-3, 4, size=(k, int(rng.integers(1, 4))))
        X *= rng.choice([1, 2, 3, 4, 6, 9], size=X.shape)
        Z = U @ np.vstack([X, np.zeros((1, X.shape[1]), dtype=np.int64)])
        del calls[:]
        got = chow._subgroup_structure(d1, h2, list(Z.T), exponent)
        # j = 0 .. e - 1 at most, p^e the largest prime power of the
        # exponent: p^e C is trivial by definition
        assert len(calls) <= bound
        assert got == _evaluation_structure([tuple(x) for x in X.T.tolist()],
                                            list(mods))
    # a column with a free coordinate is no cocycle
    bent = U @ np.eye(k + 1, dtype=np.int64)[:, k]
    with pytest.raises(VerificationError, match="not a cocycle"):
        chow._subgroup_structure(d1, h2, [bent], exponent)


@pytest.mark.parametrize("make", [
    lambda: make_cyclic(6), lambda: make_cyclic(9), make_klein4,
    lambda: make_quaternion(3), lambda: metacyclic(4, -1, 0, "D8"),
    lambda: abelian([2, 2, 2], "C2^3"), lambda: abelian([2, 2, 4], "C2xC2xC4")],
    ids=["C6", "C9", "Klein4", "Q8", "D8", "C2^3", "C2xC2xC4"])
def test_first_chern_classes_generate_h2(make):
    # over trivial Z, H^2 = Hom(G, Q/Z) is spanned by the c_1 of the
    # characters of G itself, so the image from all subgroups is all of it;
    # the abelian groups declare every element a generator
    G = make()
    T = gm.make_trivial(G)
    start = time.perf_counter()
    image, = chow._transfer_images(G, T, G.subgroups())
    assert time.perf_counter() - start < 5
    assert image == coh.tate(G, T, 2).structure


def test_result_json_shape():
    G = make_cyclic(4)
    r = chow.twisted_chow_cyclic(G, gm.make_trivial(G), 1, oracle=True)
    j = r.to_json()
    assert j["value"] == {"free_rank": 0, "torsion": [4]}
    assert j["oracle"] == j["value"]
    rk = chow.twisted_chow_klein(gm.make_trivial(make_klein4(), "F2"), 2)
    assert rk.to_json()["value"] == {"dim": 3}
