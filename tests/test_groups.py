import json
import math
import random
import time

import pytest

from chowtwist.errors import SizePolicyError
from chowtwist.groups import (FiniteGroup, double_coset_index, double_cosets,
                              group_by_name, make_cyclic, make_klein4,
                              make_quaternion)

from conftest import abelian, metacyclic, relabel


def test_cyclic_basics():
    G = make_cyclic(6)
    assert G.order == 6
    assert G.mul(2, 5) == 1
    assert G.inv(2) == 4
    assert G.element_order(1) == 6
    assert G.element_order(2) == 3


def test_klein_structure():
    G = make_klein4()
    assert G.mul(1, 2) == 3
    assert all(G.inv(a) == a for a in range(4))
    subs = G.subgroups()
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def test_quaternion_relations():
    G = make_quaternion(3)  # Q8
    x, y = 1, 4
    assert G.element_order(x) == 4
    assert G.element_order(y) == 4
    # y^2 = x^2 and y x y^{-1} = x^{-1}
    assert G.mul(y, y) == G.mul(x, x)
    assert G.conj(y, x) == G.inv(x)
    subs = G.subgroups()
    assert [s.order for s in subs] == [1, 2, 4, 4, 4, 8]


def test_quaternion_orders():
    for m in (3, 4, 5):
        assert make_quaternion(m).order == 2 ** m
    with pytest.raises(SizePolicyError):
        make_quaternion(2)


def test_family_from_the_table():
    cases = [
        (make_cyclic(8), "cyclic"),
        (abelian([2, 4], "C2xC4"), None),
        (abelian([2, 2, 2], "C2^3"), None),
        (metacyclic(4, -1, 0, "D8"), None),
        (make_quaternion(3), "quaternion"),
        (metacyclic(4, -1, 2, "Q8"), "quaternion"),
        (metacyclic(8, -1, 0, "D16"), None),
        (metacyclic(8, 3, 0, "SD16"), None),
        (make_quaternion(4), "quaternion"),
        (make_klein4(), "klein"),
        (abelian([2, 2], "V4"), "klein"),
        (make_cyclic(1), "cyclic"),
        (abelian([2, 3], "C2xC3"), "cyclic"),
        (metacyclic(3, -1, 0, "S3"), None),
    ]
    for G, family in cases:
        assert G.family() == family, G.name
        perm = [0] + random.Random(G.order).sample(range(1, G.order), G.order - 1)
        assert relabel(G, perm).family() == family, G.name


def test_cyclic_generator_by_element_order():
    G = FiniteGroup(make_cyclic(6).table, generators=[2, 3])
    assert G.cyclic_generator() == 1
    assert abelian([2, 3], "C2xC3").cyclic_generator() == 3  # (1, 1)
    with pytest.raises(ValueError):
        make_klein4().cyclic_generator()


def _abelian_types(top):
    """Every finite abelian group of order 2..top, as its invariant factors
    d_1 | d_2 | ..."""
    out = []

    def grow(rest, factors):
        if rest == 1:
            out.append(factors)
        for d in range(2, rest + 1):
            if rest % d == 0 and (not factors or d % factors[-1] == 0):
                grow(rest // d, factors + [d])

    for n in range(2, top + 1):
        grow(n, [])
    return out


def test_abelian_basis_splits_every_abelian_table():
    types = _abelian_types(64)
    assert len(types) == 116
    for orders in types:
        A = abelian(orders, "A")
        rng = random.Random(A.order + len(orders))
        for G in [A] + [relabel(A, [0] + rng.sample(range(1, A.order), A.order - 1))
                        for _ in range(3)]:
            basis = G.abelian_basis()
            assert basis is not None, orders
            assert math.prod(G.element_order(g) for g in basis) == G.order, orders
            assert G.generated_subgroup(basis).order == G.order, orders
            assert G.abelian_basis() is basis  # memoised


def test_abelian_basis_of_the_named_families():
    for m in range(1, 10):
        G = make_cyclic(m)
        assert G.abelian_basis() == (G.cyclic_generator(),)
    assert make_klein4().abelian_basis() == (1, 2)
    for G in (make_quaternion(3), metacyclic(4, -1, 0, "D8"), metacyclic(3, -1, 0, "S3")):
        assert G.abelian_basis() is None, G.name


def test_group_by_name():
    assert group_by_name("C12").order == 12
    assert group_by_name("klein").name == "Klein4"
    assert group_by_name("Q16").order == 16
    with pytest.raises(SizePolicyError):
        group_by_name("Q12")
    with pytest.raises(SizePolicyError):
        group_by_name("C100")


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # identity row wrong


def _ref_closure(G, seed):
    """Reference: the subgroup generated by seed, as a set, by multiplying
    each new element with every element found so far on both sides."""
    seen = {G.identity}
    seen.update(seed)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return seen


def _all_pairs_subgroups(G):
    """Reference: close the cyclic subgroups under joins of every pair and
    under conjugation, round by round, sorted as FiniteGroup.subgroups()."""
    found = {frozenset(_ref_closure(G, [a])) for a in range(G.order)}
    while True:
        new = {frozenset(_ref_closure(G, s1 | s2)) for s1 in found for s2 in found}
        new |= {frozenset(G.conj(g, a) for a in s)
                for s in found for g in range(G.order)}
        if new <= found:
            break
        found |= new
    return [tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def test_subgroups_match_all_pairs_joins():
    for G in (metacyclic(4, -1, 0, "D8"), metacyclic(8, -1, 0, "D16"),
              metacyclic(8, 3, 0, "SD16"), make_quaternion(4),
              abelian([2, 2, 2], "C2^3"), abelian([2, 4], "C2xC4")):
        assert [s.elements for s in G.subgroups()] == _all_pairs_subgroups(G), G.name


def test_elementary_abelian_subgroup_counts():
    # Gaussian binomials: 1 + 7 + 7 + 1 subgroups of (Z/2)^3,
    # 1 + 15 + 35 + 15 + 1 of (Z/2)^4 and 1 + 63 + 651 + 1395 + 651 + 63 + 1
    # of (Z/2)^6
    assert len(abelian([2, 2, 2], "C2^3").subgroups()) == 16
    assert len(abelian([2, 2, 2, 2], "C2^4").subgroups()) == 67
    start = time.perf_counter()
    orders = [H.order for H in abelian([2] * 6, "C2^6").subgroups()]
    assert time.perf_counter() - start < 15
    assert len(orders) == 2825
    assert [orders.count(2 ** k) for k in range(7)] == [1, 63, 651, 1395, 651, 63, 1]


def test_quaternion64_subgroups_quickly():
    G = make_quaternion(6)
    start = time.perf_counter()
    assert len(G.subgroups()) == 37
    assert time.perf_counter() - start < 0.3


# the groups whose every subgroup pair the coset indices are compared on
COSET_GROUPS = (make_quaternion(4), metacyclic(8, -1, 0, "D16"),
                metacyclic(8, 3, 0, "SD16"), abelian([2, 4], "C2xC4"))


def _ref_cosets(G, H, right):
    """Reference: the least element of each coset, met in increasing order,
    and the number of the coset of every element."""
    reps, coset_of = [], {}
    for g in range(G.order):
        if g not in coset_of:
            coset_of.update((G.mul(h, g) if right else G.mul(g, h), len(reps))
                            for h in H.elements)
            reps.append(g)
    return reps, [coset_of[g] for g in range(G.order)]


def _ref_double_cosets(G, K, H):
    """Reference: the least element of each KgH, met in increasing order,
    with K meet gHg^-1, and the number of the double coset of every
    element."""
    out, double_of = [], {}
    for g in range(G.order):
        if g not in double_of:
            double_of.update((G.mul(G.mul(k, g), h), len(out))
                             for k in K.elements for h in H.elements)
            out.append((g, {a for a in K.elements if G.conj(G.inv(g), a) in H.elements}))
    return out, [double_of[g] for g in range(G.order)]


def test_subgroup_cosets():
    G = make_quaternion(3)
    H = G.generated_subgroup([1])  # <x>, order 4
    assert H.order == 4 and H.index == 2
    reps, coset_of = H.cosets(right=True)
    assert reps.tolist() == [0, 4] and coset_of.tolist() == [0] * 4 + [1] * 4
    for G in COSET_GROUPS:
        for H in G.subgroups():
            for right in (False, True):
                reps, coset_of = H.cosets(right)
                assert (reps.tolist(), coset_of.tolist()) == _ref_cosets(G, H, right)


def test_subgroup_rejects_sets_that_are_not_closed():
    with pytest.raises(ValueError, match="identity"):
        make_cyclic(4).subgroup([1, 3])
    with pytest.raises(ValueError, match="inverse"):
        make_cyclic(4).subgroup([0, 1, 2])  # 1 has inverse 3
    with pytest.raises(ValueError, match="multiplication"):
        make_klein4().subgroup([0, 1, 2])  # 1 * 2 = 3


def test_as_group_roundtrip():
    G = make_quaternion(3)
    for sub in G.subgroups():
        H, embed = sub.as_group()
        assert H.order == sub.order
        for i in range(H.order):
            for j in range(H.order):
                assert embed[H.mul(i, j)] == G.mul(embed[i], embed[j])


def test_as_group_built_once_per_subgroup():
    sub = make_quaternion(3).generated_subgroup([1])
    assert sub.as_group() is sub.as_group()


def test_as_group_small_generating_set():
    # even the full nonabelian subgroup must not fall back to "everything"
    G = make_quaternion(3)
    H, _ = G.full_subgroup().as_group()
    assert len(H.generators) <= 2


def test_double_cosets_partition():
    for G in COSET_GROUPS:
        for K in G.subgroups():
            for H in G.subgroups():
                ref, ref_of = _ref_double_cosets(G, K, H)
                assert [(g, set(inter.elements)) for g, inter in double_cosets(G, K, H)] == ref
                reps, double_of = double_coset_index(G, K, H)
                assert reps.tolist() == [g for g, _ in ref]
                assert double_of.tolist() == ref_of
    G = make_quaternion(3)
    K = G.generated_subgroup([4])
    H = G.generated_subgroup([1])
    dcs = double_cosets(G, K, H)
    covered = set()
    for g, inter in dcs:
        for k in K.elements:
            for h in H.elements:
                covered.add(G.mul(G.mul(k, g), h))
        # the stored intersection is K meet gHg^-1
        expect = {a for a in K.elements if G.conj(G.inv(g), a) in H.elements}
        assert set(inter.elements) == expect
    assert covered == set(range(G.order))


def test_json_roundtrip():
    G = make_quaternion(3)
    G2 = FiniteGroup.from_json(json.dumps(G.to_json()))
    assert G2.order == G.order
    assert G2.table.tolist() == G.table.tolist()
    assert G2.name == G.name


def test_subgroup_element_indices_are_range_checked():
    G = make_cyclic(4)
    for seed in ([-1], [4], [1, 99]):
        with pytest.raises(ValueError):
            G.generated_subgroup(seed)
    for elements in ([0, -1], [0, 4]):
        with pytest.raises(ValueError):
            G.subgroup(elements)
    with pytest.raises(ValueError):
        FiniteGroup(G.table, generators=[99])
    assert G.generated_subgroup([3]).elements == (0, 1, 2, 3)
