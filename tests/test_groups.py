import json
import random

import pytest

from chowtwist.errors import SizePolicyError
from chowtwist.groups import (FiniteGroup, double_cosets, group_by_name,
                              make_cyclic, make_klein4, make_quaternion)

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


def _all_pairs_subgroups(G):
    """Reference: close the cyclic subgroups under joins of every pair and
    under conjugation, round by round, sorted as FiniteGroup.subgroups()."""
    found = {frozenset(G._closure([a])) for a in range(G.order)}
    while True:
        new = {frozenset(G._closure(list(s1 | s2))) for s1 in found for s2 in found}
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
    # Gaussian binomials: 1 + 7 + 7 + 1 subgroups of (Z/2)^3 and
    # 1 + 15 + 35 + 15 + 1 of (Z/2)^4
    assert len(abelian([2, 2, 2], "C2^3").subgroups()) == 16
    assert len(abelian([2, 2, 2, 2], "C2^4").subgroups()) == 67


def test_subgroup_cosets():
    G = make_quaternion(3)
    H = G.generated_subgroup([1])  # <x>, order 4
    assert H.order == 4 and H.index == 2
    reps = H.right_coset_reps()
    assert len(reps) == 2 and reps[0] == 0
    seen = {G.mul(h, t) for t in reps for h in H.elements}
    assert seen == set(range(8))


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
