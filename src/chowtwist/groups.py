"""Concrete finite groups as Cayley tables, with subgroup combinatorics.

Elements are integer indices into an order x order multiplication table.
Everything downstream (cohomology, transfers, coset decompositions) works by
exhaustive enumeration, so group order is capped at 64.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import SizePolicyError

MAX_ORDER = 64


class FiniteGroup:
    """Immutable finite group given by its multiplication table.

    table[i][j] is the index of the product (element i) * (element j).
    Element 0 is the identity.  Construction checks that, the Latin-square
    structure, associativity and that the declared generators reach the
    whole group.
    """

    identity = 0

    def __init__(self, table, labels=None, generators=None, name=None):
        t = np.asarray(table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValueError("table must be square")
        if n > MAX_ORDER:
            raise SizePolicyError("group order %d exceeds the cap of %d" % (n, MAX_ORDER))
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise ValueError("identity row/column is not the identity permutation")
        ar = np.arange(n)
        for i in range(n):
            if not (np.array_equal(np.sort(t[i]), ar) and np.array_equal(np.sort(t[:, i]), ar)):
                raise ValueError("table is not a Latin square")
        # (a*b)*c == a*(b*c) for all triples: t[t][a,b,c] vs t[:,t][a,b,c]
        if not np.array_equal(t[t], t[:, t]):
            raise ValueError("table is not associative")
        self.order = n
        self.table = t
        self.table.setflags(write=False)
        self.labels = list(labels) if labels else ["e%d" % i for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("need one label per element")
        self.inverse = np.argmax(t == 0, axis=1)  # the column of each row's 0
        self.inverse.setflags(write=False)
        if generators is None:
            generators = list(range(1, n)) or [0]
        self.generators = self._indices(generators)
        if self._closure(self.generators) != set(range(n)):
            raise ValueError("declared generators do not generate the group")
        self.name = name or "G%d" % n
        self._subgroups = None
        # cochain index tables of cohomology's res/cor/conjugation maps
        self._cochain_tables = {}

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self.inverse[a])

    def conj(self, g, a):
        """g a g^{-1}."""
        return self.mul(self.mul(g, a), self.inv(g))

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def cyclic_generator(self):
        """The first element of order |G|; a ValueError if there is none."""
        return [self.element_order(a) for a in range(self.order)].index(self.order)

    def family(self):
        """The family of G, read from the element orders alone: "cyclic",
        "klein", "quaternion" (generalized quaternion) or None.  A 2-group
        with one element of order 2 has one subgroup of order 2, so it is
        cyclic or generalized quaternion (Cartan-Eilenberg, Homological
        Algebra, XII.11)."""
        n = self.order
        orders = [self.element_order(a) for a in range(n)]
        if n in orders:
            return "cyclic"
        if n == 4:
            return "klein"
        if n & (n - 1) == 0 and orders.count(2) == 1:
            return "quaternion"
        return None

    def _closure(self, seed):
        seen = {self.identity}
        seen.update(seed)
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(seen):
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
            frontier = nxt
        return seen

    def _indices(self, elements):
        """The elements as ints; a ValueError unless each is in 0..order-1."""
        els = [int(e) for e in elements]
        if not all(0 <= e < self.order for e in els):
            raise ValueError("element index outside 0..%d" % (self.order - 1))
        return els

    def subgroup(self, elements):
        return Subgroup(self, elements)

    def generated_subgroup(self, seed):
        return Subgroup(self, sorted(self._closure(self._indices(seed))))

    def trivial_subgroup(self):
        return Subgroup(self, [self.identity])

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def subgroups(self):
        """All subgroups, sorted by order then element set.  Cached.

        Every subgroup is a join of cyclic subgroups, so joining each newly
        found subgroup with the cyclic ones, until nothing new appears,
        reaches them all.
        """
        if self._subgroups is None:
            cyclic = {frozenset(self._closure([a])) for a in range(self.order)}
            found, new = set(cyclic), cyclic
            while new:
                new = {frozenset(self._closure(s | c))
                       for s in new for c in cyclic if not c <= s} - found
                found |= new
            self._subgroups = [
                Subgroup(self, sorted(s))
                for s in sorted(found, key=lambda s: (len(s), sorted(s)))
            ]
        return self._subgroups

    def to_json(self):
        return {
            "name": self.name,
            "order": self.order,
            "table": self.table.tolist(),
            "generators": list(self.generators),
            "labels": list(self.labels),
        }

    @staticmethod
    def from_json(desc):
        if isinstance(desc, str):
            desc = json.loads(desc)
        return FiniteGroup(
            desc["table"],
            labels=desc.get("labels"),
            generators=desc.get("generators"),
            name=desc.get("name"),
        )

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a sorted tuple of element indices."""

    def __init__(self, parent, elements):
        self.parent = parent
        els = sorted(set(parent._indices(elements)))
        self.elements = tuple(els)
        s = set(els)
        if parent.identity not in s:
            raise ValueError("subgroup must contain the identity")
        for a in els:
            if parent.inv(a) not in s:
                raise ValueError("subgroup not closed under inverse")
            for b in els:
                if parent.mul(a, b) not in s:
                    raise ValueError("subgroup not closed under multiplication")
        self.order = len(els)
        self.index = parent.order // self.order
        self._pos = {e: i for i, e in enumerate(els)}
        self._as_group = None

    def __contains__(self, e):
        return e in self._pos

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.parent is other.parent and self.elements == other.elements

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def as_group(self):
        """The subgroup as a standalone FiniteGroup plus the inclusion map.

        Returns (H, embed) where embed[i] is the parent index of H's
        element i; embed is the tuple self.elements.  Built once per
        Subgroup and shared by every caller.
        """
        if self._as_group is not None:
            return self._as_group
        G = self.parent
        els = self.elements
        pos = self._pos
        n = self.order
        table = [[pos[G.mul(els[i], els[j])] for j in range(n)] for i in range(n)]
        # the first generating element, else the first generating pair, else
        # every element
        seeds = itertools.chain(itertools.combinations(range(n), 1),
                                itertools.combinations(range(n), 2))
        gens = next((list(s) for s in seeds
                     if len(G._closure([els[a] for a in s])) == n), None)
        H = FiniteGroup(
            table,
            labels=[G.labels[e] for e in els],
            generators=gens,
            name="%s_sub%d" % (G.name, self.order),
        )
        self._as_group = (H, els)
        return self._as_group

    def conjugate(self, g):
        G = self.parent
        return Subgroup(G, [G.conj(g, a) for a in self.elements])

    def right_coset_reps(self):
        """Representatives of H\\G (right cosets Hg), minimal index first."""
        G = self.parent
        reps, seen = [], set()
        for g in range(G.order):
            if g in seen:
                continue
            reps.append(g)
            for h in self.elements:
                seen.add(G.mul(h, g))
        return reps

    def left_coset_reps(self):
        """Representatives of G/H (left cosets gH), minimal index first."""
        G = self.parent
        reps, seen = [], set()
        for g in range(G.order):
            if g in seen:
                continue
            reps.append(g)
            for h in self.elements:
                seen.add(G.mul(g, h))
        return reps

    def __repr__(self):
        return "Subgroup(order=%d, elements=%s)" % (self.order, list(self.elements))


def double_cosets(G, K, H):
    """K\\G/H decomposition: list of (representative, K ∩ rep·H·rep^{-1}).

    Representatives are minimal element indices within their class.
    """
    out, seen = [], set()
    for g in range(G.order):
        if g in seen:
            continue
        for k in K.elements:
            kg = G.mul(k, g)
            for h in H.elements:
                seen.add(G.mul(kg, h))
        inter = [a for a in K.elements if G.conj(G.inv(g), a) in H]
        out.append((g, Subgroup(G, inter)))
    return out


def make_cyclic(m):
    """Z/m with generator sigma = element 1; table[i][j] = (i+j) mod m."""
    if not (1 <= m <= MAX_ORDER):
        raise SizePolicyError("cyclic order must be between 1 and %d" % MAX_ORDER)
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    labels = ["1"] + ["s^%d" % i for i in range(1, m)]
    gens = [1 % m] if m > 1 else [0]
    return FiniteGroup(table, labels=labels, generators=gens, name="C%d" % m)


def make_klein4():
    """Elementary abelian group of order 4 with generators g (index 1) and
    h (index 2); gh is index 3."""
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    return FiniteGroup(table, labels=["1", "g", "h", "gh"], generators=[1, 2], name="Klein4")


def make_quaternion(m):
    """Generalized quaternion group of order 2^m.

    Presentation: x of order 2^{m-1}, y^2 = x^{2^{m-2}}, y x y^{-1} = x^{-1}.
    Elements are encoded as x^a y^b with 0 <= a < 2^{m-1}, b in {0,1};
    index = a + b * 2^{m-1}.
    """
    if not (3 <= m <= 6):
        raise SizePolicyError("quaternion parameter must be between 3 and 6")
    half = 2 ** (m - 1)
    n = 2 * half

    def mul(i, j):
        a1, b1 = i % half, i // half
        a2, b2 = j % half, j // half
        # (x^a1 y^b1)(x^a2 y^b2): move y^b1 past x^a2
        a2m = (-a2) % half if b1 else a2
        a = (a1 + a2m) % half
        b = b1 + b2
        if b == 2:
            a = (a + half // 2) % half  # y^2 = x^{2^{m-2}}
            b = 0
        return a + b * half

    table = [[mul(i, j) for j in range(n)] for i in range(n)]
    labels = []
    for b in (0, 1):
        for a in range(half):
            s = ("x^%d" % a if a else "1") if not b else (("x^%d*y" % a) if a else "y")
            labels.append(s)
    labels[0] = "1"
    return FiniteGroup(table, labels=labels, generators=[1, half], name="Q%d" % n)


def group_by_name(name):
    """Resolve a CLI-style group name: C<m>, Klein4, Q<2^m>."""
    if name in ("Klein4", "klein4", "klein", "V4"):
        return make_klein4()
    if name.startswith(("C", "c")) and name[1:].isdigit():
        return make_cyclic(int(name[1:]))
    if name.startswith(("Q", "q")) and name[1:].isdigit():
        order = int(name[1:])
        m = order.bit_length() - 1
        if 2 ** m != order:
            raise SizePolicyError("quaternion order must be a power of 2")
        return make_quaternion(m)
    raise SizePolicyError("unknown group name %r" % name)
