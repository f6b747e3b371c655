"""Concrete finite groups as Cayley tables, with subgroup combinatorics.

Elements are integer indices into an order x order multiplication table.
Closures, cosets, double cosets and element orders are computed here and
nowhere else, each by numpy arithmetic on that table.  Group order is capped
at 64.
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
    structure, associativity, that the labels are distinct and that the
    declared generators reach the whole group.
    """

    identity = 0

    def __init__(self, table, labels=None, generators=None, name=None):
        t = np.asarray(table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValueError("table must be square")
        if n > MAX_ORDER:
            raise SizePolicyError("group order %d exceeds the cap of %d" % (n, MAX_ORDER))
        ar = np.arange(n)
        if not (np.all(t[0] == ar) and np.all(t[:, 0] == ar)):
            raise ValueError("identity row/column is not the identity permutation")
        if not (np.all(np.sort(t, axis=1) == ar) and np.all(np.sort(t, axis=0) == ar[:, None])):
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
        if len(set(self.labels)) != n:
            raise ValueError("element labels must be distinct")
        self.inverse = np.argmax(t == 0, axis=1)  # the column of each row's 0
        self.inverse.setflags(write=False)
        self._orders, self._basis = None, ()  # memos; () is "not searched yet"
        if generators is None:
            generators = list(range(1, n)) or [0]
        self.generators = self._indices(generators)
        if not self._closure(self.generators).all():
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

    @property
    def element_orders(self):
        """The order of every element, an int array found once by raising
        all elements to successive powers together."""
        if self._orders is None:
            ar = np.arange(self.order)
            orders, power, k = np.zeros(self.order, dtype=np.int64), ar, 1
            while not orders.all():
                orders[(power == self.identity) & (orders == 0)] = k
                power, k = self.table[power, ar], k + 1
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def element_order(self, a):
        return int(self.element_orders[a])

    def cyclic_generator(self):
        """The first element of order |G|; a ValueError if there is none."""
        return self.element_orders.tolist().index(self.order)

    def abelian_basis(self):
        """(g_1, .., g_k) with G = <g_1> x ... x <g_k>, or None, from the
        table: by descending order, first index first, each g whose <g> meets
        the subgroup reached so far only in e, until G is reached.  None also
        when the table is not symmetric.  Memoised."""
        if self._basis == ():
            basis, reached = [], np.array([self.identity])
            if np.array_equal(self.table, self.table.T):
                for g in np.argsort(-self.element_orders, kind="stable").tolist():
                    cyclic = np.flatnonzero(self._closure([g]))
                    if np.isin(cyclic, reached).sum() == 1:
                        basis.append(g)
                        reached = self.table[reached[:, None], cyclic].ravel()
                        if len(reached) == self.order:
                            break
            self._basis = tuple(basis) if len(reached) == self.order else None
        return self._basis

    def family(self):
        """The family of G, read from the element orders alone: "cyclic",
        "klein", "quaternion" (generalized quaternion) or None.  A 2-group
        with one element of order 2 has one subgroup of order 2, so it is
        cyclic or generalized quaternion (Cartan-Eilenberg, Homological
        Algebra, XII.11)."""
        n, orders = self.order, self.element_orders
        if (orders == n).any():
            return "cyclic"
        if n == 4:
            return "klein"
        if n & (n - 1) == 0 and (orders == 2).sum() == 1:
            return "quaternion"
        return None

    def _closure(self, seed):
        """Boolean mask of the subgroup generated by seed: the set grows by
        all products of its elements until it stops changing."""
        mask = np.zeros(self.order, dtype=bool)
        mask[self.identity] = True
        mask[list(seed)] = True
        while True:
            els = np.flatnonzero(mask)
            grown = np.zeros_like(mask)
            grown[self.table[els[:, None], els]] = True
            if grown.sum() == len(els):  # grown contains mask, as e is in it
                return mask
            mask = grown

    def _indices(self, elements):
        """The elements as ints; a ValueError unless each is in 0..order-1."""
        els = [int(e) for e in elements]
        if not all(0 <= e < self.order for e in els):
            raise ValueError("element index outside 0..%d" % (self.order - 1))
        return els

    def subgroup(self, elements):
        return Subgroup(self, elements)

    def generated_subgroup(self, seed):
        return Subgroup(self, np.flatnonzero(self._closure(self._indices(seed))))

    def trivial_subgroup(self):
        return Subgroup(self, [self.identity])

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def subgroups(self):
        """All subgroups, sorted by order then element set.  Cached.

        Every subgroup is reached from the trivial one by joining one
        element at a time.  The join of H with a depends only on the coset
        aH, so each newly found H is joined with its coset representatives
        until nothing new appears.
        """
        if self._subgroups is None:
            trivial = self.trivial_subgroup()
            found, new = {trivial.elements: trivial}, [trivial]
            while new:
                grown = []
                for H in new:
                    for a in H.cosets()[0][1:].tolist():  # not H itself
                        els = tuple(np.flatnonzero(self._closure(H.elements + (a,))).tolist())
                        if els not in found:
                            found[els] = Subgroup(self, els)
                            grown.append(found[els])
                new = grown
            self._subgroups = sorted(found.values(), key=lambda H: (H.order, H.elements))
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
        a = np.array(els, dtype=np.int64)
        self._mask = np.zeros(parent.order, dtype=bool)
        self._mask[a] = True
        if not self._mask[parent.identity]:
            raise ValueError("subgroup must contain the identity")
        products = self._mask[parent.table[a[:, None], a]]
        if not products.all():
            # an element whose inverse is missing has a power, and so a
            # product in its row, outside the set: report the first row
            first = els[int(np.argmin(products.all(axis=1)))]
            raise ValueError("subgroup not closed under %s" % (
                "multiplication" if self._mask[parent.inverse[first]] else "inverse"))
        self.order = len(els)
        self.index = parent.order // self.order
        self._as_group = None
        self._cosets = {}

    def __contains__(self, e):
        return 0 <= e < len(self._mask) and bool(self._mask[e])

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
        els = np.array(self.elements)
        n = self.order
        pos = np.zeros(G.order, dtype=np.int64)
        pos[els] = np.arange(n)
        # the first element of order n, else the first generating pair,
        # else every element
        orders = G.element_orders[els].tolist()
        gens = ([orders.index(n)] if n in orders else
                next((list(s) for s in itertools.combinations(range(n), 2)
                      if G._closure(els[list(s)]).sum() == n), None))
        H = FiniteGroup(
            pos[G.table[els[:, None], els]],
            labels=[G.labels[e] for e in self.elements],
            generators=gens,
            name="%s_sub%d" % (G.name, self.order),
        )
        self._as_group = (H, self.elements)
        return self._as_group

    def conjugate(self, g):
        G = self.parent
        return Subgroup(G, G.table[G.table[g, list(self.elements)], G.inverse[g]])

    def cosets(self, right=False):
        """(reps, coset_of) for the left cosets gH, or the right cosets Hg
        when right: reps holds the least element of each coset in increasing
        order and coset_of[g] the place in reps of g's coset.  Cached."""
        if right not in self._cosets:
            t, els = self.parent.table, list(self.elements)
            self._cosets[right] = _classes(t[els, :].min(axis=0) if right
                                           else t[:, els].min(axis=1))
        return self._cosets[right]

    def __repr__(self):
        return "Subgroup(order=%d, elements=%s)" % (self.order, list(self.elements))


def _classes(least):
    """(reps, class_of) of a partition of G given by the least element of
    each element's class: the reps in increasing order, and the place in
    reps of each element's class."""
    first = least == np.arange(len(least))
    reps, class_of = np.flatnonzero(first), (np.cumsum(first) - 1)[least]
    reps.setflags(write=False)
    class_of.setflags(write=False)
    return reps, class_of


def double_coset_index(G, K, H):
    """(reps, double_of) for K\\G/H: reps holds the least element of each
    KgH in increasing order and double_of[g] the place in reps of KgH.
    The least element of KgH is the least of the left H-coset
    representatives of the kg."""
    reps, coset_of = H.cosets()
    return _classes(reps[coset_of[G.table[list(K.elements), :]]].min(axis=0))


def double_cosets(G, K, H):
    """K\\G/H decomposition: list of (representative, K ∩ rep·H·rep^{-1}).

    Representatives are the least elements of their double cosets.
    """
    reps, _ = double_coset_index(G, K, H)
    # g H g^{-1} for every representative g, marked in one mask, then met with K
    conj = G.table[G.table[reps[:, None], list(H.elements)], G.inverse[reps][:, None]]
    masks = np.zeros((len(reps), G.order), dtype=bool)
    masks[np.arange(len(reps))[:, None], conj] = True
    masks &= K._mask
    return [(g, Subgroup(G, np.flatnonzero(m))) for g, m in zip(reps.tolist(), masks)]


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
