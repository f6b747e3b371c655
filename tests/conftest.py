import itertools

import numpy as np
import pytest

from chowtwist import cohomology as coh
from chowtwist.gmodules import GModule
from chowtwist.groups import FiniteGroup


def change_ring_mod(M, p):
    """Reduction M/pM of an integral module."""
    if M.p is not None:
        raise ValueError("reduction mod p needs an integral module")
    gens = {g: M.act(g) % p for g in M.group.generators}
    return GModule(M.group, "F%d" % p, M.rank, gens, check=False,
                   name=M.name + " mod %d" % p)


def p_rank(A, p):
    """The number of invariant factors of A divisible by p."""
    return sum(1 for d in A.invariant_factors if d % p == 0)


def characters(G):
    """Every character chi : G -> Q/Z as the tuple |G| chi: the group that
    coh.character_generators(G) generates, ordered by the values on the
    declared generators, so the trivial character comes first."""
    n = G.order
    out = {(0,) * n}
    for x in coh.character_generators(G):
        out |= {tuple(int(v) for v in (np.array(y) + k * x) % n)
                for y in out for k in range(n)}
    return sorted(out, key=lambda x: [x[g] for g in G.generators])


def metacyclic(n, r, t, name):
    """<x, y | x^n, y^2 = x^t, y x y^-1 = x^r> with x^a y^b at index
    a + b*n: D_2n is (n, -1, 0), SD16 (8, 3, 0), Q_2n (n, -1, n/2) and
    C_n x C_2 (n, 1, 0)."""

    def mul(i, j):
        a1, b1, a2, b2 = i % n, i // n, j % n, j // n
        a = a1 + (a2 * r if b1 else a2) + (t if b1 and b2 else 0)
        return a % n + ((b1 + b2) % 2) * n

    return FiniteGroup([[mul(i, j) for j in range(2 * n)] for i in range(2 * n)],
                       name=name)


def abelian(orders, name):
    """The direct product of the cyclic groups of the given orders, in
    mixed radix (the first factor varies fastest)."""
    elements = [e[::-1] for e in itertools.product(*[range(k) for k in orders[::-1]])]
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[tuple((x + y) % k for x, y, k in zip(a, b, orders))]
              for b in elements] for a in elements]
    return FiniteGroup(table, name=name)


def relabel(G, perm):
    """G with element a renamed perm[a]; perm[0] must be 0."""
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return FiniteGroup(table, generators=[perm[g] for g in G.generators],
                       name=G.name)


_CRITERION_LINES = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert."""

    def rec(name, ok, detail=""):
        line = ("PASS " if ok else "FAIL ") + name
        if detail and not ok:
            line += " -- " + detail
        _CRITERION_LINES.append(line)
        assert ok, name + (": " + detail if detail else "")

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
