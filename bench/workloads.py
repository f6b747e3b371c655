"""The benchmark's workloads: fixed lists of queries against chowtwist's
public entry points, each with the check that decides whether its answer is
right.

A query is one ``cli.main`` call or one battery parameter task.  The seed
picks values only (cyclic-module blocks and unimodular base changes), never
sizes: every entry below fixes its group, its piece shapes and its rank, so
two seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np

from chowtwist import chow, cli, gmodules, lattices, verify
from chowtwist import cohomology as coh
from chowtwist.groups import group_by_name, make_cyclic, make_quaternion


class Query:
    """``run()`` returns the answer text; ``check(answer)`` returns
    (attempted, failed) for the checks that answer carries."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# query kinds


def count_checks(answer):
    """(attempted, failed) over a battery answer's ``ok`` flags."""
    checks = json.loads(answer)
    if not checks:  # a task that silently drops its checks fails
        return 1, 1
    return len(checks), sum(1 for c in checks if not c["ok"])


def battery(name, fn, *args):
    """A verification battery task; every check's ``ok`` flag counts."""
    return Query(name, lambda: json.dumps(fn(*args), sort_keys=True),
                 count_checks)


def transfer_generation(name, group, module):
    """``chow.transfer_generation_check`` as a one-check battery task."""
    def run():
        return json.dumps([{"name": name, "ok": bool(
            chow.transfer_generation_check(group, module, 1)["generated"])}])

    return Query(name, run, count_checks)


def cli_query(argv, expected):
    """A ``cli.main`` call with stdout captured; it must exit 0 and print
    ``expected`` byte for byte.  ``expected`` may be a callable oracle,
    evaluated once, outside the timed region."""
    cache = []

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return "exit %s\n%s%s" % (rc, out.getvalue(), err.getvalue())

    def check(answer):
        if not cache:
            cache.append(expected() if callable(expected) else expected)
        return 1, int(answer != "exit 0\n" + cache[0])

    return Query("chowtwist " + " ".join(argv), run, check)


def resolution(name, module):
    """A coflasque resolution, checked by ``res.check()`` (exactness,
    fixed-point surjectivity, coflasque kernel) and by rank additivity."""
    def run():
        res = lattices.coflasque_resolution(module)
        res.check()
        return json.dumps({"M": module.rank, "P": res.P.rank,
                           "pieces": len(res.pieces), "Q": res.Q.rank},
                          sort_keys=True)

    def check(answer):
        ranks = json.loads(answer)
        return 1, int(ranks["Q"] != ranks["P"] - ranks["M"])

    return Query(name, run, check)


def table(rows):
    """The CLI's two-column table for (degree, value) rows."""
    return "degree  value\n" + "".join("%-6d  %s\n" % r for r in rows)


# ---------------------------------------------------------------------------
# seeded modules: fixed shapes, seeded base changes


def unimodular(n, rng):
    """A seeded product of 2n elementary matrices and its exact inverse."""
    U = np.eye(n, dtype=np.int64)
    Uinv = np.eye(n, dtype=np.int64)
    for _ in range(2 * n if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        s = rng.choice((1, -1))
        E = np.eye(n, dtype=np.int64)
        E[i, j] = s
        U = U @ E
        E[i, j] = -s
        Uinv = E @ Uinv
    return U, Uinv


def _piece(G, kind):
    if kind == "aug":
        return gmodules.make_augmentation_quotient(G)
    if kind == "ideal":
        return gmodules.augmentation_ideal(G)
    if kind == "sign":
        return gmodules.make_sign_cyclic(G)
    order = int(kind[len("perm"):])  # permutation module Z[G/H], |H| = order
    H = next(S for S in G.subgroups() if S.order == order)
    return gmodules.make_permutation(G, H)


def seeded_lattice(G, kinds, rng, p=None):
    """Direct sum of the named pieces in a seeded basis (reduced mod p if
    given).  The shape fixes the rank; the seed picks only the basis."""
    M = _piece(G, kinds[0])
    for kind in kinds[1:]:
        M = M.direct_sum(_piece(G, kind))
    U, Uinv = unimodular(M.rank, rng)
    gens = {g: U @ M.act(g) @ Uinv for g in G.generators}
    name = "%s:%s" % (G.name, "+".join(kinds))
    return gmodules.GModule(G, "F%d" % p if p else "Z", M.rank, gens,
                            check=True, name=name)


def write_module(workdir, M, tag):
    """Save a seeded module where the CLI can read it; see remove_modules."""
    path = os.path.join(workdir, "module-%d-%s.json" % (os.getpid(), tag))
    with open(path, "w") as fh:
        json.dump(M.to_json(), fh)
    return path


def remove_modules(workdir):
    """Delete the module files this process wrote."""
    prefix = "module-%d-" % os.getpid()
    for name in os.listdir(workdir):
        if name.startswith(prefix):
            os.remove(os.path.join(workdir, name))


# ---------------------------------------------------------------------------
# workloads

CYCLIC_ORDERS = range(2, 10)
SEEDED_TATE = ((3, 3), (4, 3), (6, 3))  # (cyclic order, module rank)
TATE_DEGREES = (-2, 2)


def tate_oracle(G, M, lo, hi):
    """Tate groups of a cyclic group from the 2-periodic resolution."""
    return table((i, coh.cyclic_cohomology(G, M, 2 if i % 2 == 0 else 1).structure)
                 for i in range(lo, hi + 1))


def integral(seed, workdir):
    rng = random.Random(seed)
    qs = [battery("cyclic_checks(%d)" % m, verify.cyclic_checks, m,
                  rng.randrange(2 ** 31)) for m in CYCLIC_ORDERS]
    qs.append(battery("battery_quaternion", verify.battery_quaternion))
    qs += [
        cli_query(["cohomology", "--group", "Q8", "--module", "omega2Z",
                   "--degree", "2"], table([(2, "Z/8")])),
        cli_query(["cohomology", "--group", "C6", "--module", "regular",
                   "--degree", "3"], table([(3, "0")])),
        cli_query(["twisted-chow", "--group", "C6", "--module", "trivialZ",
                   "--degree", "2"], table([(2, "Z/6")])),
        cli_query(["twisted-chow", "--group", "Q8", "--module", "omega2Z",
                   "--degree", "1", "--show-exponent"],
                  "degree  value  exponent\n1       Z/4           exponent | 4\n"),
        cli_query(["twisted-chow", "--group", "Q16", "--module", "trivialZ",
                   "--degree", "1..3", "--oracle"],
                  table([(1, "Z/2 + Z/2"), (2, "Z/16"), (3, "Z/2 + Z/2")])),
        cli_query(["tate", "--group", "C4", "--module", "trivialZ",
                   "--degree=-2..2"],
                  table((i, "0" if i % 2 else "Z/4") for i in range(-2, 3))),
        cli_query(["tate", "--group", "Q8", "--module", "trivialZ",
                   "--degree=-3..2"],
                  table([(-3, "0"), (-2, "Z/2 + Z/2"), (-1, "0"), (0, "Z/8"),
                         (1, "0"), (2, "Z/2 + Z/2")])),
    ]
    lo, hi = TATE_DEGREES
    for order, rank in SEEDED_TATE:
        G = make_cyclic(order)
        M = gmodules.random_cyclic_module(G, rank, rng)
        path = write_module(workdir, M, "C%d" % order)
        qs.append(cli_query(["tate", "--group", "C%d" % order, "--module", path,
                             "--degree=%d..%d" % (lo, hi)],
                            lambda G=G, M=M: tate_oracle(G, M, lo, hi)))
    return qs


REGULARITY_MS = range(2, 6)
KLEIN_MS = range(1, 6)


def mod2(seed, workdir):
    # The tails of the klein and regularity batteries run through the
    # battery functions with a one-element parameter list, never through
    # verify.run_battery: its tail passes ms=[] and `ms or range(..)`
    # reruns the whole battery.
    qs = [battery("regularity_checks(%d)" % m, verify.regularity_checks, m)
          for m in REGULARITY_MS[:-1]]
    qs.append(battery("battery_regularity([%d])" % REGULARITY_MS[-1],
                      verify.battery_regularity, [REGULARITY_MS[-1]]))
    qs += [battery("klein_checks(%d)" % m, verify.klein_checks, m)
           for m in KLEIN_MS[:-1]]
    qs.append(battery("battery_klein([%d])" % KLEIN_MS[-1],
                      verify.battery_klein, [KLEIN_MS[-1]]))
    graded_omega3 = (
        "index  count  degrees\n0      4      0 0 0 0\n1      2      1 1\n\n"
        "degree  dim\n" + "".join("%-6d  %d\n" % (d, 4 + 2 * d) for d in range(10))
        + "\nregularity: 0\nalternating-sum identity: ok\n")
    qs += [
        cli_query(["cohomology", "--group", "klein4", "--module", "trivialF2",
                   "--degree", "5"], table([(5, "dim 6")])),
        cli_query(["cohomology", "--group", "Q8", "--module", "trivialF2",
                   "--degree", "3"], table([(3, "dim 1")])),
        cli_query(["cohomology", "--group", "C3", "--module", "trivialF3",
                   "--degree", "8"], table([(8, "dim 1")])),
        cli_query(["twisted-chow", "--group", "klein4", "--module", "omega:-4",
                   "--degree", "1"], table([(1, "dim 7")])),
        cli_query(["graded", "--group", "klein4", "--module", "omega:-3"],
                  graded_omega3),
        cli_query(["twisted-motivic", "--group", "klein4", "--module", "omega:-2",
                   "--degree", "1"], "degree  motivic  chow\n1       6        5\n"),
    ]
    return qs


COUNTEREXAMPLE_MS = range(2, 4)
COFLASQUE_MS = range(2, 7)
# (group, pieces): fixed shapes for the seeded coflasque resolutions
LATTICE_SHAPES = (
    ("C2", ("sign", "perm1")),
    ("C3", ("aug", "perm1")),
    ("C4", ("aug", "sign")),
    ("C5", ("aug",)),
    ("C6", ("aug", "perm2")),
    ("C7", ("ideal",)),
    ("C8", ("aug", "perm4")),
    ("Klein4", ("aug", "perm2")),
    ("Q8", ("aug",)),
)


def lattice(seed, workdir):
    rng = random.Random(seed)
    qs = [battery("counterexample_checks(%d)" % m, verify.counterexample_checks, m)
          for m in COUNTEREXAMPLE_MS]
    qs += [battery("coflasque_checks(%d)" % m, verify.coflasque_checks, m)
           for m in COFLASQUE_MS]
    for gname, kinds in LATTICE_SHAPES:
        M = seeded_lattice(group_by_name(gname), kinds, rng)
        qs.append(resolution("coflasque_resolution(%s)" % M.name, M))
    qs.append(cli_query(
        ["coflasque", "--group", "C4", "--module", "sign", "--resolve"],
        "coflasque: no\nwitness: H^1 = Z/2 at a subgroup of order 4\n"
        "resolution: P rank 6 (2 pieces), Q rank 5, checks pass\n"))
    return qs


# pieces of the seeded F_2 modules over Klein4 that get the cor o res
# checks through degree 4, where the transfer outweighs fp.rref; free
# pieces are left out, as they move the work into fp.rref
TRANSFER_SHAPES = (("aug",), ("perm2",), ("aug", "perm4"))
TRANSFER_DEGREE = 4


def transfer(seed, workdir):
    rng = random.Random(seed)
    K4, Q8 = gmodules.make_klein4(), make_quaternion(3)
    klein_mods = [gmodules.make_trivial(K4, "F2"), gmodules.omega_negative_klein(2)]
    q8_triv = gmodules.make_trivial(Q8, "F2")
    qs = [battery("cor_res_checks(Klein4, %s)" % M.name, verify.cor_res_checks,
                  K4, [M], 3) for M in klein_mods]
    qs.append(battery("cor_res_checks(Q8, triv)", verify.cor_res_checks,
                      Q8, [q8_triv], 2))
    qs.append(battery("double_coset_checks(Q8, triv)",
                      verify.double_coset_checks, Q8, [q8_triv], 2))
    for kinds in TRANSFER_SHAPES:
        M = seeded_lattice(K4, kinds, rng, p=2)
        qs.append(battery("cor_res_checks(%s)" % M.name, verify.cor_res_checks,
                          K4, [M], TRANSFER_DEGREE))
    cases = []
    for m in (4, 6):
        G = make_cyclic(m)
        cases += [(G, gmodules.make_trivial(G)), (G, gmodules.make_sign_cyclic(G))]
    cases += [(K4, M) for M in klein_mods]
    cases.append((Q8, gmodules.make_omega2_trivial(Q8)))
    qs += [transfer_generation("transfer_generation_check(%s, %s)"
                               % (G.name, M.name), G, M) for G, M in cases]
    return qs


WORKLOADS = {"integral": integral, "mod2": mod2, "lattice": lattice,
             "transfer": transfer}


def build(name, seed, workdir):
    """The workload's queries; seeded modules the CLI reads go to workdir."""
    return WORKLOADS[name](seed, workdir)
