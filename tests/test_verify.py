import ast
import concurrent.futures
import os
import subprocess
import sys

import pytest

from chowtwist import gmodules, verify


def test_klein_tail_runs_once():
    # klein_checks(1) gives 4 checks, the parameter-free tail 7 more
    assert len(verify.run_battery("klein", params=[1])) == 11
    assert verify.battery_klein(ms=[]) == verify.run_battery("klein", params=[])


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created = []

    def __init__(self, max_workers):
        _SerialPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


def test_jobs_clamped_to_cpus_and_params(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.created = []
    expected = verify.battery_klein(ms=[1, 2, 3])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    assert _SerialPool.created == [3, 2]


def test_cyclic_oracle_independent_of_closed_form(monkeypatch):
    # the periodic oracle must not share the closed form's trace quotient
    monkeypatch.setattr(gmodules.GModule, "trace_quotient",
                        lambda self: gmodules.FiniteAbelianGroup([97], 0))
    periodic = [c for c in verify.cyclic_checks(4) if "vs periodic" in c["name"]]
    assert len(periodic) == 15
    assert not any(c["ok"] for c in periodic)


# One tamper per VerificationError check that had no python -O test: each
# snippet makes the named check fire, and -O must not strip it.  The leading
# assert proves the snippet runs optimised.
_TAMPERS = {
    "mackey_equivariance": (
        "from chowtwist import chow, gmodules as gm\n"
        "from chowtwist.groups import make_klein4\n"
        "G = make_klein4()\n"
        "# Z[G] -> Z[G/1] sending the generator to one coset only\n"
        "psi = np.array([[1], [0], [0], [0]])\n"
        "chow.twisted_motivic_klein(gm.make_trivial(G, 'F2'), 1, resolutions=(\n"
        "    [G.trivial_subgroup()], [G.full_subgroup()], psi))\n",
        "map is not equivariant on a K-orbit"),
    "motivic_vs_chow": (
        "from chowtwist import chow, gmodules as gm\n"
        "from chowtwist.groups import make_klein4\n"
        "# no pieces at all: the motivic value 0 is below CH^1\n"
        "chow.twisted_motivic_klein(gm.make_trivial(make_klein4(), 'F2'), 1,\n"
        "                           resolutions=([], [], np.zeros((0, 0), int)))\n",
        "motivic value smaller than the Chow image"),
    "motivic_resolution": (
        "from chowtwist import chow, gmodules as gm, lattices\n"
        "# the greedy build believes every fixed-point map onto after one piece\n"
        "lattices._orbit_sums = lambda M, S, w, T: np.eye(M.rank, dtype=int).tolist()\n"
        "chow.twisted_motivic_klein(gm.omega_negative_klein(2), 1)\n",
        "fixed points not surjective for subgroup of order 1"),
    "hilbert_table": (
        "from chowtwist import graded, gmodules as gm\n"
        "from chowtwist.groups import make_klein4\n"
        "P = graded.klein_chow_presentation(gm.make_trivial(make_klein4(), 'F2'), 4)\n"
        "P.dims[2] += 1\n"
        "graded.hilbert_series(P)\n",
        "presentation disagrees with the dimension table"),
    "transfer_not_cocycle": (
        "from chowtwist import chow, cohomology as coh, gmodules as gm\n"
        "from chowtwist.groups import make_quaternion\n"
        "# every transfer picks up a cochain outside ker delta_2\n"
        "cor = coh.corestriction_cochain\n"
        "def bent(*args):\n"
        "    z = cor(*args).copy()\n"
        "    z[0] += 1\n"
        "    return z\n"
        "coh.corestriction_cochain = bent\n"
        "G = make_quaternion(3)\n"
        "chow.twisted_chow_quaternion(G, gm.make_trivial(G), 1)\n",
        "a transfer is not a cocycle"),
    "counterexample_span": (
        "from chowtwist import intlin, lattices\n"
        "# a kernel mod 2 that holds f_1, which S does not kill\n"
        "intlin.kernel_mod = lambda rows, moduli: [[1] + [0] * (len(rows[0]) - 1)]\n"
        "lattices.counterexample_lattices(2)\n",
        "stated basis does not span the kernel"),
    "delta_squared_float_bound": (
        "from chowtwist import cohomology as coh, verify\n"
        "# coboundaries whose float64 product could round\n"
        "coh.BarComplex.delta_matrix = lambda self, n: np.full((2, 2), 2 ** 30)\n"
        "verify.battery_delta_squared(2)\n",
        "delta^2 product is not exact in float64"),
}


@pytest.mark.parametrize("check", sorted(_TAMPERS))
def test_verification_check_survives_optimize(check):
    snippet, message = _TAMPERS[check]
    code = "assert False, 'not optimised'\nimport numpy as np\n" + snippet
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    last = out.stderr.strip().splitlines()[-1] if out.stderr.strip() else ""
    assert last.startswith("chowtwist.errors.VerificationError: " + message), out.stderr


def _package_trees():
    """(file name, parsed AST) of each module of src/chowtwist."""
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "chowtwist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_assert_statements_in_the_package():
    """Checks must survive python -O, which strips every assert."""
    found = []
    for name, tree in _package_trees():
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/chowtwist: " + ", ".join(found)


def _is_name_attribute(node):
    return isinstance(node, ast.Attribute) and node.attr == "name"


def test_no_dispatch_on_names_in_the_package():
    """Families come from FiniteGroup.family(), never from what a group or a
    module is called: no comparison with a .name attribute and no
    .name.startswith(...)."""
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                bad = any(map(_is_name_attribute, [node.left] + node.comparators))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bad = node.func.attr == "startswith" and _is_name_attribute(node.func.value)
            else:
                bad = False
            if bad:
                found.append("%s:%d" % (name, node.lineno))
    assert not found, "dispatch on .name in src/chowtwist: " + ", ".join(found)
