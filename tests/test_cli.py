import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from chowtwist import cli
from chowtwist.groups import FiniteGroup, group_by_name, make_cyclic

from conftest import metacyclic, relabel


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _readme_cli_lines():
    """The chowtwist lines of the README's CLI example block."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("chowtwist ")]


def test_readme_cli_examples(capsys):
    # each example exits 0 and prints the value its comment promises
    lines = _readme_cli_lines()
    assert len(lines) == 11
    for line in lines:
        cmd, _, want = line.partition("#")
        code, out = run(capsys, shlex.split(cmd)[1:])
        assert code == 0, line
        assert want.strip() in out, line
    promised = [line.partition("#")[2].strip() for line in lines]
    assert [want for want in promised if want] == ["Z/8", "dim 6", "Z/6", "dim 7"]


def test_cohomology_q8_omega2(capsys):
    code, out = run(capsys, ["cohomology", "--group", "Q8",
                             "--module", "omega2Z", "--degree", "2"])
    assert code == 0
    assert "Z/8" in out


def test_q16_omega2_odd_degree(capsys):
    # the transfer image from <x>, <y>, <xy> is the index-2 subgroup of
    # H^2 = Z/16; two modular invariant-factor calls, about 1.5 s
    code, out = run(capsys, ["twisted-chow", "--group", "Q16",
                             "--module", "omega2Z", "--degree", "1"])
    assert code == 0
    assert out == "degree  value\n1       Z/8\n"


def test_cohomology_klein_trivial_f2(capsys):
    code, out = run(capsys, ["cohomology", "--group", "klein4",
                             "--module", "trivialF2", "--degree", "5"])
    assert code == 0
    assert "dim 6" in out


def test_cohomology_trivial_group(capsys):
    code, out = run(capsys, ["cohomology", "--group", "C1",
                             "--module", "trivialZ", "--degree", "3"])
    assert code == 0
    assert "0" in out


def test_tate_negative_range(capsys):
    code, out = run(capsys, ["tate", "--group", "C4",
                             "--module", "trivialZ", "--degree=-2..2"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l and not l.startswith("degree")]
    assert len(lines) == 5
    # JSON labels each result with its Tate degree, also below -1
    code, out = run(capsys, ["tate", "--group", "C4", "--module", "trivialZ",
                             "--degree=-3..3", "--format", "json"])
    assert code == 0
    assert [r["degree"] for r in json.loads(out)["results"]] == list(range(-3, 4))


def test_twisted_chow_klein_omega(capsys):
    code, out = run(capsys, ["twisted-chow", "--group", "klein4",
                             "--module", "omega:-4", "--degree", "1"])
    assert code == 0
    assert "dim 7" in out


def test_twisted_chow_cyclic_trivial(capsys):
    code, out = run(capsys, ["twisted-chow", "--group", "C6",
                             "--module", "trivialZ", "--degree", "2"])
    assert code == 0
    assert "Z/6" in out


def test_twisted_chow_show_exponent(capsys):
    code, out = run(capsys, ["twisted-chow", "--group", "Q8", "--module",
                             "omega2Z", "--degree", "1", "--show-exponent"])
    assert code == 0
    assert "exponent | 4" in out


def test_twisted_chow_with_oracle_json(capsys):
    code, out = run(capsys, ["twisted-chow", "--group", "C4", "--module",
                             "sign", "--degree", "1..2", "--oracle",
                             "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "C4"
    for entry in data["results"]:
        assert entry["oracle"] == entry["value"]


def test_json_deterministic(capsys):
    argv = ["cohomology", "--group", "klein4", "--module", "omega:-2",
            "--degree", "0..3", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_twisted_motivic(capsys):
    code, out = run(capsys, ["twisted-motivic", "--group", "klein4",
                             "--module", "omega:-2", "--degree", "1"])
    assert code == 0
    # motivic 2m+2 = 6 next to chow m+3 = 5 at m = 2
    assert "6" in out and "5" in out


def test_coflasque_predicate_and_resolve(capsys):
    code, out = run(capsys, ["coflasque", "--group", "C4", "--module", "sign"])
    assert code == 0
    assert "False" in out or "no" in out.lower()
    code, out = run(capsys, ["coflasque", "--group", "C4", "--module", "sign",
                             "--resolve"])
    assert code == 0
    # the full resolution's line, as the README shows it
    assert out == ("coflasque: no\nwitness: H^1 = Z/2 at a subgroup of order 4\n"
                   "resolution: P rank 6 (2 pieces), Q rank 5, checks pass\n")


@pytest.mark.parametrize("group, module, line", [
    ("C4", "sign", "P rank 2 (1 pieces), Q rank 1"),
    ("Q8", "ZG/Z", "P rank 18 (5 pieces), Q rank 11"),
    ("Klein4", "omega2Z", "P rank 8 (5 pieces), Q rank 3"),
])
def test_coflasque_greedy_resolution(capsys, group, module, line):
    code, out = run(capsys, ["coflasque", "--group", group, "--module", module,
                             "--resolve", "--prune"])
    assert code == 0
    assert out.splitlines()[-1] == "resolution: %s, checks pass" % line


def _graded_table(betti, dims):
    lines = ["index  count  degrees"]
    lines += ["%-5d  %-5d  %s" % (k, len(d), " ".join(map(str, d)))
              for k, d in enumerate(betti)]
    lines += ["", "degree  dim"] + ["%-6d  %d" % (d, h) for d, h in enumerate(dims)]
    return "\n".join(lines + ["", "regularity: 0", "alternating-sum identity: ok", ""])


def _graded_json(module, betti, dims, relations):
    """Payload of `graded` for generators in degree 0 and relations in
    degree 1, each relation a list of (generator, u, v) with coefficient 1."""
    rels = [{"degree": 1, "entries": [{"coeff": 1, "generator": i, "u": a, "v": b}
                                      for i, a, b in r]} for r in relations]
    return {"betti": {"horizon": len(dims) - 1,
                      "levels": [{"degrees": d, "index": k} for k, d in enumerate(betti)]},
            "command": "graded", "euler_identity": True, "group": "Klein4",
            "hilbert": {"dims": dims}, "module": module,
            "presentation": {"base": "F2[u,v]", "dims": dims,
                             "generators": [{"degree": 0, "index": i}
                                            for i in range(len(betti[0]))],
                             "relations": rels},
            "regularity": 0}


GRADED_CASES = [
    ("omega:-3", "OmegaNeg3", [[0] * 4, [1, 1]], [4 + 2 * d for d in range(10)],
     [[(0, 1, 0), (2, 0, 1)], [(1, 1, 0), (3, 0, 1)]]),
    ("omega:2", "Omega(Omega(triv))", [[0, 0], [1] * 4, [2, 2]], [2] + [0] * 8,
     [[(0, 1, 0)], [(0, 0, 1)], [(1, 1, 0)], [(1, 0, 1)]]),
    ("l_zeta:x:2", "L_zeta^2", [[0, 0], [1, 1]], [2] * 8,
     [[(0, 1, 0)], [(1, 1, 0)]]),
]


def test_graded_command(capsys):
    for module, name, betti, dims, relations in GRADED_CASES:
        argv = ["graded", "--group", "klein4", "--module", module]
        code, out = run(capsys, argv)
        assert code == 0
        assert out == _graded_table(betti, dims)
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0
        expected = _graded_json(name, betti, dims, relations)
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_verify_regularity(capsys):
    code, out = run(capsys, ["verify", "regularity", "--m", "2..3"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_alias(capsys):
    code, out = run(capsys, ["verify-paper", "coflasque", "--m", "2"])
    assert code == 0
    assert "PASS" in out


def test_parse_error_exit_2(capsys):
    assert cli.main(["twisted-chow", "--group", "C4",
                     "--module", "nonsense", "--degree", "1"]) == cli.EXIT_PARSE
    assert cli.main(["cohomology", "--group", "/does/not/exist.json",
                     "--module", "trivialZ", "--degree", "1"]) == cli.EXIT_PARSE
    assert cli.main(["cohomology", "--group", "C4", "--module", "trivialZ",
                     "--degree", "2..1"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("defect", ["truncated", "generator_index"])
def test_malformed_group_file_exit_2(defect, tmp_path, capsys):
    from chowtwist.groups import make_cyclic
    desc = make_cyclic(4).to_json()
    if defect == "truncated":
        text = json.dumps(desc)[:40]
    else:
        text = json.dumps(dict(desc, generators=[99]))
    path = tmp_path / "c4.json"
    path.write_text(text)
    assert cli.main(["cohomology", "--group", str(path), "--module", "trivialZ",
                     "--degree", "1"]) == cli.EXIT_PARSE
    assert "malformed group file" in capsys.readouterr().err


# a C4 sign-module file with its action replaced, and what stderr names
_BAD_ACTIONS = {
    "wrong_shape": (lambda lab: {lab: [[1, 0], [0, 1]]}, "wrong shape"),
    "unknown_generator": (lambda lab: {"nonesuch": [[-1]]}, "KeyError"),
    "entry_past_int64": (lambda lab: {lab: [[1 << 70]]}, "OverflowError"),
}


@pytest.mark.parametrize("defect", sorted(_BAD_ACTIONS))
def test_malformed_module_file_exit_2(defect, tmp_path, capsys):
    from chowtwist import gmodules as gm
    from chowtwist.groups import make_cyclic
    action, message = _BAD_ACTIONS[defect]
    desc = gm.make_sign_cyclic(make_cyclic(4)).to_json()
    (lab,) = desc["action"]
    desc["action"] = action(lab)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert cli.main(["cohomology", "--group", "C4", "--module", str(path),
                     "--degree", "1"]) == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("indices", ["99", "-1"])
def test_permutation_index_outside_the_group_exit_2(indices, capsys):
    assert cli.main(["coflasque", "--group", "C4",
                     "--module", "permutation:" + indices]) == cli.EXIT_PARSE
    assert "element index outside 0..3" in capsys.readouterr().err


def test_resource_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("CHOWTWIST_MAX_CELLS", "50")
    code = cli.main(["cohomology", "--group", "C6", "--module", "regular",
                     "--degree", "3"])
    out = capsys.readouterr().out + capsys.readouterr().err
    assert code == cli.EXIT_CAP


def test_verification_error_exit_1(capsys, monkeypatch):
    from chowtwist import lattices
    from chowtwist.errors import VerificationError

    def fail(self):
        raise VerificationError("tampered")

    monkeypatch.setattr(lattices.CoflasqueResolution, "check", fail)
    code = cli.main(["coflasque", "--group", "C4", "--module", "sign", "--resolve"])
    assert code == cli.EXIT_MISMATCH
    assert "verification failed: tampered" in capsys.readouterr().err


# a closed form that is wrong: the oracle comparison must exit 1
_TAMPER = ("from chowtwist import cli, gmodules\n"
           "gmodules.GModule.trace_quotient = "
           "lambda self: gmodules.FiniteAbelianGroup([97], 0)\n")
_Q16_ORACLE = ["twisted-chow", "--group", "Q16", "--module", "trivialZ",
               "--degree", "2", "--oracle"]


def test_oracle_catches_wrong_closed_form(capsys, monkeypatch):
    from chowtwist import gmodules
    monkeypatch.setattr(gmodules.GModule, "trace_quotient",
                        lambda self: gmodules.FiniteAbelianGroup([97], 0))
    assert cli.main(_Q16_ORACLE) == cli.EXIT_MISMATCH
    assert "disagrees with oracle" in capsys.readouterr().err


def test_oracle_check_survives_optimize():
    code = _TAMPER + "raise SystemExit(cli.main(%r))\n" % (_Q16_ORACLE,)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == cli.EXIT_MISMATCH, out.stderr
    assert "verification failed" in out.stderr


def test_unsupported_family_exit_4(tmp_path, capsys):
    import itertools

    from chowtwist.groups import FiniteGroup
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    S3 = FiniteGroup(table, name="S3")
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3.to_json()))
    code = cli.main(["twisted-chow", "--group", str(path),
                     "--module", "trivialZ", "--degree", "1"])
    assert code == cli.EXIT_FAMILY


def test_module_from_json_file(tmp_path, capsys):
    from chowtwist import gmodules as gm
    from chowtwist.groups import make_cyclic
    G = make_cyclic(4)
    path = tmp_path / "triv.json"
    path.write_text(json.dumps(gm.make_trivial(G).to_json()))
    code, out = run(capsys, ["twisted-chow", "--group", "C4",
                             "--module", str(path), "--degree", "1"])
    assert code == 0
    assert "Z/4" in out


def test_max_degree_flag(capsys):
    code = cli.main(["twisted-chow", "--group", "C4", "--module", "trivialZ",
                     "--degree", "5"])
    assert code == cli.EXIT_PARSE  # beyond the default --max-degree 3
    code2, out = run(capsys, ["twisted-chow", "--group", "C4", "--module",
                              "trivialZ", "--degree", "5", "--max-degree", "6"])
    assert code2 == 0


# built-in group, seed of the relabelling, degree ranges per module; odd
# degrees of augmentation and omega2Z over Q16 take about 0.5 and 1 s each
# on a 2-core box, nearly all in modular invariant factors of delta_1, so
# there only degree 1 stands for them (odd answers do not depend on the
# degree)
_ALL = {"trivialZ": ["0..3"], "augmentation": ["0..3"], "omega2Z": ["0..3"]}
_RELABEL_CASES = [
    ("Q8", 3, _ALL),
    ("Q16", 4, {"trivialZ": ["0..3"], "augmentation": ["0..2"],
                "omega2Z": ["0..2"]}),
    ("C6", 6, _ALL),
    ("C8", 8, _ALL),
]


def _relabelled(name, seed):
    G = group_by_name(name)
    n = G.order
    return relabel(G, [0] + random.Random(seed).sample(range(1, n), n - 1))


def _save_group(tmp_path, G, stem):
    path = tmp_path / (stem + ".json")
    path.write_text(json.dumps(G.to_json()))
    return str(path)


@pytest.mark.parametrize("name,seed,modules", _RELABEL_CASES,
                         ids=[c[0] for c in _RELABEL_CASES])
def test_relabelled_group_gives_the_same_chow_groups(tmp_path, capsys, name, seed,
                                                     modules):
    path = _save_group(tmp_path, _relabelled(name, seed), name)
    for module, ranges in modules.items():
        for degrees in ranges:
            argv = ["--module", module, "--degree", degrees, "--format", "json"]
            want = run(capsys, ["twisted-chow", "--group", name] + argv)
            assert want[0] == 0
            assert run(capsys, ["twisted-chow", "--group", path] + argv) == want, module


@pytest.mark.parametrize("name,seed,modules", _RELABEL_CASES,
                         ids=[c[0] for c in _RELABEL_CASES])
def test_relabelled_group_gives_the_same_transfer_report(name, seed, modules):
    from chowtwist import chow
    from chowtwist import gmodules as gm
    G, H = group_by_name(name), _relabelled(name, seed)
    for make in (gm.make_trivial, gm.make_augmentation_quotient,
                 gm.make_omega2_trivial):
        assert (chow.transfer_generation_check(H, make(H), 1)
                == chow.transfer_generation_check(G, make(G), 1)), make.__name__


def test_dihedral_table_named_q8_is_refused(tmp_path, capsys):
    path = _save_group(tmp_path, metacyclic(4, -1, 0, "Q8"), "d8")
    code = cli.main(["twisted-chow", "--group", path, "--module", "trivialZ",
                     "--degree", "1"])
    assert code == cli.EXIT_FAMILY


def test_cyclic_table_named_klein4_is_cyclic(tmp_path, capsys):
    path = _save_group(tmp_path, FiniteGroup(make_cyclic(4).table, name="Klein4"),
                       "c4")
    code, out = run(capsys, ["twisted-chow", "--group", path,
                             "--module", "trivialF2", "--degree", "1"])
    assert code == 0
    assert out == "degree  value\n1       dim 1\n"
    for argv in (["twisted-chow", "--module", "omega:-2", "--degree", "1"],
                 ["twisted-motivic", "--module", "trivialF2"],
                 ["graded", "--module", "trivialF2"]):
        assert cli.main(argv + ["--group", path]) == cli.EXIT_FAMILY, argv[0]


def test_relabelled_q8_named_q8(tmp_path, capsys):
    # this relabelling moves x, y and xy off make_quaternion's indices
    path = _save_group(tmp_path, _relabelled("Q8", 3), "q8")
    code, out = run(capsys, ["twisted-chow", "--group", path,
                             "--module", "trivialZ", "--degree", "1"])
    assert code == 0
    assert out == "degree  value\n1       Z/2 + Z/2\n"


def test_cyclic_group_with_two_declared_generators(tmp_path, capsys):
    G = FiniteGroup(make_cyclic(6).table, generators=[2, 3], name="C6")
    path = _save_group(tmp_path, G, "c6")
    code, out = run(capsys, ["twisted-chow", "--group", path, "--module",
                             "trivialZ", "--degree", "1", "--oracle"])
    assert code == 0
    assert out == "degree  value\n1       Z/6\n"
    argv = ["--module", "sign", "--degree", "0..3", "--oracle"]
    got = run(capsys, ["twisted-chow", "--group", path] + argv)
    assert got == run(capsys, ["twisted-chow", "--group", "C6"] + argv)
    assert got[0] == 0


@pytest.mark.parametrize("group,code", [("klein4", cli.EXIT_FAMILY),
                                        ("Q8", cli.EXIT_FAMILY),
                                        ("C5", cli.EXIT_PARSE)])
def test_sign_module_exit_codes(capsys, group, code):
    assert cli.main(["twisted-chow", "--group", group, "--module", "sign",
                     "--degree", "1"]) == code
    assert "Traceback" not in capsys.readouterr().err
