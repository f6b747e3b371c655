"""Command-line interface.

Verbs: cohomology, tate, twisted-chow, twisted-motivic, coflasque, graded,
verify.  Groups are named (C<m>, Klein4, Q<2^k>) or loaded from JSON;
modules come from a set of named constructors or JSON.  All output is
deterministic: identical invocations produce byte-identical bytes.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage error,
3 resource cap exceeded, 4 unsupported group family.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chow, graded, verify
from . import cohomology as coh
from .errors import (ChowtwistError, HorizonError, ResourceCapError,
                     SizePolicyError, UnsupportedFamilyError, VerificationError)
from .gmodules import (GModule, l_zeta_klein, make_augmentation_quotient,
                       make_omega2_trivial, make_permutation, make_regular,
                       make_sign_cyclic, make_trivial, omega_klein,
                       omega_negative_klein)
from .groups import FiniteGroup, group_by_name
from .lattices import coflasque_resolution, counterexample_lattices, is_coflasque

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_FAMILY = 4


class ParseError(ChowtwistError):
    pass


# what reading a malformed input file or subgroup raises (OverflowError for
# an entry past int64); ChowtwistError subclasses are not among them and
# keep their own exit codes
_BAD_INPUT = (ValueError, KeyError, TypeError, OverflowError)


def _read_file(path, what, parse):
    """parse(text) of a file named on the command line; a file that cannot
    be read or parsed is a ParseError."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError("cannot read %s file: %s" % (what, exc))
    except _BAD_INPUT as exc:
        raise ParseError("malformed %s file %s: %s: %s"
                         % (what, path, type(exc).__name__, exc))


def parse_group(spec):
    if spec.endswith(".json") or os.path.sep in spec:
        return _read_file(spec, "group", FiniteGroup.from_json)
    try:
        return group_by_name(spec)
    except SizePolicyError as exc:
        raise ParseError(str(exc))


ZETA_NAMES = {"x": (1, 0), "y": (0, 1), "x+y": (1, 1), "y+x": (1, 1)}
SUBGROUP_NAMES = {"1": [], "g": [1], "h": [2], "gh": [3]}


def parse_module(group, spec):
    """A module from a JSON file or a named constructor; a constructor that
    rejects the group with a ValueError is a ParseError."""
    name = spec.strip()
    if name.endswith(".json"):
        return _read_file(name, "module",
                          lambda text: GModule.from_json(text, group))
    try:
        return _named_module(group, name)
    except ValueError as exc:
        raise ParseError("cannot build %s over %s: %s" % (name, group.name, exc))


def _named_module(group, name):
    """Named module constructors; see the README for the list."""
    if name in ("trivialZ", "trivial"):
        return make_trivial(group, "Z")
    if name == "trivialF2":
        return make_trivial(group, "F2")
    if name in ("trivialF3", "trivialF5"):
        return make_trivial(group, "F" + name[-1])
    if name == "sign":
        return make_sign_cyclic(group)
    if name == "regular":
        return make_regular(group)
    if name in ("augmentation", "ZG/Z"):
        return make_augmentation_quotient(group)
    if name == "omega2Z":
        return make_omega2_trivial(group)
    klein = group.family() == "klein"
    if name.startswith("omega:"):
        if not klein:
            raise UnsupportedFamilyError("omega:<n> modules are defined over Klein4")
        n = _int(name.split(":", 1)[1], "omega parameter")
        if n == 0:
            return make_trivial(group, "F2")
        return omega_klein(n, group) if n > 0 else omega_negative_klein(-n, group)
    if name.startswith("l_zeta:"):
        if not klein:
            raise UnsupportedFamilyError("l_zeta modules are defined over Klein4")
        parts = name.split(":")
        if len(parts) != 3 or parts[1] not in ZETA_NAMES:
            raise ParseError("expected l_zeta:<x|y|x+y>:<n>")
        return l_zeta_klein(ZETA_NAMES[parts[1]], _int(parts[2], "l_zeta power"),
                            group)
    if name.startswith("permutation:"):
        rest = name.split(":", 1)[1]
        if rest in SUBGROUP_NAMES and klein:
            seed = SUBGROUP_NAMES[rest]
        else:
            seed = [int(x) for x in rest.split(",") if x != ""]
        return make_permutation(group, group.generated_subgroup(seed))
    if name.startswith("counterexample:"):
        parts = name.split(":")
        if len(parts) != 3 or parts[1] not in ("A", "B", "P"):
            raise ParseError("expected counterexample:<A|B|P>:<m>")
        data = counterexample_lattices(_int(parts[2], "counterexample parameter"),
                                       group)
        return {"A": data.A, "B": data.B, "P": data.P}[parts[1]]
    raise ParseError("unknown module constructor %r" % name)


def _int(s, what):
    try:
        return int(s)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, s))


def parse_range(spec, what="degree"):
    """"3" -> [3]; "0..4" -> [0,1,2,3,4] (ends may be negative)."""
    s = spec.strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        a, b = _int(lo, what), _int(hi, what)
        if b < a:
            raise ParseError("%s range is empty: %s" % (what, spec))
        return list(range(a, b + 1))
    return [_int(s, what)]


def _value_str(res):
    """Uniform one-cell rendering of a cohomology/Chow value."""
    if hasattr(res, "value"):  # twisted Chow result
        v = res.value
        return ("dim %d" % v) if isinstance(v, int) else str(v)
    if res.dim is not None:
        return "dim %d" % res.dim
    return str(res.structure)


def emit(args, table_lines, payload):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(table_lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_cohomology(args, tate=False):
    G = parse_group(args.group)
    M = parse_module(G, args.module)
    degrees = parse_range(args.degree)
    if not tate and min(degrees) < 0:
        raise ParseError("cohomology degrees must be >= 0 (use tate for negatives)")
    lines = ["degree  value"]
    results = []
    for n in degrees:
        res = coh.tate(G, M, n) if tate else coh.cohomology(G, M, n)
        results.append(res.to_json())
        lines.append("%-6d  %s" % (n, _value_str(res)))
    emit(args, lines, {"command": "tate" if tate else "cohomology",
                       "group": G.name, "module": M.name, "results": results})
    return EXIT_OK


def cmd_tate(args):
    return cmd_cohomology(args, tate=True)


def _chow_result(G, M, i, oracle):
    family = G.family()
    if family == "cyclic":
        return chow.twisted_chow_cyclic(G, M, i, oracle=oracle)
    if family == "klein":
        if M.p != 2:
            raise ParseError("Klein twisted Chow groups need an F2 module")
        return chow.twisted_chow_klein(M, i)
    if family == "quaternion":
        return chow.twisted_chow_quaternion(G, M, i, oracle=oracle)
    raise UnsupportedFamilyError(
        "twisted Chow closed forms cover cyclic, Klein4 and quaternion groups")


def cmd_twisted_chow(args):
    G = parse_group(args.group)
    M = parse_module(G, args.module)
    degrees = parse_range(args.degree)
    if min(degrees) < 0:
        raise ParseError("Chow degrees must be >= 0")
    if max(degrees) > args.max_degree:
        raise ParseError("degree exceeds --max-degree %d" % args.max_degree)
    lines = ["degree  value" + ("  exponent" if args.show_exponent else "")]
    results = []
    for i in degrees:
        res = _chow_result(G, M, i, args.oracle)
        results.append(res.to_json())
        cell = _value_str(res)
        if args.show_exponent:
            if isinstance(res.value, int):
                exp = M.p if res.value else 1
            else:
                exp = res.value.exponent
            lines.append("%-6d  %-12s  exponent | %d" % (i, cell, exp))
        else:
            lines.append("%-6d  %s" % (i, cell))
    emit(args, lines, {"command": "twisted-chow", "group": G.name,
                       "module": M.name, "results": results})
    return EXIT_OK


def cmd_twisted_motivic(args):
    G = parse_group(args.group)
    if G.family() != "klein":
        raise UnsupportedFamilyError("the motivic pipeline covers Klein4 only")
    M = parse_module(G, args.module)
    if M.p != 2:
        raise ParseError("the motivic pipeline needs an F2 module")
    degrees = parse_range(args.degree)
    lines = ["degree  motivic  chow"]
    results = []
    resolutions, kcm = chow.motivic_resolutions(M), chow.KleinChowModule(M)
    for i in degrees:
        mot = chow.twisted_motivic_klein(M, i, resolutions, kcm)
        ch = chow.twisted_chow_klein(kcm, i)
        rec = mot.to_json()
        rec["chow"] = {"dim": ch.value}
        results.append(rec)
        lines.append("%-6d  %-7d  %d" % (i, mot.value, ch.value))
    emit(args, lines, {"command": "twisted-motivic", "group": G.name,
                       "module": M.name, "results": results})
    return EXIT_OK


def cmd_coflasque(args):
    G = parse_group(args.group)
    M = parse_module(G, args.module)
    if M.p is not None and not args.resolve:
        raise ParseError("coflasque predicates apply to integral modules")
    payload = {"command": "coflasque", "group": G.name, "module": M.name}
    lines = []
    if M.p is None:
        ok, wit = is_coflasque(M)
        payload["coflasque"] = ok
        lines.append("coflasque: %s" % ("yes" if ok else "no"))
        if wit is not None:
            payload["witness"] = {"subgroup_order": wit[0].order,
                                  "h1": wit[1].to_json()}
            lines.append("witness: H^1 = %s at a subgroup of order %d"
                         % (wit[1], wit[0].order))
    if args.resolve:
        res = coflasque_resolution(M, prune=args.prune)
        res.check()
        payload["resolution"] = {
            "pieces": [{"subgroup_order": S.order} for S, _ in res.pieces],
            "rank_P": res.P.rank,
            "rank_Q": res.Q.rank,
            "checked": True,
        }
        lines.append("resolution: P rank %d (%d pieces), Q rank %d, checks pass"
                     % (res.P.rank, len(res.pieces), res.Q.rank))
    emit(args, lines, payload)
    return EXIT_OK


def cmd_graded(args):
    G = parse_group(args.group)
    if G.family() != "klein":
        raise UnsupportedFamilyError("graded Chow modules cover Klein4 only")
    M = parse_module(G, args.module)
    if M.p != 2:
        raise ParseError("graded Chow modules need an F2 module")
    horizon = args.horizon
    if horizon is None:
        horizon = (M.rank - 1) // 2 + 6  # covers syzygy modules comfortably
    P = graded.klein_chow_presentation(M, horizon)
    B = graded.minimal_free_resolution(P)
    H = graded.hilbert_series(P)
    reg = graded.cm_regularity(B)
    euler = graded.check_euler_identity(B, H)
    lines = [B.to_text(), "", graded.hilbert_to_text(H), "",
             "regularity: %d" % reg,
             "alternating-sum identity: %s" % ("ok" if euler else "VIOLATED")]
    payload = {"command": "graded", "group": G.name, "module": M.name,
               "presentation": P.to_json(), "betti": B.to_json(),
               "hilbert": graded.hilbert_to_json(H), "regularity": reg,
               "euler_identity": euler}
    emit(args, lines, payload)
    return EXIT_OK if euler else EXIT_MISMATCH


def cmd_verify(args):
    params = None
    if args.m is not None:
        params = parse_range(args.m, "m")
    elif args.orders is not None:
        params = parse_range(args.orders, "orders")
    checks = verify.run_battery(args.tag, params=params, jobs=args.jobs)
    width = max(len(c["name"]) for c in checks)
    lines = []
    failed = 0
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        if not c["ok"]:
            failed += 1
        lines.append("%-*s  expected %-18s computed %-18s %s"
                     % (width, c["name"], c["expected"], c["computed"], status))
    lines.append("%d checks, %d failed" % (len(checks), failed))
    payload = {"command": "verify", "tag": args.tag, "checks": checks,
               "failed": failed}
    emit(args, lines, payload)
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chowtwist",
        description="Twisted Chow groups of classifying spaces, group "
                    "cohomology, coflasque resolutions and graded invariants.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, degree_default="0..3"):
        p.add_argument("--group", required=True,
                       help="C<m>, Klein4, Q<2^k>, or a JSON file")
        p.add_argument("--module", required=True,
                       help="named constructor or a JSON file")
        p.add_argument("--degree", default=degree_default,
                       help="single degree or a..b range")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("cohomology",
                       help="H^n from the tensor resolution of an abelian group or the "
                            "periodic one of a quaternion group, else the bar resolution")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("tate", help="Tate cohomology in any degree")
    common(p, degree_default="-2..2")
    p.set_defaults(func=cmd_tate)

    p = sub.add_parser("twisted-chow", help="closed-form twisted Chow groups")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the resolution oracle")
    p.add_argument("--show-exponent", action="store_true")
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(func=cmd_twisted_chow)

    p = sub.add_parser("twisted-motivic",
                       help="motivic values via coflasque resolutions (Klein4)")
    common(p, degree_default="1")
    p.set_defaults(func=cmd_twisted_motivic)

    p = sub.add_parser("coflasque", help="coflasque predicates and resolutions")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--resolve", action="store_true",
                   help="build and check a coflasque resolution")
    p.add_argument("--prune", action="store_true",
                   help="build the resolution greedily: larger subgroups "
                        "first, a piece only where a fixed-point map is "
                        "not yet onto")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_coflasque)

    p = sub.add_parser("graded",
                       help="Betti numbers, Hilbert series and regularity of "
                            "a Klein Chow module")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("verify", aliases=["verify-paper"],
                       help="run a named verification battery")
    p.add_argument("tag", choices=sorted(verify.BATTERIES))
    p.add_argument("--m", default=None, help="parameter range, e.g. 2..6")
    p.add_argument("--orders", default=None, help="cyclic order range, e.g. 2..12")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the per-parameter fan-out")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        sys.stderr.write("resource cap exceeded: %s\n" % exc)
        if exc.cells is not None:
            sys.stderr.write("offending dimension: %d cells\n" % exc.cells)
        return EXIT_CAP
    except UnsupportedFamilyError as exc:
        sys.stderr.write("unsupported family: %s\n" % exc)
        return EXIT_FAMILY
    except VerificationError as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return EXIT_MISMATCH
    except (ParseError, SizePolicyError, HorizonError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
