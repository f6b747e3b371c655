"""Self-checks of the benchmark: span arithmetic, wrapper coverage, metric
names against BENCHMARK.json, and a one-query smoke run per workload.

    python3 -m pytest bench/selftest.py

The file name keeps it out of a plain ``pytest`` run of the repository, so
the package's own suite, with its runtime gates, runs as before.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from chowtwist import gmodules, intlin, lattices, verify  # noqa: E402
from chowtwist.groups import make_cyclic  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.5, 9.0, 0, 0],   # overlaps a: covered once, not twice
        ["c", 9.5, 12.0, 0, 0],  # runs past its parent: clipped at 10
    ]
    got = tr.self_times(spans)
    assert got == pytest.approx([10 - (8.0 + 0.5), 2.0, 1.0, 5.5, 2.5])


def test_aggregate_sums_self_time_per_layer():
    t = tr.Tracer()
    t.spans = [["query", 0.0, 5.0, -1, 0],
               ["fp.rref", 1.0, 2.0, 0, 0],
               ["fp.rref", 3.0, 3.5, 0, 0]]
    agg = tr.aggregate(t)
    assert agg["query"] == {"calls": 1, "self_s": pytest.approx(3.5)}
    assert agg["fp.rref"]["calls"] == 2
    assert agg["fp.rref"]["self_s"] == pytest.approx(1.5)
    assert agg["intlin.smith_normal_form"]["calls"] == 0


def test_wrapper_catches_name_imported_bindings_and_restores_them():
    original = lattices.coflasque_resolution
    init = intlin.ColumnEchelon.__init__
    assert verify.coflasque_resolution is original
    t = tr.Tracer()
    with tr.installed(t):
        assert verify.coflasque_resolution is lattices.coflasque_resolution
        assert verify.coflasque_resolution is not original
        G = make_cyclic(2)
        t.enabled = True
        with t.query():
            verify.coflasque_resolution(gmodules.make_sign_cyclic(G))
            intlin.ColumnEchelon([[1, 2, 3]])
        t.enabled = False
        verify.coflasque_resolution(gmodules.make_sign_cyclic(G))  # untraced
    assert verify.coflasque_resolution is original
    assert intlin.ColumnEchelon.__init__ is init
    agg = tr.aggregate(t)
    assert agg["lattices.coflasque_resolution"]["calls"] == 1
    assert agg["intlin.ColumnEchelon"]["calls"] >= 1
    assert agg["intlin.ColumnEchelon"]["max_cells"] >= 3
    names = [s[0] for s in t.spans]
    assert names[0] == "query" and all(s[4] == 0 for s in t.spans)


def test_metric_names_match_benchmark_json():
    s = spec()
    assert sorted(w["name"] for w in s["workloads"]) == sorted(workloads.WORKLOADS)
    agg = tr.aggregate(tr.Tracer())
    layer = run.layer_metrics([agg], [1.0], [1.0])
    assert sorted(m["name"] for m in s["per_layer"]) == sorted(layer)
    assert sorted(m["name"] for m in s["end_to_end"]) == sorted(
        ["wall_s", "setup_s", "slowest_query_s", "peak_rss_mb"])
    assert max(m["bound"] for m in s["end_to_end"]) == next(
        m["bound"] for m in s["end_to_end"] if m["name"] == "setup_s")


def test_slowest_query_is_the_largest_median():
    queries = [workloads.Query(n, None, None) for n in "abc"]
    passes = [run.Pass(ts, [], 0, 0, False)
              for ts in ([1.0, 5.0, 2.0], [1.0, 0.5, 2.0], [9.0, 0.5, 2.0])]
    assert run.slowest_query(queries, passes) == ("c", 2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_query_smoke_run(name, tmp_path):
    queries = workloads.build(name, 7, str(tmp_path))[:1]
    t = tr.Tracer()
    with tr.installed(t):
        passes, aggs = [], []
        for traced in (False, True, True):
            t.reset()
            passes.append(run.run_pass(queries, t, traced))
            if traced:
                aggs.append(tr.aggregate(t))
    attempted, failed = run.tally(queries, passes)
    assert attempted > len(passes) and failed == 0
    counts = [{(k, s): v for k, st in a.items() for s, v in st.items()
               if s != "self_s"} for a in aggs]
    assert counts[0] == counts[1]
    assert aggs[0]["query"]["calls"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable] + spec()["command"][1:]
                         + ["--workload", "integral", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert "correct" not in res.stdout
