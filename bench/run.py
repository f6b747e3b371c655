"""chowtwist benchmark: one closed-loop client in one process, no pool.

    python3 bench/run.py --workload integral --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's queries (bench/workloads.py)
run in passes until --seconds is used up; every answer is checked.  With
--trace 0 the end-to-end metrics come from untraced passes.  With --trace 1
untraced and traced passes alternate: the per-layer metrics come from the
traced passes (bench/tracer.py), their answers must equal the untraced
ones byte for byte, and the spans of the first traced pass are written to
bench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer as tr

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 5


def prepare():
    """Make ``import chowtwist`` load this checkout's src/, under the
    conditions the checks need; exit non-zero if that is impossible."""
    if sys.flags.optimize:
        sys.exit("bench: the oracle checks in chowtwist are asserts; "
                 "run without -O")
    if not os.path.isfile(os.path.join(SRC, "chowtwist", "__init__.py")):
        sys.exit("bench: no chowtwist sources under %s" % SRC)
    # the resource cap would turn large queries into refusals
    os.environ.pop("CHOWTWIST_MAX_CELLS", None)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


@dataclass
class Pass:
    """One run of every query: per-query seconds, answers and check tally."""
    times: list
    answers: list
    attempted: int
    failed: int
    traced: bool

    @property
    def wall(self):
        return sum(self.times)


def run_pass(queries, tracer, traced):
    """Run every query once; time only the query, check outside the clock."""
    times, answers, attempted, failed = [], [], 0, 0
    tracer.enabled = traced
    for q in queries:
        t0 = time.perf_counter()
        with tracer.query():
            try:
                answer = q.run()
            except Exception as exc:  # a raising query is a failed answer
                answer = None
                error = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0)
        if answer is None:
            a, f = 1, 1
            answer = "raised " + error
        else:
            a, f = q.check(answer)
        if f:
            print("FAIL %s: %s" % (q.name, answer[:200]))
        answers.append(answer)
        attempted += a
        failed += f
    tracer.enabled = False
    return Pass(times, answers, attempted, failed, traced)


def run_passes(queries, seconds, trace):
    """Passes until ``seconds`` is spent, never starting one that would end
    after it.  With ``trace`` every second pass is traced; returns the
    passes, the traced passes' aggregates and the first traced pass's
    spans."""
    tracer = tr.Tracer()
    passes, aggs, spans = [], [], None
    with tr.installed(tracer):
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            tracer.reset()
            passes.append(run_pass(queries, tracer, traced))
            if traced:
                aggs.append(tr.aggregate(tracer))
                spans = spans or tracer.spans
            now = time.perf_counter()
            if len(passes) >= 1 + trace and (now - start) + (now - t0) > seconds:
                return passes, aggs, spans


def measure_setup(workload, seed):
    """Set-up seconds in SETUP_PROBES fresh processes: importing the CLI
    and batteries, then building the workload's groups and modules."""
    probe = os.path.join(BENCH, "setup_probe.py")
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=120)
        values.append(float(out.stdout.split()[-1]))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    prepare()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    import chowtwist
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r; choose from %s"
                 % (args.workload, sorted(workloads.WORKLOADS)))
    if not os.path.abspath(chowtwist.__file__).startswith(SRC + os.sep):
        sys.exit("bench: chowtwist imported from outside %s" % SRC)

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    queries = workloads.build(args.workload, args.seed, OUT)
    try:
        passes, traced_aggs, spans = run_passes(queries, args.seconds,
                                                bool(args.trace))
    finally:
        workloads.remove_modules(OUT)

    attempted, failed = tally(queries, passes)
    plain = [p for p in passes if not p.traced]
    values = {}
    if args.trace:
        values = layer_metrics(traced_aggs, [p.wall for p in plain],
                               [p.wall for p in passes if p.traced])
        with open(os.path.join(OUT, "trace-%s-%d.json"
                               % (args.workload, args.seed)), "w") as fh:
            json.dump({"layers": [n for n in tr.layer_names()],
                       "span_fields": ["name", "start", "end", "parent", "query"],
                       "spans": spans, "aggregates": traced_aggs[0]}, fh)
        wanted = spec["per_layer"]
    else:
        for name, vals in (("wall_s", [p.wall for p in plain]),
                           ("setup_s", setup)):
            q1, values[name], q3 = quartiles(vals)
            print("%-16s median %.4f s  q1 %.4f  q3 %.4f  n=%d"
                  % (name, values[name], q1, q3, len(vals)))
        slowest, values["slowest_query_s"] = slowest_query(queries, plain)
        print("slowest_query_s  %.4f s (median over %d passes of %s)"
              % (values["slowest_query_s"], len(plain), slowest))
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("peak_rss_mb      %.1f MB" % values["peak_rss_mb"])
        wanted = spec["end_to_end"]
    print("failed_frac %.4f (%d failed of %d attempted, %d passes of %d queries)"
          % (failed / attempted, failed, attempted, len(passes), len(queries)))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print("%-48s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def tally(queries, passes):
    """(attempted, failed) over every check of every pass.  Each pass must
    also repeat the first pass's answers byte for byte; for a traced pass
    that is the check that tracing changed nothing."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes[1:]:
        for q, a, b in zip(queries, passes[0].answers, p.answers):
            attempted += 1
            if a != b:
                failed += 1
                print("FAIL %s: %s pass differs from the first"
                      % (q.name, "traced" if p.traced else "untraced"))
    return attempted, failed


def slowest_query(queries, passes):
    """(name, time) of the query whose median time over the passes is the
    largest: the wait a user feels on the workload's worst query."""
    medians = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    i = max(range(len(medians)), key=medians.__getitem__)
    return queries[i].name, medians[i]


def layer_metrics(aggs, plain_walls, traced_walls):
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), self times as the median over traced passes."""
    values = {}
    for layer, stats in aggs[0].items():
        for stat, v in stats.items():
            if stat == "self_s":
                v = statistics.median(a[layer]["self_s"] for a in aggs)
            values["%s.%s" % (layer, stat)] = v
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(plain_walls))
    return values


if __name__ == "__main__":
    sys.exit(main())
