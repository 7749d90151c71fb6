"""tropgrass benchmark: a closed loop with one client over seeded requests.

Run from the repository root:

    python3 perfbench/run.py --workload tree_metrics --seed 1 --seconds 30 --trace 0

One process, no threads: the next request is sent only when the previous
one has returned.  The process imports the library from ./src, runs the
startup self-check (three times; setup_s is the median), then replays
the workload's requests for --seconds.  Every answer is kept and checked
after the loop, and one request of each kind is replayed through the
CLI.  With --trace 0 the last stdout line carries the end-to-end metrics
of BENCHMARK.json; with --trace 1 every request runs twice, untraced and
with spans, and the line carries the per-layer metrics.  Spans and run
details go to perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("tree_metrics", "plane_queries", "ideal_queries")
SETUP_REPEATS = 3
# p90 needs at least ten samples beyond it, so the timed loop runs past
# --seconds until this many requests were sent.
MIN_REQUESTS = 100

Record = namedtuple("Record", "req ans latency error")


def import_library():
    """A fresh import of the library, as a new process would do it."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tropgrass"]:
        del sys.modules[name]
    return (importlib.import_module("tropgrass.g36"),
            importlib.import_module("tropgrass.treespace"))


def self_check(t, g36, treespace):
    """The startup self-check; returns the G(3,6) complex it built."""

    def expect(what, got, want):
        if got != want:
            raise RuntimeError(f"self-check: {what} is {got}, expected {want}")

    delta = t.call("g36.build_delta", g36.build_delta)
    expect("Delta f-vector", t.call("complexes.f_vector", delta.f_vector),
           (65, 550, 1410, 1065, 15))
    g = t.call("g36.build_g36", g36.build_g36)
    expect("G(3,6) f-vector", t.call("complexes.f_vector", g.f_vector),
           (65, 550, 1395, 1035))
    expect("facet census", t.call("g36.facet_census", g36.facet_census, g),
           {"EEEE": 30, "EEFF1": 90, "EEFF2": 90, "EFFG": 180,
            "EEEG": 240, "EEFG": 360, "FFGG": 45})
    expect("G(3,6) Betti numbers", t.call("complexes.betti_numbers", g.betti_numbers),
           (1, 0, 0, 126))
    for n, f, betti in ((6, (25, 105, 105), (1, 0, 24)),
                        (7, (56, 490, 1260, 945), (1, 0, 0, 120))):
        tn = t.call("treespace.tn_complex", treespace.tn_complex, n)
        expect(f"T_{n} f-vector", t.call("complexes.f_vector", tn.f_vector), f)
        expect(f"T_{n} Betti numbers",
               t.call("complexes.betti_numbers", tn.betti_numbers), betti)
    return g


def setup(t):
    """SETUP_REPEATS fresh imports plus self-checks; the first is timed
    from process start.  Returns (seconds of each, G(3,6) complex)."""
    times = []
    start = T0
    for k in range(SETUP_REPEATS):
        with t.root("setup"):
            g36, treespace = import_library()
            complex_ = self_check(t, g36, treespace)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
    return times, complex_, g36


def machine_probe():
    """Seconds for a fixed pure-Python loop: recorded beside each run so
    that a slow machine can be told apart from a slow library."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return time.perf_counter() - start


def plane_inputs(complex_, g36):
    """Facets (class, vertex names) in a process-independent order and
    each vertex's integer coordinates, for generating plane weights."""
    facets = sorted((g36.facet_class(f), sorted(str(v) for v in f))
                    for f in complex_.maximal_faces)
    raw = {str(v): {S: int(x) for S, x in v.raw_vector().coords.items() if x}
           for v in complex_.vertices}
    return facets, raw


def closed_loop(source, t, seconds, handlers):
    """Send requests one at a time until `seconds` of loop time pass and
    MIN_REQUESTS were sent, or the source runs dry.  Time spent
    generating inputs is not loop time."""
    records = []
    paused = 0.0
    start = time.perf_counter()
    while (time.perf_counter() - start - paused < seconds
           or len(records) < MIN_REQUESTS):
        g0 = time.perf_counter()
        req = next(source, None)
        paused += time.perf_counter() - g0
        if req is None:
            break
        t0 = time.perf_counter()
        try:
            with t.root("request." + req["kind"]):
                ans = handlers[req["kind"]](t, req)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            ans, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(req, ans, time.perf_counter() - t0, error))
    return records, time.perf_counter() - start - paused


def paired_loop(source, tracer, seconds, handlers):
    """Each request twice, back to back, once untraced and once traced
    (alternating which goes first), until `seconds` of loop time pass.
    Both runs of a pair see nearly the same machine speed, so the median
    ratio of their latencies isolates the cost of tracing."""
    plain, traced = [], []
    busy = 0.0
    while busy < seconds:
        req = next(source)
        pair = [(tracing.NullTracer(), plain), (tracer, traced)]
        for t, out in pair if len(plain) % 2 == 0 else pair[::-1]:
            records, wall = closed_loop(iter([req]), t, float("inf"), handlers)
            out += records
            busy += wall
    return plain, traced


def verify(records):
    """Check every answer; returns the error list of each record."""
    out = []
    for r in records:
        if r.error is not None:
            out.append([r.error])
            continue
        try:
            out.append(checks.CHECKS[r.req["kind"]](r.req, r.ans))
        except Exception as exc:  # a malformed answer fails its request
            out.append([f"check raised {type(exc).__name__}: {exc}"])
    return out


def properties(records, workload):
    """Input mix and outcome shares of a run, beside its metrics."""
    kinds = Counter(r.req["kind"] for r in records)
    total = len(records)
    props = {
        "workload": workload,
        "samples": total,
        "kind_share": {k: c / total for k, c in sorted(kinds.items())},
        "n_histogram": dict(sorted(Counter(
            r.req["n"] for r in records if "n" in r.req).items())),
        "facet_class_histogram": dict(sorted(Counter(
            r.req["facet_class"] for r in records if "facet_class" in r.req).items())),
    }
    done = [r for r in records if r.ans is not None]
    trees = [r.ans["accepted"] for r in done if "accepted" in r.ans]
    members = [m for r in done if "member" in r.ans for m, _ in r.ans["member"]]
    frees = [r.ans["free"] for r in done if "free" in r.ans]
    cones = [(r.req["n"], r.req["char"], tuple(map(tuple, r.req["splits"])))
             for r in records if r.req["kind"] == "tree_cone"]
    props["accept_ratio"] = sum(trees) / len(trees) if trees else 0.0
    props["member_ratio"] = sum(members) / len(members) if members else 0.0
    props["free_ratio"] = sum(frees) / len(frees) if frees else 0.0
    props["repeat_cone_share"] = (
        (len(cones) - len(set(cones))) / len(cones) if cones else 0.0)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.req["kind"], []).append(r.latency * 1000)
    props["latency_ms_by_kind"] = {
        k: {"median": statistics.median(v), "max": max(v)}
        for k, v in sorted(by_kind.items())}
    ranked = sorted(records, key=lambda r: r.latency)
    for q in (50, 90):
        props[f"kind_at_p{q}"] = ranked[round(q / 100 * (total - 1))].req["kind"]
    return props


def end_to_end(records, wall, setup_times, peak_rss_mb):
    lat_ms = [r.latency * 1000 for r in records]
    return {
        "throughput_rps": sum(r.ans is not None for r in records) / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tropgrass", "__init__.py")):
        sys.exit(f"error: no library source at {SRC}; run from the repository root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    setup_times, complex_, g36 = setup(tracer)

    import handlers  # bound to the library instance the last setup imported
    import parity

    facets, raw = plane_inputs(complex_, g36) if args.workload == "plane_queries" else (None, None)
    source = (req for block in gen.blocks(args.workload, args.seed, facets, raw)
              for req in block)

    probes = [machine_probe()]
    if args.trace:
        records, replay = paired_loop(source, tracer, args.seconds, handlers.HANDLERS)
        wall = sum(r.latency for r in records)
        runs = records + replay
    else:
        records, wall = closed_loop(source, tracer, args.seconds, handlers.HANDLERS)
        runs = records
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes.append(machine_probe())

    errors = verify(runs)
    os.makedirs(OUT, exist_ok=True)
    parity.replay(tracer, records, errors, OUT)
    failed = sum(bool(e) for e in errors)
    props = properties(records, args.workload)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics.update({
            "treespace.four_point_check.accept_ratio": props["accept_ratio"],
            "troplin.contains.member_ratio": props["member_ratio"],
            "exactalg.is_monomial_free.free_ratio": props["free_ratio"],
            "exactalg.repeat_cone_share": props["repeat_cone_share"],
            "trace_overhead": statistics.median(
                b.latency / a.latency for a, b in zip(records, replay)) - 1,
            "failed_ratio": failed / len(runs),
        })
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(records, wall, setup_times, peak_rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracing.write_spans(tracer.spans, stem + ".spans.jsonl")
    details = {
        "properties": props,
        "setup_s": setup_times,
        "loop_s": wall,
        "machine_probe_s": probes,
        "failures": [(i, e) for i, e in enumerate(errors) if e][:20],
        "latencies_ms": [(r.req["kind"], r.req.get("n", r.req.get("facet_class")),
                          r.req.get("char"), r.latency * 1000) for r in records],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps({"properties": props}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
