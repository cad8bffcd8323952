"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload paper-capacity --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics from a
traced run plus the tracing overhead.  A failed correctness check
prints its name on standard error and the result says
``"correct": false``.
"""

from __future__ import annotations

import os

# Pinned before anything imports NumPy: one BLAS/OpenMP thread, so the
# timings do not depend on how many cores the host lends the pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per run, each a fresh process; setup_s is their
#: median.  Half are taken before the timed phase and half after it:
#: consecutive fresh processes on a shared host run slow or fast
#: together, so samples spread over the run wander less.
SETUP_SAMPLES = 12

WORKLOADS = ("paper-capacity", "paper-predict", "serve-mixed",
             "sched-sweep")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("units_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("capacity.finite_source.busy_s", "s"),
    ("capacity.finite_source.calls", "count"),
    ("capacity.finite_source.sessions", "count"),
    ("capacity.mgn.busy_s", "s"),
    ("capacity.mgn.sessions", "count"),
    ("fleet.drops.busy_s", "s"),
    ("fleet.drops.calls", "count"),
    ("fleet.drops.arrivals", "count"),
    ("stream.aggregate.busy_s", "s"),
    ("stream.sweep_point.busy_s", "s"),
    ("stream.shard.busy_s", "s"),
    ("stream.shard.bytes_written", "B"),
    ("sched.plan.busy_s", "s"),
    ("sched.unit.busy_s", "s"),
    ("sched.units", "count"),
    ("sched.stitch.busy_s", "s"),
    ("sched.replay_blocks", "count"),
    ("sched.replay_ratio", "ratio"),
    ("ml.gbrt.fit.busy_s", "s"),
    ("ml.gbrt.fit.trees", "count"),
    ("ml.gbrt.predict.busy_s", "s"),
    ("ml.gbrt.predict.rows", "count"),
    ("traces.generate.busy_s", "s"),
    ("core.page_load.busy_s", "s"),
    ("core.page_loads", "count"),
    ("sim.events", "count"),
    ("webpages.generate.busy_s", "s"),
    ("runtime.memo.hit_ratio", "ratio"),
    ("ablation.evaluate.busy_s", "s"),
    ("ablation.hold_pool.busy_s", "s"),
    ("ablation.load_cache.hit_ratio", "ratio"),
    ("serve.service_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.batch.rounds", "count"),
    ("serve.batch.mean_size", "count"),
    ("serve.coalesced", "count"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.run_s", "s"),
    ("trace.overhead.units_per_s", "1/s"),
    ("trace.overhead.peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up in a fresh process, say READY, exit.
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    # Internal: run the traced half of a --trace 1 run, print its JSON.
    parser.add_argument("--traced-half", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------

def child_cmd(args, traced: bool, seconds: float, role: str) -> list:
    return [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(seconds), "--trace", str(int(traced)), role]


def setup_probe(args, traced: bool) -> float:
    """Seconds from spawning a fresh interpreter to its READY line."""
    started = time.perf_counter()
    proc = subprocess.Popen(child_cmd(args, traced, 0, "--probe"),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def timed_passes(workload, seconds: float):
    """Whole passes until ``seconds`` have passed."""
    times, summaries = [], []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        t0 = time.perf_counter()
        output = workload.run_pass()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        summaries.append(workload.summary(output))
        del output
        if t1 >= deadline:
            return times, summaries, t1 - started


def digest(summary: str) -> str:
    return hashlib.sha256(summary.encode()).hexdigest()


def traced_half(workload, seconds: float) -> dict:
    """The traced timed phase, run in a fresh process of its own so that
    its peak RSS is its own: set up with the wrappers installed, then
    whole passes for ``seconds``."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.setup()
    tracer.spans.clear()  # per-layer figures cover the passes only
    memo_before = tracing.memo_stats()
    loads_before = tracing.load_cache_stats()
    times, summaries, elapsed = timed_passes(workload, seconds)
    tracer.recording = False
    memo_after = tracing.memo_stats()
    loads_after = tracing.load_cache_stats()
    layers = tracing.self_times(tracer.spans)
    return {"passes": len(times),
            "run_s": statistics.median(times),
            "units_per_s": len(times) / elapsed,
            "peak_rss_mb": peak_rss_mb(),
            "digests": sorted({digest(s) for s in summaries}),
            "layers": {name: {**entry, "counts": dict(entry["counts"])}
                       for name, entry in layers.items()},
            "memo": [memo_after["hits"] - memo_before["hits"],
                     memo_after["misses"] - memo_before["misses"]],
            "loads": [loads_after[0] - loads_before[0],
                      loads_after[1] - loads_before[1]]}


def run_traced_half(args, seconds: float) -> dict:
    proc = subprocess.run(child_cmd(args, True, seconds, "--traced-half"),
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def batch_run(args, work_root: Path):
    from workloads import BATCH, require

    workload = BATCH[args.workload](args.seed, work_root)
    if args.probe:
        if args.trace:
            import tracing
            tracing.install(tracing.Tracer())
        workload.setup()
        print("READY", flush=True)
        return None
    if args.traced_half:
        print(json.dumps(traced_half(workload, args.seconds)))
        return None
    setups = [setup_probe(args, False) for _ in range(SETUP_SAMPLES // 2)]
    workload.setup()
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, summaries, elapsed = timed_passes(workload, seconds)
    # Read before the check pass, which may run more than a pass does.
    rss = peak_rss_mb()
    setups += [setup_probe(args, False) for _ in range(SETUP_SAMPLES // 2)]
    e2e = {"setup_s": statistics.median(setups),
           "run_s": statistics.median(times),
           "units_per_s": len(times) / elapsed,
           "peak_rss_mb": rss}
    reference_summary = workload.summary(workload.check_pass())
    for summary in summaries:
        require(summary == reference_summary, f"{args.workload}.deterministic",
                "a timed pass's output differs from the checked pass")
    if not args.trace:
        return len(times), 0, e2e

    traced_setups = [setup_probe(args, True)
                     for _ in range(SETUP_SAMPLES // 2)]
    half = run_traced_half(args, seconds)
    traced_setups += [setup_probe(args, True)
                      for _ in range(SETUP_SAMPLES // 2)]
    require(half["digests"] == [digest(reference_summary)],
            f"{args.workload}.deterministic",
            "a traced pass's output differs from the checked pass")
    traced = {"setup_s": statistics.median(traced_setups),
              **{name: half[name]
                 for name in ("run_s", "units_per_s", "peak_rss_mb")}}
    metrics = layer_metrics(half["layers"], half["passes"],
                            memo=half["memo"], loads=half["loads"],
                            serve={}, e2e=e2e, traced=traced)
    return len(times) + half["passes"], 0, metrics


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

def serve_run(args, work_root: Path):
    import serve_mixed
    import tracing

    env = serve_mixed.env_for_server(dict(os.environ), SRC)
    workload = serve_mixed.ServeMixed(args.seed, work_root, env)
    setups = [workload.setup_probe() for _ in range(SETUP_SAMPLES // 2 - 1)]
    seconds = args.seconds / 2 if args.trace else args.seconds

    server = serve_mixed.Server(env, work_root)
    try:
        setups.append(server.setup_s)
        checked = workload.run_rounds(server, 0, "w")
        timed_start = time.perf_counter()
        records = workload.run_rounds(server, seconds, "r")
        elapsed = time.perf_counter() - timed_start
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += [workload.setup_probe() for _ in range(SETUP_SAMPLES // 2)]
    attempted, failed = workload.accounting(records)
    latencies = workload.latencies(records)
    e2e = {"setup_s": statistics.median(setups),
           "run_s": statistics.median(latencies),
           "units_per_s": len(latencies) / elapsed,
           "peak_rss_mb": rss}
    checked += records
    if not args.trace:
        workload.check(checked)
        return attempted, failed, e2e

    traced_setups = [workload.setup_probe(work_root / f"probe-{i}.json")
                     for i in range(SETUP_SAMPLES // 2 - 1)]
    spans_path = work_root / "serve-spans.json"
    server = serve_mixed.Server(env, work_root, spans_path)
    try:
        checked += workload.run_rounds(server, 0, "w")
        before = serve_mixed.serve_counters(server)
        timed_start = time.perf_counter()
        traced_records = workload.run_rounds(server, seconds, "t")
        elapsed = time.perf_counter() - timed_start
        after = serve_mixed.serve_counters(server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    traced_setups += [workload.setup_probe(work_root / f"probe-{i}.json")
                      for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    checked += traced_records
    workload.check(checked)
    more_attempted, more_failed = workload.accounting(traced_records)
    latencies = workload.latencies(traced_records)
    traced_setups.append(server.setup_s)
    traced = {"setup_s": statistics.median(traced_setups),
              "run_s": statistics.median(latencies),
              "units_per_s": len(latencies) / elapsed,
              "peak_rss_mb": rss}
    spans = tracing.load_spans(spans_path)
    timed = {r["rid"]: r["latency"] for r in traced_records
             if r["kind"] != "malformed"}
    service = {}
    for span in spans:
        if span[tracing.NAME] == "serve.predict" and \
                span[tracing.RID] in timed:
            service[span[tracing.RID]] = span[tracing.END] - \
                span[tracing.START]
    delta = {k: after[k] - before[k] for k in after}
    serve = {
        "serve.service_ms": 1000 * statistics.median(service.values()),
        "serve.http_overhead_ms": 1000 * statistics.median(
            timed[rid] - service[rid] for rid in service),
        "serve.batch.rounds": delta["batches"] / len(latencies),
        "serve.batch.mean_size": tracing.ratio(delta["requests"],
                                               delta["batches"]),
        "serve.coalesced": delta["coalesced"] / len(latencies),
    }
    metrics = layer_metrics(
        tracing.self_times(spans, keep=lambda s: s[tracing.RID] in timed),
        len(latencies), memo=(delta["memo_hits"], delta["memo_misses"]),
        loads=(delta["load_hits"], delta["load_lookups"]), serve=serve,
        e2e=e2e, traced=traced)
    return attempted + more_attempted, failed + more_failed, metrics


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(layers, units: int, *, memo, loads, serve, e2e, traced):
    """Per-layer values per unit of work (pass or request)."""
    import tracing

    def entry(name):
        return layers.get(name, {"self_s": 0.0, "calls": 0, "counts": {}})

    def busy(name):
        return entry(name)["self_s"] / units

    def calls(name):
        return entry(name)["calls"] / units

    def counted(name, key):
        return entry(name)["counts"].get(key, 0) / units

    stitch = entry("sched.stitch")["counts"]
    values = {
        "capacity.finite_source.busy_s": busy("capacity.finite_source"),
        "capacity.finite_source.calls": calls("capacity.finite_source"),
        "capacity.finite_source.sessions": counted(
            "capacity.finite_source", "sessions"),
        "capacity.mgn.busy_s": busy("capacity.mgn"),
        "capacity.mgn.sessions": counted("capacity.mgn", "sessions"),
        "fleet.drops.busy_s": busy("fleet.drops"),
        "fleet.drops.calls": calls("fleet.drops"),
        "fleet.drops.arrivals": counted("fleet.drops", "arrivals"),
        "stream.aggregate.busy_s": busy("stream.aggregate"),
        "stream.sweep_point.busy_s": busy("stream.sweep_point"),
        "stream.shard.busy_s": busy("stream.shard"),
        "stream.shard.bytes_written": counted("stream.shard",
                                              "bytes_written"),
        "sched.plan.busy_s": busy("sched.plan"),
        "sched.unit.busy_s": busy("sched.unit"),
        "sched.units": calls("sched.unit"),
        "sched.stitch.busy_s": busy("sched.stitch"),
        "sched.replay_blocks": counted("sched.stitch", "replay_blocks"),
        "sched.replay_ratio": tracing.ratio(stitch.get("replay_blocks", 0),
                                            stitch.get("blocks", 0)),
        "ml.gbrt.fit.busy_s": busy("ml.gbrt.fit"),
        "ml.gbrt.fit.trees": counted("ml.gbrt.fit", "trees"),
        "ml.gbrt.predict.busy_s": busy("ml.gbrt.predict"),
        "ml.gbrt.predict.rows": counted("ml.gbrt.predict", "rows"),
        "traces.generate.busy_s": busy("traces.generate"),
        "core.page_load.busy_s": busy("core.page_load"),
        "core.page_loads": calls("core.page_load"),
        "sim.events": counted("core.page_load", "events"),
        "webpages.generate.busy_s": busy("webpages.generate"),
        "runtime.memo.hit_ratio": tracing.ratio(memo[0], sum(memo)),
        "ablation.evaluate.busy_s": busy("ablation.evaluate"),
        "ablation.hold_pool.busy_s": busy("ablation.hold_pool"),
        "ablation.load_cache.hit_ratio": tracing.ratio(*loads),
        "serve.service_ms": 0.0,
        "serve.http_overhead_ms": 0.0,
        "serve.batch.rounds": 0.0,
        "serve.batch.mean_size": 0.0,
        "serve.coalesced": 0.0,
    }
    values.update(serve)
    for name, _ in END_TO_END:
        values[f"trace.overhead.{name}"] = traced[name] - e2e[name]
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import CheckFailed

    work_root = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)
    try:
        run = serve_run if args.workload == "serve-mixed" else batch_run
        try:
            outcome = run(args, work_root)
        except CheckFailed as exc:
            print(f"CHECK FAILED {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1,
                              "failed": 0, "metrics": {}}))
            return 1
        if outcome is None:  # an internal child's run
            return 0
        attempted, failed, metrics = outcome
        if args.trace == 0:
            metrics = {name: metric(metrics[name], unit)
                       for name, unit in END_TO_END}
        print(json.dumps({"correct": True, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
