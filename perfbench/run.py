#!/usr/bin/env python3
"""TurboFNO benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the measuring binary from the checkout (into .bench_build),
runs one workload in its own process, gates every output, and prints the
metrics by name with their units.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  python3 perfbench/run.py --write-spec
regenerates BENCHMARK.json from perfbench/catalog.py.
"""
import argparse
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import catalog  # noqa: E402
import host  # noqa: E402
import schedule  # noqa: E402
import spans as spanlib  # noqa: E402
import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
# serve_router_open: share of the run each open-loop phase takes.  The
# 10000 req/s phase carries the end-to-end latency, so it gets the most
# time: at that rate micro-batches fill by size and the serving threads stay
# busy, so its tail moves with the code rather than with wake-up delays the
# shared host adds to idle threads (its windowed p90 held within ~5% across
# seeds where the 5000 req/s one spread by ~50%).
PHASES = {2000: 0.15, 5000: 0.15, 10000: 0.4}
LAT_RATE = 10000
CLOSED_SHARE = 0.3
# The traced run's serve/net/shard probes run at this rate.
PROBE_RATE = 5000
PROBE_SHARE = 0.125
# Steady-state figures are medians over this many equal time windows, so a
# transient stall on the shared host moves one window, not the run.
WINDOWS = 8
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; logs stay in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
                os.makedirs(BUILD)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as g:
                    sys.stderr.write(g.read()[-4000:])
                die("build failed")


def schedules(seed, seconds):
    """{file stem: schedule} of one run."""
    out = {f"r{rate}": schedule.poisson_schedule(seed, rate, seconds * share)
           for rate, share in PHASES.items()}
    out[f"probe_r{PROBE_RATE}"] = schedule.poisson_schedule(seed, PROBE_RATE,
                                                             seconds * PROBE_SHARE)
    return out


def run_binary(args, work):
    exe = os.path.join(BUILD, "fnobench_traced" if args.trace else "fnobench")
    out = os.path.join(work, "result.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--sched-dir", work, "--out", out,
           "--closed-seconds", repr(args.seconds * CLOSED_SHARE)]
    if args.trace:
        cmd += ["--spans", os.path.join(work, "spans.tsv")]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("measuring binary timed out")
    if r.returncode != 0:
        die(f"measuring binary exited with {r.returncode}")
    with open(out) as f:
        return json.load(f)


def as_samples(values):
    """JSON null marks a failed request: it misses every latency limit."""
    return [math.inf if v is None else v for v in values]


def end_to_end(args, raw, report):
    m = {"setup_s": stats.median(raw["setup_s"]), "peak_rss_mb": raw["peak_rss_mb"]}
    if args.workload == "serve_router_open":
        closed = raw["closed_seconds"]
        counts = stats.window_counts(raw["closed_done_s"], closed, WINDOWS)
        m["fields_per_s"] = stats.median(counts) / (closed / WINDOWS)
        report("closed", f"{len(raw['closed_done_s'])} Ok in {closed:.2f} s, "
               f"failed={raw['closed_failed']} refused={raw['closed_refused']}")
        sched = schedules(args.seed, args.seconds)
        for rate in PHASES:
            ph = raw["phases"][f"r{rate}"]
            lat = as_samples(ph["lat_ms"])
            tail = stats.tail_percentile(len(lat))
            report(f"r{rate // 1000}k", f"n={len(lat)} failed={ph['failed']} "
                   f"refused={ph['refused']} "
                   f"p50={stats.median(lat):.4f} ms p90={stats.percentile(lat, 90):.4f} ms "
                   f"p{tail}={stats.percentile(lat, tail):.4f} ms "
                   f"late_max={max(ph['late_ms']):.3f} ms")
        lat = as_samples(raw["phases"][f"r{LAT_RATE}"]["lat_ms"])
        due = [t for t, _, _ in sched[f"r{LAT_RATE}"]]
        groups = stats.windows(lat, due, args.seconds * PHASES[LAT_RATE], WINDOWS)
        m["lat_ms_p50"] = stats.median([stats.median(g) for g in groups])
        m["lat_ms_p90"] = stats.median([stats.percentile(g, 90) for g in groups])
        report("samples", f"{len(lat)} latencies at {LAT_RATE} req/s in {WINDOWS} windows; "
               f"p90 per window has >= {stats.beyond(min(map(len, groups)), 90)} beyond")
    else:
        fwd = [s * 1e3 for s in raw["forward_s"]]
        # Windows over the cumulative forward time: fields per busy second.
        ends = list(itertools.accumulate(fwd))
        groups = stats.windows(fwd, [e - f for e, f in zip(ends, fwd)], ends[-1], WINDOWS)
        m["fields_per_s"] = stats.median(
            [raw["fields_per_call"] * len(g) / (sum(g) / 1e3) for g in groups])
        m["lat_ms_p50"] = stats.median(fwd)
        m["lat_ms_p90"] = stats.percentile(fwd, 90)
        tail = stats.tail_percentile(len(fwd))
        report("samples", f"{len(fwd)} forwards; highest percentile with >= 10 beyond: p{tail}")
        if tail is None or tail < 90:
            print("perfbench: too few forwards for p90", file=sys.stderr)
    return m


def per_layer(raw, spans_path, report):
    summary = spanlib.summarize(spanlib.read_spans(spans_path))
    for name in sorted(summary):
        e = summary[name]
        report(f"span {name}", f"count={e['count']} median={e['median_s'] * 1e3:.4f} ms "
               f"total={e['total_s'] * 1e3:.3f} ms self={e['self_s'] * 1e3:.3f} ms")

    def ms(name):
        return summary[name]["median_s"] * 1e3

    def pct_ms(name, p):
        return stats.percentile(summary[name]["durations"], p) * 1e3

    m = {}
    for key in ("fwd_trunc", "fwd_full_slice", "inv_pad", "inv_full", "rfft"):
        m[f"fft.{key}_ms"] = ms(f"fft.{key}")
    m["fft.gflops_fwd_trunc"] = raw["fft.fwd_trunc_flops"] / (ms("fft.fwd_trunc") * 1e-3) / 1e9
    m["fft.plan_cache_misses_steady"] = raw["fft.plan_cache_misses_steady"]
    m["gemm.cgemm_ms"] = ms("gemm.cgemm")
    m["gemm.cgemm_gflops"] = raw["gemm.cgemm_flops"] / (ms("gemm.cgemm") * 1e-3) / 1e9
    for row, classes in catalog.ROWS:
        m[f"{row}_ms"] = ms(row)
        m[f"{row}_bytes"] = raw[f"{row}_bytes"]
        for cls in classes:
            m[f"{row}.{cls}_ms"] = stats.median(raw[f"{row}.{cls}_s"]) * 1e3
    m["fused.fully_fused_vs_pytorch"] = m["baseline.pytorch_ms"] / m["fused.fully_fused_ms"]
    m["gpusim.fully_fused_vs_pytorch_model"] = raw["gpusim.fully_fused_vs_pytorch_model"]
    for key in ("session", "spectral", "pointwise", "activation"):
        m[f"core.{key}_ms"] = ms(f"core.{key}")
    m["core.allocs_per_forward"] = raw["core.allocs_per_forward"]

    m["serve.inproc_lat_ms_p50_r5k"] = ms("serve.request")
    m["serve.inproc_lat_ms_p99_r5k"] = pct_ms("serve.request", 99)
    m["serve.queue_ms_p50"] = stats.median(raw["serve.queue_ms"])
    m["serve.queue_ms_p99"] = stats.percentile(raw["serve.queue_ms"], 99)
    m["serve.exec_ms_p50"] = stats.median(raw["serve.exec_ms"])
    for key in ("avg_micro_batch", "rejected", "shed", "gather_bytes", "scatter_bytes",
                "allocs_per_request"):
        m[f"serve.{key}"] = raw[f"serve.{key}"]
    m["net.socket_lat_ms_p50_r5k"] = ms("net.request")
    m["net.socket_lat_ms_p99_r5k"] = pct_ms("net.request", 99)
    m["net.hop_ms_p50"] = m["net.socket_lat_ms_p50_r5k"] - m["serve.inproc_lat_ms_p50_r5k"]
    m["net.backpressure_pauses"] = raw["net.backpressure_pauses"]
    m["net.dropped_responses"] = raw["net.dropped_responses"]
    m["shard.router_lat_ms_p50_r5k"] = ms("shard.request")
    m["shard.router_lat_ms_p99_r5k"] = pct_ms("shard.request", 99)
    m["shard.hop_ms_p50"] = m["shard.router_lat_ms_p50_r5k"] - m["net.socket_lat_ms_p50_r5k"]
    for key in ("gap_queued", "shed_by_router", "relay_ratio"):
        m[f"shard.{key}"] = raw[f"shard.{key}"]
    late = summary["loadgen.late"]["durations"]
    m["loadgen.late_ms_p99"] = stats.percentile(late, 99) * 1e3
    m["loadgen.late_ms_max"] = max(late) * 1e3
    m["trace.overhead_frac"] = (raw["session.untraced_fields_per_s"] /
                                raw["session.traced_fields_per_s"] - 1.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="regenerate BENCHMARK.json from catalog.py and exit")
    args = ap.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(catalog.spec(), f, indent=2)
            f.write("\n")
        return
    names = [n for n, _ in catalog.WORKLOADS]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}", 2)
    if not args.seconds > 0 or args.seed < 0:
        die("--seconds must be > 0 and --seed >= 0", 2)
    knobs = sorted(k for k in os.environ if k.startswith("TURBOFNO_"))
    if knobs:
        die(f"refusing to run with {', '.join(knobs)} set: every number measures the defaults",
            2)
    for need in ("CMakeLists.txt", os.path.join("src", "core", "api.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found: run from a full checkout of the repository", 2)

    build()
    work = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for stem, sched in schedules(args.seed, args.seconds).items():
            schedule.write_schedule(os.path.join(work, f"{stem}.txt"), sched)
        cpu0 = host.cpu_times()
        raw = run_binary(args, work)
        steal = host.steal_share(cpu0, host.cpu_times())
        lines = []

        def report(key, text):
            lines.append(f"# {key}: {text}")

        fp = host.fingerprint(ROOT)
        fp.update({k: raw[k] for k in ("simd_backend", "runtime_threads", "openmp",
                                       "compiler", "build_type")})
        report("host", json.dumps(fp, sort_keys=True))
        report("run", f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
               f"trace={args.trace} cpu_steal={steal:.3f}")
        if args.trace:
            metrics = per_layer(raw, os.path.join(work, "spans.tsv"), report)
            table = catalog.PER_LAYER
        else:
            metrics = end_to_end(args, raw, report)
            table = [(n, u, b) for n, u, b, _ in catalog.END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {}
    for name, unit, _ in table:
        value = metrics[name]
        result[name] = {"value": value, "unit": unit}
        report(name, f"{value} {unit}")
    print("\n".join(lines))
    # Failed operations count against `failed`; only wrong or lost outputs
    # (not typed Shed/Rejected refusals) make the run incorrect.
    failed = int(raw["failed"])
    try:
        line = json.dumps({"correct": failed == int(raw["refused"]),
                           "attempted": int(raw["attempted"]),
                           "failed": failed, "metrics": result}, allow_nan=False)
    except ValueError:
        die(f"a metric is not finite ({failed} failed operations)")
    print(line)


if __name__ == "__main__":
    main()
