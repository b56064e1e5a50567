"""The benchmark's workloads and metrics: the single source BENCHMARK.json
is generated from (run.py --write-spec) and checked against."""

WORKLOADS = [
    ("fno1d_batch",
     "paper 1D shape, Session::run, 32 Burgers fields/call, closed loop: FFT/CGEMM/iFFT "
     "kernels do the work, serve/net/shard none"),
    ("fno2d_real_batch",
     "2D Darcy, Session::run_real, 16 fields/call, closed loop: RFFT X stage, 2D transforms "
     "and fused middle; guards 2D-real against 1D-only kernel wins"),
    ("serve_router_open",
     "router + 2 workers, Poisson open loop at 2k/5k/10k req/s then 16 in flight: queue, "
     "socket and router hop dominate 30-60 us forwards"),
]

RUN_SECONDS = 10

# name, unit, better, bound.  Every workload reports every one:
#   batch workloads: fields_per_s of forwards, lat_ms_* of one forward call;
#   serve_router_open: fields_per_s = requests/s completed with 16 in flight,
#   lat_ms_* = request latency at 10000 req/s, timed from its scheduled send.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("fields_per_s", "1/s", "higher", 0.25),
    ("lat_ms_p50", "ms", "lower", 0.25),
    ("lat_ms_p90", "ms", "lower", 0.25),
]

_FFT = [
    ("fft.fwd_trunc_ms", "ms", "lower"),
    ("fft.fwd_full_slice_ms", "ms", "lower"),
    ("fft.inv_pad_ms", "ms", "lower"),
    ("fft.inv_full_ms", "ms", "lower"),
    ("fft.rfft_ms", "ms", "lower"),
    ("fft.gflops_fwd_trunc", "GFLOP/s", "higher"),
    ("fft.plan_cache_misses_steady", "count", "lower"),
]
_GEMM = [
    ("gemm.cgemm_ms", "ms", "lower"),
    ("gemm.cgemm_gflops", "GFLOP/s", "higher"),
]
# Ladder rows and the stage classes each row has at every workload's shape.
ROWS = [
    ("baseline.pytorch", ("fft", "copy", "cgemm")),
    ("fused.fftopt", ("fft", "cgemm")),
    ("fused.fused_fft_gemm", ("fused", "fft")),
    ("fused.fused_gemm_ifft", ("fused", "fft")),
    ("fused.fully_fused", ("fused",)),
]
_LADDER = [(f"{row}_ms", "ms", "lower") for row, _ in ROWS]
_LADDER += [(f"{row}.{cls}_ms", "ms", "lower") for row, classes in ROWS for cls in classes]
_LADDER += [(f"{row}_bytes", "bytes", "lower") for row, _ in ROWS]
_LADDER += [
    ("fused.fully_fused_vs_pytorch", "x", "higher"),
    ("gpusim.fully_fused_vs_pytorch_model", "x", "higher"),
]
_CORE = [
    ("core.session_ms", "ms", "lower"),
    ("core.spectral_ms", "ms", "lower"),
    ("core.pointwise_ms", "ms", "lower"),
    ("core.activation_ms", "ms", "lower"),
    ("core.allocs_per_forward", "count", "lower"),
]
_SERVE = [
    ("serve.inproc_lat_ms_p50_r5k", "ms", "lower"),
    ("serve.inproc_lat_ms_p99_r5k", "ms", "lower"),
    ("serve.queue_ms_p50", "ms", "lower"),
    ("serve.queue_ms_p99", "ms", "lower"),
    ("serve.exec_ms_p50", "ms", "lower"),
    ("serve.avg_micro_batch", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.gather_bytes", "bytes", "lower"),
    ("serve.scatter_bytes", "bytes", "lower"),
    ("serve.allocs_per_request", "count", "lower"),
]
_NET = [
    ("net.socket_lat_ms_p50_r5k", "ms", "lower"),
    ("net.socket_lat_ms_p99_r5k", "ms", "lower"),
    ("net.hop_ms_p50", "ms", "lower"),
    ("net.backpressure_pauses", "count", "lower"),
    ("net.dropped_responses", "count", "lower"),
]
_SHARD = [
    ("shard.router_lat_ms_p50_r5k", "ms", "lower"),
    ("shard.router_lat_ms_p99_r5k", "ms", "lower"),
    ("shard.hop_ms_p50", "ms", "lower"),
    ("shard.gap_queued", "count", "lower"),
    ("shard.shed_by_router", "count", "lower"),
    ("shard.relay_ratio", "frac", "higher"),
]
_VOUCH = [
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.late_ms_max", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]
PER_LAYER = _FFT + _GEMM + _LADDER + _CORE + _SERVE + _NET + _SHARD + _VOUCH


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
