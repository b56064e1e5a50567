// Per-layer probes of the traced run: each public layer entry point is
// called at the workload's spectral-layer shape inside a span, and the
// layer's own counters are read back through its public accessors.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bench.hpp"
#include "fft/plan_cache.hpp"
#include "fused/ladder.hpp"
#include "gemm/cgemm.hpp"
#include "gpusim/pipeline_model.hpp"

namespace fnobench {

namespace {

namespace fft = turbofno::fft;
namespace fused = turbofno::fused;
namespace trace = turbofno::trace;

constexpr std::size_t kReps = 7;

std::vector<c32> random_c32(std::size_t n, unsigned seed) {
  std::vector<c32> v(n);
  core::fill_random(v, seed);
  return v;
}

std::vector<float> random_f32(std::size_t n, unsigned seed) {
  const auto c = random_c32(n, seed);
  std::vector<float> v(n);
  std::transform(c.begin(), c.end(), v.begin(), [](c32 z) { return z.re; });
  return v;
}

/// Stage class of a pipeline stage name: separate FFT kernels, the CGEMM,
/// the baseline's memory copies, or a fused kernel.
const char* stage_class(const std::string& name) {
  if (name.rfind("fused-", 0) == 0) return "fused";
  if (name == "cgemm") return "cgemm";
  if (name.size() > 5 && name.compare(name.size() - 5, 5, "-copy") == 0) return "copy";
  return "fft";
}

struct Row {
  fused::Variant v;
  const char* name;  // span name and metric stem
};

constexpr Row kRows[] = {
    {fused::Variant::PyTorch, "baseline.pytorch"},
    {fused::Variant::FftOpt, "fused.fftopt"},
    {fused::Variant::FusedFftGemm, "fused.fused_fft_gemm"},
    {fused::Variant::FusedGemmIfft, "fused.fused_gemm_ifft"},
    {fused::Variant::FullyFused, "fused.fully_fused"},
};

void fft_probes(const LayerShape& sh, unsigned seed, Tracer& tr, Json& j) {
  // 1D: one layer's B*K lines.  2D: the Y-axis pass over the x-rows that
  // survive the X stage, and the X-axis real transform over B*K*ny lines.
  std::size_t n = sh.n, keep = sh.modes, lines = sh.batch * sh.hidden;
  std::size_t rn = sh.n, rkeep = sh.modes / 2 + 1, rlines = lines;
  if (sh.is_2d) {
    const std::size_t rows = sh.mx / 2 + 1;
    n = sh.ny;
    keep = sh.my;
    lines = sh.batch * sh.hidden * rows;
    rn = sh.nx;
    rkeep = sh.mx / 2 + 1;
    rlines = sh.batch * sh.hidden * sh.ny;
  }
  const auto fwd_trunc = fft::acquire_plan({n, fft::Direction::Forward, keep, 0, true});
  const auto fwd_full = fft::acquire_plan({n, fft::Direction::Forward, 0, 0, true});
  const auto inv_pad = fft::acquire_plan({n, fft::Direction::Inverse, 0, keep, true});
  const auto inv_full = fft::acquire_plan({n, fft::Direction::Inverse, 0, 0, true});
  const auto rfft = fft::acquire_rfft_plan(rn, rkeep);

  const auto in = random_c32(lines * n, seed);
  const auto spec = random_c32(lines * keep, seed + 1);
  std::vector<c32> full(lines * n), out(lines * n), trunc(lines * keep);
  const auto rin = random_f32(rlines * rn, seed + 2);
  std::vector<c32> rout(rlines * rkeep);

  auto fwd_slice = [&] {
    fwd_full->execute(in, full, lines);
    for (std::size_t l = 0; l < lines; ++l) {
      std::memcpy(&trunc[l * keep], &full[l * n], keep * sizeof(c32));
    }
  };
  auto pad_inv = [&] {
    std::fill(full.begin(), full.end(), c32{});
    for (std::size_t l = 0; l < lines; ++l) {
      std::memcpy(&full[l * n], &spec[l * keep], keep * sizeof(c32));
    }
    inv_full->execute(full, out, lines);
  };
  // Warm every plan and buffer once before timing.
  fwd_trunc->execute(in, trunc, lines);
  fwd_slice();
  inv_pad->execute(spec, out, lines);
  pad_inv();
  rfft->execute(rin, rout, rlines);

  const Scope root(tr, "probe.fft");
  for (std::size_t r = 0; r < kReps; ++r) {
    {
      const Scope s(tr, "fft.fwd_trunc", root.id());
      fwd_trunc->execute(in, trunc, lines);
    }
    {
      const Scope s(tr, "fft.fwd_full_slice", root.id());
      fwd_slice();
    }
    {
      const Scope s(tr, "fft.inv_pad", root.id());
      inv_pad->execute(spec, out, lines);
    }
    {
      const Scope s(tr, "fft.inv_full", root.id());
      pad_inv();
    }
    {
      const Scope s(tr, "fft.rfft", root.id());
      rfft->execute(rin, rout, rlines);
    }
  }
  j.integer("fft.fwd_trunc_flops", fwd_trunc->flops_per_signal() * lines);
}

void gemm_probe(const LayerShape& sh, unsigned seed, Tracer& tr, Json& j) {
  // M = batch * retained modes (all retained 2D bins), N = out, K = hidden.
  const std::size_t modes = sh.is_2d ? (sh.mx / 2 + 1) * sh.my : sh.modes;
  const std::size_t M = sh.batch * modes, N = sh.hidden, K = sh.hidden;
  const auto a = random_c32(M * K, seed + 3);
  const auto b = random_c32(K * N, seed + 4);
  std::vector<c32> c(M * N);
  auto run = [&] {
    turbofno::gemm::cgemm(M, N, K, c32{1.0f, 0.0f}, a.data(), K, b.data(), N, c32{}, c.data(),
                          N);
  };
  run();
  const Scope root(tr, "probe.gemm");
  for (std::size_t r = 0; r < kReps; ++r) {
    const Scope s(tr, "gemm.cgemm", root.id());
    run();
  }
  j.integer("gemm.cgemm_flops", trace::cgemm_flops(M, N, K));
}

template <class Pipe>
void ladder_row(Pipe& pipe, const Row& row, const LayerShape& sh, unsigned seed, Tracer& tr,
                std::uint32_t parent, Json& j, trace::PipelineCounters& keep) {
  const std::size_t spatial = sh.is_2d ? sh.nx * sh.ny : sh.n;
  const std::size_t elems = sh.batch * sh.hidden * spatial;
  const auto w = random_c32(sh.hidden * sh.hidden, seed + 5);
  std::vector<c32> u, v;
  std::vector<float> uf, vf;
  if (sh.is_2d) {
    uf = random_f32(elems, seed + 6);
    vf.resize(elems);
  } else {
    u = random_c32(elems, seed + 6);
    v.resize(elems);
  }
  auto run = [&] {
    if (sh.is_2d) {
      pipe.run_batched_real(uf, w, vf, sh.batch);
    } else {
      pipe.run_batched(u, w, v, sh.batch);
    }
  };
  run();
  std::map<std::string, std::vector<double>> classes;  // stage class -> seconds per rep
  for (std::size_t r = 0; r < kReps; ++r) {
    {
      const Scope s(tr, row.name, parent);
      run();
    }
    std::map<std::string, double> sums;
    for (const auto& st : pipe.counters().stages()) sums[stage_class(st.name)] += st.seconds;
    for (const auto& [cls, sec] : sums) classes[cls].push_back(sec);
  }
  for (const auto& [cls, secs] : classes) {
    j.array(std::string(row.name) + "." + cls + "_s", secs);
  }
  j.integer(std::string(row.name) + "_bytes", pipe.counters().total().bytes_total());
  keep = pipe.counters();
}

void ladder_probes(const LayerShape& sh, unsigned seed, Tracer& tr, Json& j) {
  trace::PipelineCounters base, fully;
  const Scope root(tr, "probe.ladder");
  for (const Row& row : kRows) {
    trace::PipelineCounters c;
    if (sh.is_2d) {
      const turbofno::baseline::Spectral2dProblem prob{sh.batch, sh.hidden, sh.hidden,
                                                       sh.nx,    sh.ny,     sh.mx,
                                                       sh.my};
      auto pipe = fused::make_pipeline2d(row.v, prob, /*real_input=*/true);
      ladder_row(*pipe, row, sh, seed, tr, root.id(), j, c);
    } else {
      const turbofno::baseline::Spectral1dProblem prob{sh.batch, sh.hidden, sh.hidden, sh.n,
                                                       sh.modes};
      auto pipe = fused::make_pipeline1d(row.v, prob);
      ladder_row(*pipe, row, sh, seed, tr, root.id(), j, c);
    }
    if (row.v == fused::Variant::PyTorch) base = c;
    if (row.v == fused::Variant::FullyFused) fully = c;
  }
  j.num("gpusim.fully_fused_vs_pytorch_model",
        turbofno::gpusim::predicted_speedup(turbofno::gpusim::GpuSpec{}, base, fully));
}

void core_probes(core::Session& s, const LayerShape& sh, unsigned seed, Tracer& tr) {
  const std::size_t spatial = sh.is_2d ? sh.nx * sh.ny : sh.n;
  const std::size_t elems = sh.batch * sh.hidden * spatial;
  const Scope root(tr, "probe.core");
  auto timed = [&](const char* name, auto&& fn) {
    fn();
    for (std::size_t r = 0; r < kReps; ++r) {
      const Scope sc(tr, name, root.id());
      fn();
    }
  };
  if (sh.is_2d) {
    auto& model = *s.model2d();
    const auto u = random_f32(elems, seed + 7);
    std::vector<float> v(elems);
    timed("core.spectral", [&] { model.spectral_layers()[0].forward_real(u, v, sh.batch); });
    timed("core.pointwise",
          [&] { model.residual_layers()[0].forward_real(u, v, sh.batch, spatial); });
    timed("core.activation", [&] { core::relu_inplace(std::span<float>(v)); });
  } else {
    auto& model = *s.model1d();
    const auto u = random_c32(elems, seed + 7);
    std::vector<c32> v(elems);
    timed("core.spectral", [&] { model.spectral_layers()[0].forward(u, v, sh.batch); });
    timed("core.pointwise", [&] { model.residual_layers()[0].forward(u, v, sh.batch, spatial); });
    timed("core.activation", [&] { core::relu_inplace(std::span<c32>(v)); });
  }
}

}  // namespace

void layer_probes(core::Session& s, const LayerShape& sh, unsigned seed, Tracer& tr, Json& j) {
  fft_probes(sh, seed, tr, j);
  gemm_probe(sh, seed, tr, j);
  ladder_probes(sh, seed, tr, j);
  core_probes(s, sh, seed, tr);
}

}  // namespace fnobench
