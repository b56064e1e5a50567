// Workloads and traced probes of the measuring binary.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "core/api.hpp"

namespace fnobench {

namespace core = turbofno::core;

/// Spectral-layer shape the per-layer probes run at (one layer's input:
/// `batch` fields of `hidden` channels; spectral layers map hidden->hidden).
/// 1D shapes run the complex lane, 2D shapes the real (RFFT) lane, as the
/// workloads do.
struct LayerShape {
  bool is_2d = false;
  std::size_t batch = 0;
  std::size_t hidden = 0;
  std::size_t n = 0;      // 1D length
  std::size_t modes = 0;  // 1D retained modes
  std::size_t nx = 0, ny = 0, mx = 0, my = 0;
};

/// One model under test with a seeded input pool and the outputs of a
/// Backend::PyTorch session of the same seeded model on that pool.  1D
/// models run the complex lane (Session::run) on Burgers fields, 2D models
/// the real lane (Session::run_real) on Darcy fields.
class BatchCase {
 public:
  BatchCase(const core::Fno1dConfig& cfg, std::size_t fields, unsigned seed);
  BatchCase(const core::Fno2dConfig& cfg, std::size_t fields, unsigned seed);

  /// Registers the model with `e` and opens a session sized for a batch.
  [[nodiscard]] core::Session open(core::Engine& e) const;
  /// Runs pool batch `p` through `s` into the case's output buffer.
  void forward(core::Session& s, std::size_t p);
  /// Gates the last forward of pool batch `p`: finite and within the
  /// rel-L2 tolerance of the PyTorch-row reference.
  [[nodiscard]] bool check(std::size_t p) const;

  [[nodiscard]] std::size_t pool() const noexcept { return kPool; }
  [[nodiscard]] std::size_t fields() const noexcept { return fields_; }
  [[nodiscard]] LayerShape layer_shape() const;

 private:
  static constexpr std::size_t kPool = 4;
  void make_reference();

  bool is_2d_ = false;
  core::Fno1dConfig c1_;
  core::Fno2dConfig c2_;
  std::size_t fields_ = 0;
  std::vector<std::vector<c32>> in_c_, ref_c_;
  std::vector<std::vector<float>> in_f_, ref_f_;
  std::vector<c32> out_c_;
  std::vector<float> out_f_;
};

/// fno1d_batch / fno2d_real_batch.
int run_batch(const Args& args);
/// serve_router_open.
int run_serve(const Args& args);

/// Traced: steady-state session loop untraced and traced, allocations per
/// forward, plan-cache misses.  Every forward is gated into `tally`.
void session_section(BatchCase& bc, core::Session& s, double seconds, Tracer& tr, Json& j,
                     Tally& tally);

/// Traced: fft / gemm / ladder / gpusim / core-layer probes at `sh`.
void layer_probes(core::Session& s, const LayerShape& sh, unsigned seed, Tracer& tr, Json& j);

/// Traced: the serving topology's in-process, worker-socket and router
/// paths at 5000 req/s, plus allocations per request and layer stats.
/// Every request is gated into `tally`.
void serving_probes(const Args& args, Tracer& tr, Json& j, Tally& tally);

}  // namespace fnobench
