// Batch workloads: closed loop, one caller, Session::run / run_real on a
// seeded pool of physical fields.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "fft/plan_cache.hpp"

namespace fnobench {

namespace {

// A run holds at least this many forwards so that ten lie beyond p90.
constexpr std::size_t kMinForwards = 100;
// Set-up is repeated and its median reported.
constexpr std::size_t kSetupReps = 5;

unsigned pool_seed(unsigned seed, std::size_t p) {
  return seed * 2654435761u + static_cast<unsigned>(p) * 40503u + 1u;
}

}  // namespace

BatchCase::BatchCase(const core::Fno1dConfig& cfg, std::size_t fields, unsigned seed)
    : is_2d_(false), c1_(cfg), fields_(fields) {
  const std::size_t elems = fields * cfg.in_channels * cfg.n;
  for (std::size_t p = 0; p < kPool; ++p) {
    in_c_.emplace_back(elems);
    core::burgers_batch(in_c_.back(), fields, cfg.in_channels, cfg.n, pool_seed(seed, p));
  }
  out_c_.resize(fields * cfg.out_channels * cfg.n);
  make_reference();
}

BatchCase::BatchCase(const core::Fno2dConfig& cfg, std::size_t fields, unsigned seed)
    : is_2d_(true), c2_(cfg), fields_(fields) {
  const std::size_t elems = fields * cfg.in_channels * cfg.nx * cfg.ny;
  std::vector<c32> tmp(elems);
  for (std::size_t p = 0; p < kPool; ++p) {
    core::darcy_batch(tmp, fields, cfg.in_channels, cfg.nx, cfg.ny, pool_seed(seed, p));
    in_f_.emplace_back(elems);
    std::transform(tmp.begin(), tmp.end(), in_f_.back().begin(), [](c32 z) { return z.re; });
  }
  out_f_.resize(fields * cfg.out_channels * cfg.nx * cfg.ny);
  make_reference();
}

core::Session BatchCase::open(core::Engine& e) const {
  const auto h = is_2d_ ? e.register_model(c2_) : e.register_model(c1_);
  return e.create_session(h, fields_);
}

void BatchCase::forward(core::Session& s, std::size_t p) {
  if (is_2d_) {
    s.run_real(in_f_[p], out_f_, fields_);
  } else {
    s.run(in_c_[p], out_c_, fields_);
  }
}

bool BatchCase::check(std::size_t p) const {
  const double err = is_2d_ ? rel_l2(out_f_, ref_f_[p]) : rel_l2(out_c_, ref_c_[p]);
  return err <= kRelL2Tolerance;
}

void BatchCase::make_reference() {
  core::Engine e;
  core::ModelHandle h = 0;
  if (is_2d_) {
    auto cfg = c2_;
    cfg.backend = core::Backend::PyTorch;
    h = e.register_model(cfg);
  } else {
    auto cfg = c1_;
    cfg.backend = core::Backend::PyTorch;
    h = e.register_model(cfg);
  }
  auto s = e.create_session(h, fields_);
  for (std::size_t p = 0; p < kPool; ++p) {
    forward(s, p);
    if (is_2d_) {
      ref_f_.push_back(out_f_);
    } else {
      ref_c_.push_back(out_c_);
    }
  }
}

LayerShape BatchCase::layer_shape() const {
  LayerShape sh;
  sh.is_2d = is_2d_;
  sh.batch = fields_;
  if (is_2d_) {
    sh.hidden = c2_.hidden;
    sh.nx = c2_.nx;
    sh.ny = c2_.ny;
    sh.mx = c2_.modes_x;
    sh.my = c2_.modes_y;
  } else {
    sh.hidden = c1_.hidden;
    sh.n = c1_.n;
    sh.modes = c1_.modes;
  }
  return sh;
}

void session_section(BatchCase& bc, core::Session& s, double seconds, Tracer& tr, Json& j,
                     Tally& tally) {
  std::size_t p = 0;
  auto step = [&](bool traced, std::uint32_t parent) {
    const std::size_t q = p++ % bc.pool();
    if (traced) {
      const Scope sc(tr, "core.session", parent);
      bc.forward(s, q);
    } else {
      bc.forward(s, q);
    }
    tally.add(bc.check(q));
  };
  // Warm the session, then time the loop untraced and traced for a
  // quarter of the run each; their ratio is the tracing overhead.
  step(false, 0);
  step(false, 0);
  double rate[2] = {0.0, 0.0};
  turbofno::fft::PlanCacheStats before{};
  turbofno::fft::PlanCacheStats after{};
  for (int traced = 0; traced < 2; ++traced) {
    const std::uint32_t root = traced ? tr.open("probe.session") : 0;
    if (traced) before = turbofno::fft::plan_cache_stats();
    double busy = 0.0;
    std::size_t calls = 0;
    const double t_end = now_s() + seconds / 4;
    while (now_s() < t_end || calls < 10) {
      const double t0 = now_s();
      step(traced != 0, root);
      busy += now_s() - t0;
      ++calls;
    }
    if (traced) {
      after = turbofno::fft::plan_cache_stats();
      tr.close(root);
    }
    rate[traced] = static_cast<double>(calls * bc.fields()) / busy;
  }
  j.num("session.untraced_fields_per_s", rate[0]);
  j.num("session.traced_fields_per_s", rate[1]);
  j.integer("fft.plan_cache_misses_steady", after.misses - before.misses);

  constexpr std::size_t kAllocForwards = 10;
  const std::uint64_t a0 = alloc_count();
  set_alloc_counting(true);
  for (std::size_t i = 0; i < kAllocForwards; ++i) bc.forward(s, i % bc.pool());
  set_alloc_counting(false);
  j.num("core.allocs_per_forward",
        static_cast<double>(alloc_count() - a0) / static_cast<double>(kAllocForwards));
}

int run_batch(const Args& args) {
  const bool two_d = args.workload == "fno2d_real_batch";
  core::Fno1dConfig c1;  // {in 1, hidden 64, out 1, n 256, modes 64, layers 4}
  c1.in_channels = 1;
  c1.hidden = 64;
  c1.out_channels = 1;
  c1.n = 256;
  c1.modes = 64;
  c1.layers = 4;
  core::Fno2dConfig c2;  // {1, 32, 1, 64, 64, 16, 16, 4}
  c2.in_channels = 1;
  c2.hidden = 32;
  c2.out_channels = 1;
  c2.nx = 64;
  c2.ny = 64;
  c2.modes_x = 16;
  c2.modes_y = 16;
  c2.layers = 4;
  BatchCase bc = two_d ? BatchCase(c2, 16, args.seed) : BatchCase(c1, 32, args.seed);

  Json j;
  fingerprint(j);
  Tally tally;

  if (args.traced) {
    Tracer tr;
    core::Engine e;
    auto s = bc.open(e);
    session_section(bc, s, args.seconds, tr, j, tally);
    layer_probes(s, bc.layer_shape(), args.seed, tr, j);
    serving_probes(args, tr, j, tally);
    tr.write(args.spans);
  } else {
    // Set-up: Engine + register + create_session + first forward, from a
    // cold plan cache each time.
    std::vector<double> setup;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      turbofno::fft::plan_cache_clear();
      const double t0 = now_s();
      core::Engine e;
      auto s = bc.open(e);
      bc.forward(s, 0);
      setup.push_back(now_s() - t0);
      tally.add(bc.check(0));
    }
    core::Engine e;
    auto s = bc.open(e);
    bc.forward(s, 0);
    std::vector<double> forward_s;
    const double t_end = now_s() + args.seconds;
    // The hard cap keeps a pathologically slow build inside the run limit.
    const double t_cap = now_s() + std::max(4 * args.seconds, 60.0);
    for (std::size_t i = 0;
         (now_s() < t_end || forward_s.size() < kMinForwards) && now_s() < t_cap; ++i) {
      const std::size_t p = i % bc.pool();
      const double t0 = now_s();
      bc.forward(s, p);
      forward_s.push_back(now_s() - t0);
      tally.add(bc.check(p));
    }
    j.array("setup_s", setup);
    j.array("forward_s", forward_s);
    j.integer("fields_per_call", bc.fields());
    j.num("peak_rss_mb", peak_rss_mb());
  }
  tally.write(j);
  write_file(args.out, j.finish());
  return 0;
}

}  // namespace fnobench
