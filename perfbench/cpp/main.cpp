// The measuring binary.  perfbench/run.py builds and runs it:
//
//   fnobench[_traced] --workload W --seed S --seconds T --sched-dir D
//                     --out result.json [--spans spans.tsv]
//                     [--closed-seconds C]
//
// and turns the raw measurements it writes into the named metrics.  The
// _traced binary counts heap allocations and records spans.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  fnobench::Args a;
#ifdef FNOBENCH_TRACED
  a.traced = true;
#endif
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--closed-seconds") {
      a.closed_seconds = std::stod(v);
    } else if (k == "--sched-dir") {
      a.sched_dir = v;
    } else {
      std::fprintf(stderr, "fnobench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.out.empty() || a.sched_dir.empty() || (a.traced && a.spans.empty()) ||
      !(a.seconds > 0)) {
    std::fprintf(stderr, "fnobench: missing --out/--sched-dir/--spans or bad --seconds\n");
    return 2;
  }
  try {
    if (a.workload == "fno1d_batch" || a.workload == "fno2d_real_batch") {
      return fnobench::run_batch(a);
    }
    if (a.workload == "serve_router_open") return fnobench::run_serve(a);
    std::fprintf(stderr, "fnobench: unknown workload %s\n", a.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fnobench: %s\n", e.what());
    return 1;
  }
}
