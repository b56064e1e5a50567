// Shared pieces of the measuring binary: arguments, the in-memory span
// recorder, a minimal JSON writer, allocation counting and host probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/complex.hpp"

namespace fnobench {

using turbofno::c32;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out;        // result JSON written here
  std::string spans;      // span TSV written here (traced runs)
  std::string sched_dir;  // arrival schedules written by run.py
  double closed_seconds = 0.0;  // serve: closed-loop phase length
};

/// Seconds on the steady clock since an arbitrary process-wide origin.
inline double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

// ------------------------------------------------------------------ spans

/// One traced interval.  `parent` and `id` are 1-based (0 = no parent);
/// spans of one request share `req`.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::uint32_t parent = 0;
  std::uint64_t req = 0;
};

/// Keeps spans in memory and writes them out once, at the end of the run.
/// Single-threaded: load generators build their request spans after a
/// phase from the timestamps they recorded.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  std::uint32_t open(const char* name, std::uint32_t parent = 0, std::uint64_t req = 0) {
    return add(name, now_s(), -1.0, parent, req);
  }
  void close(std::uint32_t id) { spans_[id - 1].end = now_s(); }
  std::uint32_t add(const char* name, double start, double end, std::uint32_t parent,
                    std::uint64_t req) {
    spans_.push_back(Span{name, start, end, parent, req});
    return static_cast<std::uint32_t>(spans_.size());
  }
  /// TSV: id, parent, req, name, start_s, end_s.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint32_t parent = 0)
      : t_(t), id_(t.open(name, parent)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

// ------------------------------------------------------------------- JSON

/// Flat JSON object builder: scalar fields and number arrays, nested
/// objects by explicit begin/end.
class Json {
 public:
  Json() { s_ = "{"; }
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& array(const std::string& key, std::span<const double> v);
  Json& begin(const std::string& key);
  Json& end();
  [[nodiscard]] std::string finish();

 private:
  void sep_key(const std::string& key);
  std::string s_;
  bool first_ = true;
};

void write_file(const std::string& path, const std::string& text);

/// Operations of a run.  A failed operation produced a wrong output, lost
/// its response or got an unexpected status, unless the server refused it
/// with a typed Shed/Rejected (`refused`: failed, but no wrong output).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void write(Json& j) const {
    j.integer("attempted", attempted).integer("failed", failed).integer("refused", refused);
  }
};

// ------------------------------------------------------ allocation counts

/// Heap allocations counted while counting is on.  Only the traced binary
/// replaces operator new; in the untraced binary the count stays 0.
[[nodiscard]] std::uint64_t alloc_count() noexcept;
void set_alloc_counting(bool on) noexcept;

// ------------------------------------------------------------------- misc

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Relative L2 error of `a` against `ref`; +inf when `a` holds a non-finite
/// value.
[[nodiscard]] double rel_l2(std::span<const c32> a, std::span<const c32> ref);
[[nodiscard]] double rel_l2(std::span<const float> a, std::span<const float> ref);

/// The engine tests' tolerance between a backend and the PyTorch row.
inline constexpr double kRelL2Tolerance = 5e-4;

/// Library/runtime fingerprint fields (SIMD backend, threads, OpenMP,
/// compiler, build type) appended to `j`.
void fingerprint(Json& j);

}  // namespace fnobench
