#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "runtime/parallel.hpp"
#include "tensor/simd.hpp"

namespace fnobench {

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%.9f\t%.9f\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.req), s.name, s.start, s.end);
  }
  std::fclose(f);
}

void Json::sep_key(const std::string& key) {
  if (!first_) s_ += ',';
  first_ = false;
  s_ += '"';
  s_ += key;
  s_ += "\":";
}

static std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Json& Json::num(const std::string& key, double v) {
  sep_key(key);
  s_ += fmt_double(v);
  return *this;
}

Json& Json::integer(const std::string& key, std::uint64_t v) {
  sep_key(key);
  s_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& key, const std::string& v) {
  sep_key(key);
  s_ += '"';
  for (const char ch : v) {
    if (ch == '"' || ch == '\\') s_ += '\\';
    s_ += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  s_ += '"';
  return *this;
}

Json& Json::boolean(const std::string& key, bool v) {
  sep_key(key);
  s_ += v ? "true" : "false";
  return *this;
}

Json& Json::array(const std::string& key, std::span<const double> v) {
  sep_key(key);
  s_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s_ += ',';
    s_ += fmt_double(v[i]);
  }
  s_ += ']';
  return *this;
}

Json& Json::begin(const std::string& key) {
  sep_key(key);
  s_ += '{';
  first_ = true;
  return *this;
}

Json& Json::end() {
  s_ += '}';
  first_ = false;
  return *this;
}

std::string Json::finish() { return s_ + "}"; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  if (!f) throw std::runtime_error("cannot write " + path);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

template <class T, class Norm2>
static double rel_l2_impl(std::span<const T> a, std::span<const T> ref, Norm2 norm2) {
  if (a.size() != ref.size()) return INFINITY;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = norm2(a[i], ref[i]);
    const double r = norm2(ref[i], T{});
    if (!std::isfinite(d)) return INFINITY;
    num += d;
    den += r;
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double rel_l2(std::span<const c32> a, std::span<const c32> ref) {
  return rel_l2_impl(a, ref, [](c32 x, c32 y) {
    const double re = static_cast<double>(x.re) - y.re;
    const double im = static_cast<double>(x.im) - y.im;
    return re * re + im * im;
  });
}

double rel_l2(std::span<const float> a, std::span<const float> ref) {
  return rel_l2_impl(a, ref, [](float x, float y) {
    const double d = static_cast<double>(x) - y;
    return d * d;
  });
}

void fingerprint(Json& j) {
  j.str("simd_backend", turbofno::simd::active_backend());
  j.integer("runtime_threads", static_cast<std::uint64_t>(turbofno::runtime::thread_count()));
  j.boolean("openmp", turbofno::runtime::has_openmp());
  j.str("compiler", FNOBENCH_COMPILER);
  j.str("build_type", FNOBENCH_BUILD_TYPE);
}

}  // namespace fnobench
