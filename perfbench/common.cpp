#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "obs/trace_recorder.hpp"
#include "spice/technology.hpp"

namespace perfbench {

using namespace charlie;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quartile q of a sorted sample (n >= 2) exactly as Python's
// statistics.quantiles(v, n=4) computes it (default "exclusive" method),
// which the compare command uses too.
static double quartile(const std::vector<double>& sorted, int q) {
  const double n = static_cast<double>(sorted.size());
  const double pos = q * (n + 1.0) / 4.0;
  const double j = std::clamp(std::floor(pos), 1.0, n - 1.0);
  const auto lo = static_cast<std::size_t>(j) - 1;
  return sorted[lo] + (pos - j) * (sorted[lo + 1] - sorted[lo]);
}

double iqr_frac(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (quartile(v, 3) - quartile(v, 1)) / std::abs(m);
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double x) { bytes(&x, sizeof x); }
void Digest::add(long long x) { bytes(&x, sizeof x); }
void Digest::add(const std::string& s) { bytes(s.data(), s.size()); }

void Ops::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Ops::count(long n, long n_failed, const std::string& what) {
  attempted += n;
  if (n_failed > 0) {
    failed += n_failed;
    failures.push_back(std::to_string(n_failed) + " of " + std::to_string(n) +
                       " " + what);
  }
}

void Ops::merge(const Ops& other) {
  attempted += other.attempted;
  failed += other.failed;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

bool LayerSamples::in_pass = false;

void LayerSamples::record(const std::string& name, double value) {
  (in_pass ? pass_ : own_)[name].push_back(value);
}

const std::vector<double>* LayerSamples::find(const std::string& name) const {
  for (const auto* m : {&own_, &pass_}) {
    const auto it = m->find(name);
    if (it != m->end() && !it->second.empty()) return &it->second;
  }
  return nullptr;
}

LayerSamples& layer_samples() {
  static LayerSamples samples;
  return samples;
}

sim::ProcessVariation bench_variation() {
  sim::ProcessVariation v;
  v.vdd_sigma = 0.05;
  v.vth_sigma = 0.03;
  v.drive_sigma = 0.05;
  return v;
}

std::shared_ptr<const cell::CellLibrary> characterize_library() {
  cell::CellLibrary::reset_characterization_cache();
  obs::ScopedSpan span("spice.characterize");
  return std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::characterize(spice::Technology::freepdk15_like()));
}

std::string grid_isa() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2_fma";
  }
#endif
  return "generic";
}

}  // namespace perfbench
