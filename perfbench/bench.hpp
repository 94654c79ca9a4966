// Shared pieces of the end-to-end benchmark binary (see README.md).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/process_variation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
/// Process CPU time (user + system, all threads) [s].
double cpu_seconds();

/// Median and the quartile-distance spread (IQR / median) of a sample.
double median(std::vector<double> v);
double iqr_frac(std::vector<double> v);

/// FNV-1a over the exact bytes of the values fed in: a digest of outputs
/// that must stay bit-identical.
class Digest {
 public:
  void add(double x);
  void add(long long x);
  void add(const std::string& bytes);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Operations attempted and failed (README.md, "Failures"), with the
/// failed kinds named.
struct Ops {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // one line per failed kind

  void check(bool ok, const std::string& what);
  /// `n` operations of one kind, `n_failed` of which failed.
  void count(long n, long n_failed, const std::string& what);
  void merge(const Ops& other);
};

/// Outcome of one job (one answer) of a workload.
struct JobOutcome {
  double wall_s = 0.0;   // host time of the calls that produce the answer
  double samples = 0.0;  // Monte-Carlo runs, simulations or STA corners
  double events = 0.0;   // engine events (STA: element-arc evaluations)
  Ops ops;
  std::uint64_t digest = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t workers = 1;  // min(4, nproc): pool threads and shards
  std::string out_dir;      // generated inputs and exported outputs
};

/// Per-layer values measured directly at the call (counts, CPU time,
/// returned shapes), kept apart for the workload's own calls and for the
/// cross-layer pass (see run_layer_pass).
class LayerSamples {
 public:
  void record(const std::string& name, double value);
  /// The workload's own samples if it made the call, else the pass's.
  const std::vector<double>* find(const std::string& name) const;
  static bool in_pass;

 private:
  std::map<std::string, std::vector<double>> own_;
  std::map<std::string, std::vector<double>> pass_;
};
LayerSamples& layer_samples();

/// Shared fixed inputs.
inline constexpr const char* kC432Path = "examples/netlists/c432.net";
charlie::sim::ProcessVariation bench_variation();
/// SPICE -> fit characterization with the process-wide memo cleared first,
/// so every set-up pays it.
std::shared_ptr<const charlie::cell::CellLibrary> characterize_library();

class Workload {
 public:
  virtual ~Workload() = default;
  /// One cold set-up: characterize, parse, build, and the first
  /// (warm-up) job. Called several times; the last one is kept.
  virtual void setup() = 0;
  virtual JobOutcome job() = 0;
  /// Digest of the warm-up job, the expected digest of every job.
  virtual std::uint64_t expected_digest() const = 0;
  /// Untimed checks against an independent path (1-worker batch,
  /// monolithic engine, ...), run once after the measured loop.
  virtual Ops verify() = 0;
  /// Key of the output digest: variation outputs depend on the host's
  /// grid kernel (mode_table_grid.cpp), the others on nothing.
  virtual std::string digest_key() const = 0;
  /// Fixed shape of the workload's inputs, for the result record.
  virtual std::string shape_json() const = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options);
const std::vector<std::string>& workload_names();

/// Call every layer a few times on c432 under LayerSamples::in_pass, so
/// every per-layer metric is measured in every workload's traced run; a
/// workload's own calls take precedence where it makes them.
void run_layer_pass(const Options& options,
                    std::shared_ptr<const charlie::cell::CellLibrary> library);

/// Seam probes: ns per call of single engine seams on c432's tables,
/// recorded into layer_samples() as "<name>" (median) and
/// "<name>_spread" (IQR / median over repeated batches).
void run_seam_probes(const Options& options,
                     const charlie::cell::CellLibrary& library);

/// Grid blend kernel the host dispatches (same test as
/// core/mode_table_grid.cpp's pick_blend).
std::string grid_isa();

}  // namespace perfbench
