// perfbench: one measured run of one workload of the end-to-end benchmark.
//
//   perfbench --workload mc_c432 --seed 7 --seconds 15 --trace 0
//             [--out-dir .bench_build/perfbench-out]
//
// Runs from the repository root (it reads examples/netlists/c432.net).
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced jobs and reports the per-layer split.
// stdout ends with two JSON lines: the full result record (host context,
// output digest, job counts, every metric), then the summary line
// {"correct", "attempted", "failed", "metrics"}. README.md defines every
// metric. Exit status 0 iff a result was printed.
#include <sys/resource.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/trace_recorder.hpp"
#include "spice/technology.hpp"
#include "util/cli.hpp"

namespace perfbench {
namespace {

using namespace charlie;

constexpr int kSetupReps = 3;
// Events per thread ring per recorder session. Every traced job is its own
// session, so this bounds one job's spans per thread; overflow shows as
// trace.dropped.
constexpr std::size_t kRingCapacity = 1 << 15;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"job_s_p50", "s"},
    {"job_s_tail", "s"},       {"samples_per_s", "1/s"},
    {"events_per_s", "1/s"},   {"cpu_s_per_job", "s"},
    {"peak_rss_mb", "MB"},     {"ok_frac", "1"},
};

// Layer times read from benchmark spans: metric, span, scale to the unit.
struct SpanMetric {
  const char* name;
  const char* span;
  const char* unit;
  bool self_time;
  double scale;
};

const SpanMetric kSpanMetrics[] = {
    {"spice.characterize_s", "spice.characterize", "s", false, 1.0},
    {"cell.parse_s", "cell.parse", "s", false, 1.0},
    {"sim.build_s", "sim.build", "s", false, 1.0},
    {"sim.build_sharded_s", "sim.build_sharded", "s", false, 1.0},
    {"sim.batch_run_s", "sim.batch_run", "s", false, 1.0},
    {"sim.run_self_us", "batch.run", "us", true, 1e6},
    {"sim.sharded_simulate_s", "sim.sharded_simulate", "s", false, 1.0},
    {"waveform.vcd_write_s", "waveform.vcd_write", "s", false, 1.0},
    {"obs.metrics_json_s", "obs.metrics_json", "s", false, 1.0},
    {"sta.graph_build_s", "sta.graph_build", "s", false, 1.0},
    {"sta.analyze_s", "sta.analyze", "s", false, 1.0},
    {"sta.paths_s", "sta.paths", "s", false, 1.0},
    {"sta.corner_s", "sta.corner", "s", false, 1.0},
    {"sta.canonical_arcs_s", "sta.canonical_arcs", "s", false, 1.0},
    {"sta.ssta_s", "sta.ssta", "s", false, 1.0},
};

// Layer values recorded at the call (LayerSamples), reported as medians.
const Metric kSampleMetrics[] = {
    {"sim.cpu_ns_per_event", "ns"},
    {"sim.brent_fallback_frac", "1"},
    {"sim.heap_op_ns", "ns"},
    {"sim.heap_op_ns_spread", "1"},
    {"sim.on_input_ns", "ns"},
    {"sim.on_input_ns_spread", "1"},
    {"sim.crossing_ns", "ns"},
    {"sim.crossing_ns_spread", "1"},
    {"waveform.append_ns", "ns"},
    {"waveform.append_ns_spread", "1"},
    {"core.grid_interpolate_ns", "ns"},
    {"core.grid_interpolate_ns_spread", "1"},
    {"sim.binder_bind_ns", "ns"},
    {"sim.binder_bind_ns_spread", "1"},
    {"sim.shard_load_imbalance", "1"},
    {"sim.shard_empty_task_frac", "1"},
    {"sta.paths_found", "count"},
    {"sta.bound_violations", "count"},
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

// Ordered JSON object text with numeric or raw values.
class JsonObject {
 public:
  void raw(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, value);
  }
  void num(const std::string& key, double v) { raw(key, fmt(v)); }
  void str(const std::string& key, const std::string& v) { raw(key, quote(v)); }
  std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Span durations and self times per span name, from recorder sessions.
struct SpanStats {
  std::map<std::string, std::vector<double>> dur_s;
  std::map<std::string, std::vector<double>> self_s;
};

// A span's self time is its duration minus the part its child spans on the
// same thread cover (spans nest per thread: they are RAII scopes).
void absorb(const std::vector<obs::TraceEvent>& events, SpanStats& stats) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.t_start_ns != y.t_start_ns) return x.t_start_ns < y.t_start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<long long> covered(events.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const obs::TraceEvent& e = events[order[k]];
    if (e.phase != 'X') continue;
    if (k > 0 && events[order[k - 1]].tid != e.tid) open.clear();
    while (!open.empty()) {
      const obs::TraceEvent& top = events[open.back()];
      if (top.t_start_ns + top.dur_ns > e.t_start_ns) break;
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += e.dur_ns;
    open.push_back(order[k]);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.phase != 'X') continue;
    stats.dur_s[e.name].push_back(1e-9 * static_cast<double>(e.dur_ns));
    stats.self_s[e.name].push_back(
        1e-9 * static_cast<double>(e.dur_ns - covered[i]));
  }
}

// Recorder sessions of one traced run, bucketed by phase: the workload's
// own set-ups and jobs, and the cross-layer pass.
class TraceLog {
 public:
  enum Bucket { kOwn = 0, kPass = 1 };

  void begin() {
    offset_ns_ = static_cast<long long>(seconds_since(origin_) * 1e9);
    obs::TraceRecorder::start(kRingCapacity);
  }

  void end(Bucket bucket, bool keep) {
    obs::TraceRecorder::stop();
    obs::TraceRecorder::Snapshot snap = obs::TraceRecorder::collect();
    dropped_ += snap.n_dropped;
    for (obs::TraceEvent& e : snap.events) e.t_start_ns += offset_ns_;
    absorb(snap.events, stats_[bucket]);
    if (keep) {
      kept_.insert(kept_.end(), snap.events.begin(), snap.events.end());
    }
  }

  // The first bucket, own before pass, holding `span`.
  const SpanStats* holder(const std::string& span) const {
    for (const SpanStats& s : stats_) {
      if (s.dur_s.count(span) != 0) return &s;
    }
    return nullptr;
  }

  std::uint64_t dropped() const { return dropped_; }

  void write(const std::string& path) const {
    obs::TraceRecorder::Snapshot snap;
    snap.events = kept_;
    snap.n_dropped = dropped_;
    obs::write_chrome_trace(snap, path);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  long long offset_ns_ = 0;
  SpanStats stats_[2];
  std::vector<obs::TraceEvent> kept_;
  std::uint64_t dropped_ = 0;
};

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// The highest percentile with at least ten jobs beyond it is the 11th
// slowest job, percentile 100 (n - 10) / n. With ten jobs or fewer no
// percentile qualifies; the slowest job stands in (percentile 100).
double tail_percentile(std::size_t n_jobs) {
  const auto n = static_cast<double>(n_jobs);
  return n_jobs > 10 ? 100.0 * (n - 10.0) / n : 100.0;
}

double tail_job(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() > 10 ? walls.size() - 11 : walls.size() - 1];
}

std::string host_context(const Options& o, double seconds, bool trace) {
  struct sysinfo info{};
  sysinfo(&info);
  const double scale = 1.0 / static_cast<double>(1 << SI_LOAD_SHIFT);
  JsonObject c;
  c.str("workload", o.workload);
  c.num("seed", static_cast<double>(o.seed));
  c.num("seconds", seconds);
  c.num("trace", trace ? 1 : 0);
  c.num("nproc", std::thread::hardware_concurrency());
  c.num("workers", static_cast<double>(o.workers));
  c.str("grid_isa", grid_isa());
  c.str("compiler", std::string("gcc-compatible ") + __VERSION__);
  c.str("build_type", PERFBENCH_BUILD_TYPE);
  std::vector<std::string> loads;
  for (const unsigned long load : info.loads) {
    loads.push_back(fmt(static_cast<double>(load) * scale));
  }
  c.raw("loadavg", json_array(loads));
  c.num("setup_reps", kSetupReps);
  return c.text();
}

int run(const Options& o, double seconds, bool trace) {
  const std::unique_ptr<Workload> workload = make_workload(o);
  const std::string context = host_context(o, seconds, trace);
  TraceLog log;

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    if (trace) log.begin();
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(t0));
    if (trace) log.end(TraceLog::kOwn, true);
  }

  // Closed loop, one client: the next job starts when the previous one
  // has returned. In a traced run every second job is traced.
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::vector<double> walls, traced_walls, cpus;
  double samples = 0.0;
  double events = 0.0;
  const auto loop0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = trace && i % 2 == 1;
    if (traced) log.begin();
    const double cpu0 = cpu_seconds();
    const JobOutcome out = workload->job();
    cpus.push_back(cpu_seconds() - cpu0);
    if (traced) log.end(TraceLog::kOwn, i == 1);
    (traced ? traced_walls : walls).push_back(out.wall_s);
    samples += out.samples;
    events += out.events;
    attempted += out.ops.attempted + 1;  // + the digest check
    failed += out.ops.failed;
    if (!out.ops.failures.empty() && failures.empty()) {
      failures.push_back("job " + std::to_string(i) + ": " +
                         out.ops.failures.front());
    }
    if (out.digest != workload->expected_digest()) {
      ++failed;
      failures.push_back("job " + std::to_string(i) +
                         ": output digest differs from the warm-up job's");
    }
    if (seconds_since(loop0) >= seconds && (!trace || i >= 1)) break;
  }
  const double loop_s = seconds_since(loop0);

  const Ops checks = workload->verify();
  attempted += checks.attempted;
  failed += checks.failed;
  failures.insert(failures.end(), checks.failures.begin(),
                  checks.failures.end());

  JsonObject metrics;
  JsonObject values;  // name -> value, for the record
  const auto put = [&](const std::string& name, const char* unit, double v) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    metrics.raw(name, m.text());
    values.num(name, v);
  };
  const double tail_p = tail_percentile(walls.size());
  if (!trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const std::map<std::string, double> e2e = {
        {"setup_s", median(setup_s)},
        {"job_s_p50", median(walls)},
        {"job_s_tail", tail_job(walls)},
        {"samples_per_s", samples / loop_s},
        {"events_per_s", events / loop_s},
        {"cpu_s_per_job", sum(cpus) / static_cast<double>(cpus.size())},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
        {"ok_frac", static_cast<double>(attempted - failed) /
                        static_cast<double>(attempted)},
    };
    for (const Metric& m : kEndToEnd) put(m.name, m.unit, e2e.at(m.name));
  } else {
    // The set-ups left the characterization memoized: no SPICE run here.
    const auto library = std::make_shared<const cell::CellLibrary>(
        cell::CellLibrary::characterize(spice::Technology::freepdk15_like()));
    run_seam_probes(o, *library);
    log.begin();
    run_layer_pass(o, library);
    log.end(TraceLog::kPass, true);

    std::vector<std::string> missing;
    for (const SpanMetric& m : kSpanMetrics) {
      const SpanStats* s = log.holder(m.span);
      if (s == nullptr) {
        missing.push_back(m.name);
        continue;
      }
      const auto& v = m.self_time ? s->self_s.at(m.span) : s->dur_s.at(m.span);
      put(m.name, m.unit, m.scale * median(v));
    }
    for (const Metric& m : kSampleMetrics) {
      const std::vector<double>* v = layer_samples().find(m.name);
      if (v == nullptr) {
        missing.push_back(m.name);
        continue;
      }
      put(m.name, m.unit, median(*v));
    }
    // Idle share of the batch pool while BatchRunner::run is in flight.
    const SpanStats* b = log.holder("sim.batch_run");
    if (b == nullptr || b->dur_s.count("batch.run") == 0) {
      missing.push_back("util.pool_idle_frac");
    } else {
      put("util.pool_idle_frac", "1",
          1.0 - sum(b->dur_s.at("batch.run")) /
                    (static_cast<double>(o.workers) *
                     sum(b->dur_s.at("sim.batch_run"))));
    }
    put("obs.trace_overhead_frac", "1",
        median(traced_walls) / median(walls) - 1.0);
    put("trace.dropped", "count", static_cast<double>(log.dropped()));
    if (!missing.empty()) {
      for (const auto& m : missing) {
        std::fprintf(stderr, "perfbench: layer metric %s not measured\n",
                     m.c_str());
      }
      return 1;
    }
    log.write(o.out_dir + "/" + o.workload + "-seed" +
              std::to_string(o.seed) + ".trace.json");
  }

  for (std::string& f : failures) f = quote(f);
  std::vector<std::string> wall_list;
  for (const double w : walls) wall_list.push_back(fmt(w));
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(workload->expected_digest()));

  JsonObject record;
  record.raw("context", context);
  record.raw("shape", workload->shape_json());
  record.str("digest_key", workload->digest_key());
  record.str("digest", digest_hex);
  record.num("jobs", static_cast<double>(walls.size() + traced_walls.size()));
  record.num("job_s_tail_percentile", tail_p);
  record.raw("job_walls_s", json_array(wall_list));
  record.num("loop_s", loop_s);
  record.num("attempted", static_cast<double>(attempted));
  record.num("failed", static_cast<double>(failed));
  record.raw("failures", json_array(failures));
  record.raw("metrics", values.text());
  std::printf("%s\n", record.text().c_str());

  // A failed operation is counted, not fatal: "correct" covers the output
  // checks (digests, reference paths, bounds) and the run statuses.
  JsonObject summary;
  summary.raw("correct", failed == 0 ? "true" : "false");
  summary.num("attempted", static_cast<double>(attempted));
  summary.num("failed", static_cast<double>(failed));
  summary.raw("metrics", metrics.text());
  std::printf("%s\n", summary.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    charlie::util::Cli cli(argc, argv);
    Options o;
    o.workload = cli.get_string("--workload", "");
    o.seed = std::stoull(cli.get_string("--seed", "1"));
    const int seconds = cli.get_int("--seconds", 10);
    const int trace = cli.get_int("--trace", 0);
    o.out_dir = cli.get_string("--out-dir", ".bench_build/perfbench-out");
    cli.finish();
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::fprintf(stderr,
                   "perfbench: refusing to publish from a %s build; "
                   "configure with -DCMAKE_BUILD_TYPE=Release\n",
                   PERFBENCH_BUILD_TYPE);
      return 3;
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    if (seconds < 1 || (trace != 0 && trace != 1)) {
      std::fprintf(stderr, "perfbench: need --seconds >= 1, --trace 0|1\n");
      return 2;
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    o.workers = std::min<std::size_t>(4, nproc);
    std::filesystem::create_directories(o.out_dir);
    return run(o, seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
