// Steady-state heap allocations of a Monte-Carlo batch. This executable
// replaces the global operator new with a counting one, so it stands
// alone: every allocation on any thread, the batch pool's workers
// included, is counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace charlie::sim {
namespace {

// Allocations of one repeated run() on a warmed-up runner. The pool, the
// circuit clones and every worker's run arena already exist, so what is
// left is about 50 for the BatchResult of the call, plus the rare trace
// that outgrows its worker's high-water mark; nothing per run.
long allocations_of_repeated_run(const BatchConfig& config) {
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const CircuitBuilder builder(library);
  BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                     config);
  EXPECT_TRUE(runner.run().all_ok());
  const long before = g_allocations.load();
  const BatchResult result = runner.run();
  const long allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.all_ok());
  return allocations;
}

TEST(RunAllocations, NominalC432RunAllocatesNothingInSteadyState) {
  BatchConfig config;  // mc_c432's stimulus shape
  config.trace.mu = 300e-12;
  config.trace.sigma = 100e-12;
  config.trace.n_transitions = 64;
  config.n_runs = 192;
  config.n_threads = 2;
  config.t_settle = 4e-9;
  const long allocations = allocations_of_repeated_run(config);
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, static_cast<long>(config.n_runs));
}

TEST(RunAllocations, VariationC432RunAllocatesNothingInSteadyState) {
  BatchConfig config;  // stat_c432's stimulus shape
  config.trace.mu = 300e-12;
  config.trace.sigma = 100e-12;
  config.trace.n_transitions = 2;
  config.n_runs = 512;
  config.n_threads = 2;
  config.t_settle = 4e-9;
  config.variation.vdd_sigma = 0.02;
  config.variation.vth_sigma = 0.01;
  config.variation.drive_sigma = 0.03;
  config.stat_deadline = 1e-9;
  const long allocations = allocations_of_repeated_run(config);
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(allocations, static_cast<long>(config.n_runs));
}

}  // namespace
}  // namespace charlie::sim
