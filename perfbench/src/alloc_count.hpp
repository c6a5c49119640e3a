#pragma once

#include <cstdint>

// Heap-allocation counting through the global operator new replaced in
// alloc_count.cpp. Counting is per thread and off by default: the thread
// that drives a simulation opens a Sim scope around the run, and the
// timing scheduler decorator narrows it to Core around select_jobs, so the
// two counts split the run's allocations into inside and outside the
// policy. Other threads (the service under test, its client) never count.
namespace perfbench::alloc {

enum class Scope : int { Off = 0, Sim = 1, Core = 2 };

struct Counts {
  std::uint64_t sim = 0;
  std::uint64_t core = 0;
};

/// This thread's counts since the last reset().
Counts counts();
void reset();

/// Sets this thread's scope for its lifetime, restoring the previous one.
class ScopeGuard {
 public:
  explicit ScopeGuard(Scope scope);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  int previous_;
};

}  // namespace perfbench::alloc
