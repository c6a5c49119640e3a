#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jobs/trace.hpp"

namespace perfbench {

enum class Workload { MonthHighload, WideMachine, Federation, Serve };

std::optional<Workload> parse_workload(std::string_view name);
std::string workload_name(Workload w);

struct RunOptions {
  Workload workload = Workload::MonthHighload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark run's result. `correct` is false when any output check
/// failed; `failures` says which.
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< human-readable run facts

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

/// Month variant `variant` of the workload's trace for one seed: NCSA month
/// 10/03 generated for the workload's machine size and rescaled to load
/// 0.95, then every submit time jittered by an offset drawn from the
/// (seed, variant) stream (see README.md, "Seeds").
sbs::Trace make_trace(Workload w, std::uint64_t seed, int variant);

RunOutput run_simulation(const RunOptions& options);  // month-highload,
                                                      // wide-machine,
                                                      // federation
RunOutput run_serve(const RunOptions& options);

// Shared helpers.
double median(std::vector<double> v);
/// Nearest-rank quantile of an unsorted sample (q in (0, 1]).
double quantile(std::vector<double> v, double q);
double peak_rss_mb();

}  // namespace perfbench
