// perfbench: the end-to-end benchmark binary. One run generates the
// workload's inputs from --seed, measures for about --seconds, checks the
// outputs, and prints one JSON result object as its last line of stdout:
// the end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. Exit code 0 only when every output check passed.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<month-highload|wide-machine|federation|serve> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("missing value for " + key);
    }
    double number = 0.0;
    if (key == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage("unknown workload " + value);
      options.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_number(value, number) || number < 0)
        return usage("bad --seed " + value);
      options.seed = static_cast<std::uint64_t>(number);
    } else if (key == "--seconds") {
      if (!parse_number(value, number) || number <= 0 || number > 120)
        return usage("bad --seconds " + value);
      options.seconds = number;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.traced = value == "1";
    } else {
      return usage("unknown option " + key);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunOutput out;
  try {
    out = options.workload == perfbench::Workload::Serve
              ? perfbench::run_serve(options)
              : perfbench::run_simulation(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  std::cout << "workload " << perfbench::workload_name(options.workload)
            << ", seed " << options.seed << ", seconds " << options.seconds
            << ", trace " << (options.traced ? 1 : 0) << '\n';
  for (const std::string& note : out.notes) std::cout << note << '\n';
  for (const std::string& f : out.failures)
    std::cout << "CHECK FAILED: " << f << '\n';
  sbs::obs::JsonWriter w;
  w.begin_object()
      .field("correct", out.correct)
      .field("attempted", out.attempted)
      .field("failed", out.failed);
  w.key("metrics").begin_object();
  for (const perfbench::Metric& m : out.metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value).field("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
  return out.correct ? 0 : 1;
}
