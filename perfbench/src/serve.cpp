// The serve workload: an in-process SchedulerService on its own thread and
// one open-loop client connection that replays the month's job shapes at
// their compressed submit times. Each request is timed from when it was
// due, so a stall that delays later sends counts against them too.

#include <time.h>

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kSocket = "perfbench-serve.sock";
/// Requests per replay; the submit-time span they cover is compressed into
/// kReplayShare of the run's seconds.
constexpr std::size_t kRequests = 3000;
constexpr double kReplayShare = 0.75;
constexpr int kSetupSamples = 7;
/// The generator sleeps until this long before a request is due, then
/// spins, so timer wake-up latency does not count as server latency.
constexpr std::int64_t kSpinNs = 300'000;

struct Replay {
  std::vector<sbs::service::SubmitRequest> requests;
  std::vector<std::int64_t> due_ns;  ///< offsets from the replay start
  std::int64_t time_scale = 1;       ///< virtual seconds per wall second
};

/// The first kRequests in-window jobs, their submit times compressed so the
/// replay lasts `seconds`.
Replay make_replay(const sbs::Trace& trace, double seconds) {
  Replay r;
  std::size_t first = 0;
  while (first < trace.jobs.size() && !trace.jobs[first].in_window) ++first;
  const std::size_t n = std::min(kRequests, trace.jobs.size() - first);
  SBS_CHECK_MSG(n >= 2, "trace too short for the serve replay");
  const sbs::Time t0 = trace.jobs[first].submit;
  const sbs::Time span = trace.jobs[first + n - 1].submit - t0;
  r.time_scale = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(span) / seconds));
  for (std::size_t i = first; i < first + n; ++i) {
    const sbs::Job& j = trace.jobs[i];
    sbs::service::SubmitRequest s;
    s.nodes = j.nodes;
    s.runtime = j.runtime;
    s.requested = j.requested;
    s.user = j.user;
    r.requests.push_back(s);
    r.due_ns.push_back((j.submit - t0) * 1'000'000'000LL / r.time_scale);
  }
  return r;
}

sbs::service::ServiceConfig service_config(const Replay& replay) {
  sbs::service::ServiceConfig cfg;
  cfg.socket_path = kSocket;
  cfg.capacity = 128;
  cfg.policy = "DDS/lxf/dynB";
  cfg.node_limit = 1000;
  cfg.time_scale = replay.time_scale;
  // At these time scales the default 10 ms batching window spans half an
  // hour of machine time and starves the machine between decisions.
  cfg.batch_ms = 1;
  return cfg;
}

void wait_until(std::int64_t deadline_ns) {
  const std::int64_t sleep_to = deadline_ns - kSpinNs;
  if (now_ns() < sleep_to) {
    timespec ts{};
    ts.tv_sec = sleep_to / 1'000'000'000LL;
    ts.tv_nsec = sleep_to % 1'000'000'000LL;
    // steady_clock is CLOCK_MONOTONIC on Linux.
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (now_ns() < deadline_ns) {
  }
}

struct ServeRun {
  double wall_s = 0.0;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t accepted = 0;
  sbs::service::ServiceStats stats;
  std::string telemetry;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  double sink_s = 0.0;
};

ServeRun replay_once(const Replay& replay, Tracer* tracer) {
  ServeRun run;
  auto memory = std::make_unique<MemorySink>();
  const MemorySink* lines = memory.get();
  // The sink runs on the service thread, so it records no spans.
  auto sink = std::make_unique<TimingSink>(std::move(memory), nullptr);
  const TimingSink* timing = sink.get();
  sbs::obs::Telemetry telemetry(std::move(sink));
  std::atomic<bool> stop{false};
  sbs::service::ServiceConfig cfg = service_config(replay);
  cfg.telemetry = &telemetry;
  cfg.interrupt = &stop;
  sbs::service::SchedulerService service(cfg);

  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      run.stats = service.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  std::exception_ptr client_error;
  const std::int64_t start = now_ns() + 20'000'000;  // let the server settle
  try {
    sbs::service::Client client(cfg.socket_path, 10'000);
    for (std::size_t i = 0; i < replay.requests.size(); ++i) {
      const std::int64_t due = start + replay.due_ns[i];
      wait_until(due);
      if (tracer) tracer->set_decision(static_cast<std::int64_t>(i));
      const ScopedSpan span(tracer, "service.request");
      const std::int64_t sent = now_ns();
      const sbs::obs::JsonValue resp = client.submit(replay.requests[i]);
      const std::int64_t done = now_ns();
      run.lag_us.push_back(static_cast<double>(sent - due) * 1e-3);
      run.latency_us.push_back(static_cast<double>(done - due) * 1e-3);
      const sbs::obs::JsonValue* status = resp.find("status");
      if (status != nullptr && status->as_string() == "accepted")
        ++run.accepted;
    }
    if (tracer) tracer->set_decision(-1);
    client.drain();
  } catch (...) {
    client_error = std::current_exception();
    stop = true;
  }
  server.join();
  run.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (server_error) std::rethrow_exception(server_error);
  if (client_error) std::rethrow_exception(client_error);
  run.telemetry = lines->text();
  run.records = timing->records();
  run.bytes = timing->bytes();
  run.sink_s = timing->seconds();
  return run;
}

/// Job starts and the policy's per-decision counters, read back from the
/// service's telemetry stream.
struct StreamFacts {
  std::uint64_t starts = 0;
  std::uint64_t searched = 0;
  double think_s = 0.0;
  double nodes = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double depth_sum = 0.0;
};

StreamFacts read_stream(const std::string& text) {
  StreamFacts f;
  const auto num = [](const sbs::obs::JsonValue& v, std::string_view key) {
    const sbs::obs::JsonValue* x = v.find(key);
    SBS_CHECK_MSG(x != nullptr, "telemetry record lacks \"" << key << '"');
    return x->as_double();
  };
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const sbs::obs::JsonValue v = sbs::obs::parse_json(line);
    const std::string type = v.find("type")->as_string();
    if (type == "start") {
      ++f.starts;
    } else if (type == "decision") {
      const double nodes = num(v, "nodes_visited");
      f.think_s += num(v, "think_us") * 1e-6;
      f.nodes += nodes;
      f.cache_hits += num(v, "cache_hits");
      f.cache_misses += num(v, "cache_misses");
      const double depth = num(v, "queue_depth");
      if (depth >= 2 && nodes > 0) {
        ++f.searched;
        f.depth_sum += depth;
      }
    }
  }
  return f;
}

const std::pair<const char*, const char*> kServeLayers[] = {
    {"core.select_s", "s"},
    {"core.searched_decisions", "count"},
    {"core.nodes_visited", "count"},
    {"core.nodes_per_s", "1/s"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_hit_ratio", "frac"},
    {"core.queue_depth_mean", "jobs"},
    {"obs.records", "count"},
    {"obs.bytes", "bytes"},
    {"obs.sink_write_frac", "frac"},
    {"service.requests", "count"},
    {"service.admitted", "count"},
    {"service.rejected", "count"},
    {"service.decisions", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_frac", "frac"},
};

}  // namespace

RunOutput run_serve(const RunOptions& options) {
  RunOutput out;
  sbs::Trace trace;
  std::vector<double> setups;
  const double replay_s =
      options.seconds * kReplayShare * (options.traced ? 0.5 : 1.0);
  for (int i = 0; i < (options.traced ? 1 : kSetupSamples); ++i) {
    const std::int64_t t0 = now_ns();
    trace = make_trace(Workload::Serve, options.seed, 0);
    const Replay replay = make_replay(trace, replay_s);
    const sbs::service::SchedulerService service(service_config(replay));
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const Replay replay = make_replay(trace, replay_s);

  const ServeRun run = replay_once(replay, nullptr);
  const auto attempted = static_cast<std::uint64_t>(replay.requests.size());
  if (run.accepted != run.stats.admitted)
    out.fail("client saw " + std::to_string(run.accepted) +
             " accepted submissions, server admitted " +
             std::to_string(run.stats.admitted));
  if (run.stats.completed != run.stats.admitted)
    out.fail("server completed " + std::to_string(run.stats.completed) +
             " of " + std::to_string(run.stats.admitted) + " admitted jobs");
  const StreamFacts facts = read_stream(run.telemetry);
  if (facts.starts != run.stats.admitted)
    out.fail("telemetry shows " + std::to_string(facts.starts) +
             " job starts for " + std::to_string(run.stats.admitted) +
             " admitted jobs");
  out.attempted = attempted;
  out.failed = attempted - run.stats.completed;

  if (options.traced) {
    Tracer tracer;
    const ServeRun traced = replay_once(replay, &tracer);
    tracer.write_jsonl("perfbench-spans-serve.jsonl");
    double busy = 0.0;
    double traced_busy = 0.0;
    for (const double us : run.latency_us) busy += us;
    for (const double us : traced.latency_us) traced_busy += us;
    const double lookups = facts.cache_hits + facts.cache_misses;
    std::map<std::string, double> v;
    v["core.select_s"] = facts.think_s;
    v["core.searched_decisions"] = static_cast<double>(facts.searched);
    v["core.nodes_visited"] = facts.nodes;
    v["core.nodes_per_s"] = facts.think_s > 0 ? facts.nodes / facts.think_s : 0;
    v["core.cache_hits"] = facts.cache_hits;
    v["core.cache_misses"] = facts.cache_misses;
    v["core.cache_hit_ratio"] = lookups > 0 ? facts.cache_hits / lookups : 0.0;
    v["core.queue_depth_mean"] =
        facts.searched ? facts.depth_sum / static_cast<double>(facts.searched)
                       : 0.0;
    v["obs.records"] = static_cast<double>(run.records);
    v["obs.bytes"] = static_cast<double>(run.bytes);
    v["obs.sink_write_frac"] = run.sink_s / run.wall_s;
    v["service.requests"] = static_cast<double>(run.stats.requests);
    v["service.admitted"] = static_cast<double>(run.stats.admitted);
    v["service.rejected"] =
        static_cast<double>(run.stats.rejected_backpressure +
                            run.stats.rejected_shed + run.stats.rejected_drain);
    v["service.decisions"] = static_cast<double>(run.stats.decisions);
    v["loadgen.lag_p99_us"] = quantile(run.lag_us, 0.99);
    // Client time blocked on the service, traced against untraced: the
    // replay's wall time is fixed by its schedule.
    v["trace.overhead_frac"] = traced_busy / busy - 1.0;
    for (const auto& [name, unit] : kServeLayers) out.add(name, v[name], unit);
    out.notes.push_back("spans " + std::to_string(tracer.spans().size()) +
                        " written to perfbench-spans-serve.jsonl");
    return out;
  }

  // The schedule depends on wall-clock batching, so no quality metrics.
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("completed_frac",
      static_cast<double>(run.stats.completed) / static_cast<double>(attempted),
      "frac");
  out.add("request_p50_us", quantile(run.latency_us, 0.50), "us");
  out.add("request_p99_us", quantile(run.latency_us, 0.99), "us");
  std::ostringstream n;
  n << "requests " << attempted << " (latency sample count), time scale "
    << replay.time_scale << ", wall s " << run.wall_s << ", decisions "
    << run.stats.decisions << ", lag p99 us " << quantile(run.lag_us, 0.99);
  out.notes.push_back(n.str());
  return out;
}

}  // namespace perfbench
