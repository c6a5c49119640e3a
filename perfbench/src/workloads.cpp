#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "alloc_count.hpp"
#include "exp/policy_factory.hpp"
#include "fed/federation.hpp"
#include "layers.hpp"
#include "metrics/summary.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr const char* kPolicy = "DDS/lxf/dynB";
constexpr const char* kMonth = "10/03";
constexpr double kLoad = 0.95;
/// Generator seed of the calibrated month; the benchmark seed perturbs it
/// (make_trace) instead of replacing it.
constexpr std::uint64_t kMonthSeed = 2005;
/// Half-width of the seeded submit-time jitter.
constexpr sbs::Time kJitter = 30 * sbs::kMinute;
/// Set-ups timed per month variant before its first run and after each
/// of its runs; setup_s is the median of all of them.
constexpr int kSetupSamples = 5;
/// Runs of every month variant, at least; more while they fit in
/// --seconds.
constexpr int kMinRuns = 2;
/// The federation's JSONL stream is ~8 MB per month variant.
constexpr std::size_t kStreamReserve = 32u << 20;

/// `months` seeded variants of the month make up one run: the quality and
/// throughput of a single variant swing by 7-14% from seed to seed, and
/// pooling variants narrows that spread by their square root. More variants
/// leave fewer repeated runs of each in --seconds, and the host's noise
/// grows as the repeats shrink; the counts balance the two on the prototype
/// host (a federation variant runs in a quarter of the others' time).
struct SimSpec {
  int capacity = 128;
  std::size_t node_limit = 1000;
  bool federation = false;
  int months = 1;
};

SimSpec spec_of(Workload w) {
  switch (w) {
    case Workload::WideMachine:
      return {2048, 4000, false, 3};
    case Workload::Federation:
      return {512, 1000, true, 16};
    default:
      return {128, 1000, false, 3};
  }
}

const std::vector<sbs::fed::MemberSpec>& fed_members() {
  // Unnamed members are called "c<index>".
  static const std::vector<sbs::fed::MemberSpec> members = [] {
    std::vector<sbs::fed::MemberSpec> m;
    for (const int nodes : {128, 128, 64, 64, 32, 32, 32, 32})
      m.push_back({"", nodes, nullptr});
    return m;
  }();
  return members;
}

/// Member blackouts only. Link partitions (partition_mtbf 96 h, mttr 2 h)
/// trip the federation's own exactly-once check on about one month
/// variant in fifty ("duplicate runs observed != accounted", see
/// README.md), and a workload must not fail on some seeds.
sbs::ChaosSchedule make_chaos(const sbs::Trace& trace, std::uint64_t seed) {
  sbs::ChaosSpec cs;
  cs.outage_mtbf = sbs::from_hours(72.0);
  cs.outage_mttr = sbs::from_hours(4.0);
  cs.seed = seed;
  return sbs::ChaosSchedule::from_spec(
      cs, trace.window_begin, trace.window_end,
      static_cast<int>(fed_members().size()));
}

std::uint64_t fnv(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_of(const std::vector<sbs::JobOutcome>& outcomes,
                        const std::vector<int>& owner) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const sbs::JobOutcome& o : outcomes) {
    h = fnv(h, o.job.id);
    h = fnv(h, o.start);
    h = fnv(h, o.end);
    h = fnv(h, o.completed ? 1 : 0);
    h = fnv(h, o.requeue_count);
  }
  for (const int c : owner) h = fnv(h, c);
  return h;
}

/// Output checks on one run's outcomes: every job completes exactly once
/// with its own runtime, and no machine (federation member) ever runs more
/// nodes than it has, recomputed from the start/end times alone.
void check_outcomes(const sbs::Trace& trace,
                    const std::vector<sbs::JobOutcome>& outcomes,
                    const std::vector<int>& owner,
                    const std::vector<int>& capacities, RunOutput& out) {
  if (outcomes.size() != trace.jobs.size()) {
    out.fail("outcome count " + std::to_string(outcomes.size()) +
             " != job count " + std::to_string(trace.jobs.size()));
    return;
  }
  std::vector<std::vector<std::pair<sbs::Time, int>>> edges(capacities.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const sbs::JobOutcome& o = outcomes[i];
    const sbs::Job& j = trace.jobs[i];
    if (o.job.id != j.id || !o.completed || o.end - o.start != j.runtime ||
        o.start < j.submit) {
      std::ostringstream m;
      m << "job " << j.id << " did not complete exactly once as submitted"
        << " (completed=" << o.completed << " start=" << o.start
        << " end=" << o.end << " runtime=" << j.runtime << ")";
      out.fail(m.str());
      return;
    }
    const std::size_t c =
        owner.empty() ? 0 : static_cast<std::size_t>(owner[i]);
    if (c >= capacities.size()) {
      out.fail("job " + std::to_string(j.id) + " has no owning cluster");
      return;
    }
    edges[c].push_back({o.start, j.nodes});
    edges[c].push_back({o.end, -j.nodes});
  }
  for (std::size_t c = 0; c < edges.size(); ++c) {
    std::sort(edges[c].begin(), edges[c].end());  // releases sort first
    long long used = 0;
    for (const auto& [t, delta] : edges[c]) {
      used += delta;
      if (used > capacities[c]) {
        out.fail("cluster " + std::to_string(c) + " oversubscribed at t=" +
                 std::to_string(t) + ": " + std::to_string(used) + " > " +
                 std::to_string(capacities[c]) + " nodes");
        return;
      }
    }
  }
}

/// Everything one repetition of a simulation workload measured.
struct Rep {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double wall_s = 0.0;  ///< unscaled, end_ns - start_ns
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::vector<sbs::JobOutcome> outcomes;
  std::vector<int> owner;
  sbs::SchedulerStats stats;  ///< summed over federation members
  alloc::Counts allocs;
  double route_s = 0.0;
  std::uint64_t route_calls = 0;
  double sink_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t failovers = 0;
  std::uint64_t rehomes = 0;
  std::uint64_t dedupes = 0;
};

void add_stats(sbs::SchedulerStats& to, const sbs::SchedulerStats& s) {
  to.decisions += s.decisions;
  to.nodes_visited += s.nodes_visited;
  to.cache_hits += s.cache_hits;
  to.cache_misses += s.cache_misses;
  to.pruned_twins += s.pruned_twins;
  to.pruned_bound += s.pruned_bound;
}

/// One full run of the workload from an empty machine. `composed` selects
/// the traced run's ComposedSearchPolicy over the production policy.
Rep run_rep(const SimSpec& spec, const sbs::Trace& trace,
            const sbs::ChaosSchedule& chaos, DecisionLog& log,
            Tracer* tracer, bool composed, HostProbe* host = nullptr) {
  Rep rep;
  log.clear();
  auto base = [&](std::size_t) -> std::unique_ptr<sbs::Scheduler> {
    if (composed)
      return std::make_unique<ComposedSearchPolicy>(spec.node_limit, tracer);
    return sbs::make_policy(kPolicy, spec.node_limit);
  };
  alloc::reset();

  if (!spec.federation) {
    TimingScheduler sched(base(0), log, tracer, host);
    rep.start_ns = now_ns();
    {
      const alloc::ScopeGuard scope(alloc::Scope::Sim);
      const ScopedSpan span(tracer, "sim.run");
      sbs::sim::Simulator sim(trace, sched);
      sim.run();
      rep.events = sim.events_processed();
      rep.outcomes = sim.finish().outcomes;
    }
    rep.end_ns = now_ns();
    rep.wall_s = static_cast<double>(rep.end_ns - rep.start_ns) * 1e-9;
    rep.allocs = alloc::counts();
    rep.stats = sched.stats();
    rep.digest = digest_of(rep.outcomes, rep.owner);
    return rep;
  }

  auto sink = std::make_unique<TimingSink>(
      std::make_unique<MemorySink>(kStreamReserve), tracer);
  TimingSink* timing_sink = sink.get();
  sbs::obs::Telemetry telemetry(std::move(sink));
  TimingMeta meta(sbs::fed::make_meta("best-fit"), tracer);
  std::vector<const TimingScheduler*> members;
  const sbs::fed::SchedulerFactory factory = [&](std::size_t i) {
    auto s = std::make_unique<TimingScheduler>(base(i), log, tracer, host);
    members.push_back(s.get());
    return s;
  };
  sbs::fed::FederationConfig fc;
  fc.members = fed_members();
  fc.migration.enabled = true;
  fc.chaos = &chaos;
  fc.telemetry = &telemetry;

  rep.start_ns = now_ns();
  {
    const alloc::ScopeGuard scope(alloc::Scope::Sim);
    const ScopedSpan span(tracer, "fed.run");
    sbs::fed::Federation federation(trace, factory, meta, fc);
    sbs::fed::FederationResult fr = federation.run();
    for (std::size_t i = 0; i < federation.member_count(); ++i)
      rep.events += federation.member(i).events_processed();
    rep.outcomes = std::move(fr.outcomes);
    rep.owner = std::move(fr.owner);
    rep.migrations = fr.migrations;
    rep.failovers = fr.failovers;
    rep.rehomes = fr.rehomes;
    rep.dedupes = fr.dedupes;
    for (const TimingScheduler* m : members) add_stats(rep.stats, m->stats());
  }
  rep.end_ns = now_ns();
  rep.wall_s = static_cast<double>(rep.end_ns - rep.start_ns) * 1e-9;
  rep.allocs = alloc::counts();
  rep.route_s = meta.seconds();
  rep.route_calls = meta.calls();
  rep.sink_s = timing_sink->seconds();
  rep.records = timing_sink->records();
  rep.bytes = timing_sink->bytes();
  rep.digest = digest_of(rep.outcomes, rep.owner);
  return rep;
}

/// One set-up: the trace and everything constructed before the run starts.
double time_setup(Workload w, const SimSpec& spec, std::uint64_t seed,
                  int variant, sbs::Trace& trace, sbs::ChaosSchedule& chaos) {
  const std::int64_t t0 = now_ns();
  trace = make_trace(w, seed, variant);
  if (spec.federation) {
    chaos = make_chaos(trace, seed * 1000003 + static_cast<std::uint64_t>(variant));
    const auto factory = sbs::make_policy_factory(kPolicy, spec.node_limit);
    const auto meta = sbs::fed::make_meta("best-fit");
    sbs::fed::FederationConfig fc;
    fc.members = fed_members();
    fc.chaos = &chaos;
    const sbs::fed::Federation federation(trace, factory, *meta, fc);
  } else {
    const auto policy = sbs::make_policy(kPolicy, spec.node_limit);
    const sbs::sim::Simulator sim(trace, *policy);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::vector<int> capacities_of(const SimSpec& spec) {
  if (!spec.federation) return {spec.capacity};
  std::vector<int> caps;
  for (const auto& m : fed_members()) caps.push_back(m.nodes);
  return caps;
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << v;
  return s.str();
}

/// Per-layer metrics (name, unit) of a traced run, in output order; a layer
/// the workload does not exercise reports 0. Busy times of the
/// federation-only layers are shares of the run's wall time, so a
/// single-cluster workload reports a plain 0 for them.
const std::vector<std::pair<std::string, std::string>>& sim_layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"core.select_s", "s"},
      {"core.problem_build_s", "s"},
      {"core.run_search_s", "s"},
      {"core.searched_decisions", "count"},
      {"core.nodes_visited", "count"},
      {"core.nodes_per_s", "1/s"},
      {"core.cache_hits", "count"},
      {"core.cache_misses", "count"},
      {"core.cache_hit_ratio", "frac"},
      {"core.pruned_twins", "count"},
      {"core.pruned_bound", "count"},
      {"core.queue_depth_mean", "jobs"},
      {"core.allocs", "count"},
      {"cluster.profile_steps_mean", "steps"},
      {"cluster.profile_steps_p99", "steps"},
      {"sim.events", "count"},
      {"sim.self_s", "s"},
      {"sim.allocs", "count"},
      {"fed.route_calls", "count"},
      {"fed.route_frac", "frac"},
      {"fed.migrations", "count"},
      {"fed.failovers", "count"},
      {"fed.rehomes", "count"},
      {"fed.dedupes", "count"},
      {"obs.records", "count"},
      {"obs.bytes", "bytes"},
      {"obs.sink_write_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return schema;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "month-highload") return Workload::MonthHighload;
  if (name == "wide-machine") return Workload::WideMachine;
  if (name == "federation") return Workload::Federation;
  if (name == "serve") return Workload::Serve;
  return std::nullopt;
}

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::MonthHighload: return "month-highload";
    case Workload::WideMachine: return "wide-machine";
    case Workload::Federation: return "federation";
    case Workload::Serve: return "serve";
  }
  return "?";
}

sbs::Trace make_trace(Workload w, std::uint64_t seed, int variant) {
  sbs::GeneratorConfig cfg;
  cfg.seed = kMonthSeed;
  cfg.capacity = w == Workload::Serve ? 128 : spec_of(w).capacity;
  sbs::Trace trace = sbs::rescale_to_load(sbs::generate_month(kMonth, cfg), kLoad);
  sbs::Rng rng = sbs::Rng(seed).fork(static_cast<std::uint64_t>(variant));
  for (sbs::Job& j : trace.jobs) j.submit += rng.uniform_int(-kJitter, kJitter);
  trace.normalize();
  trace.validate();
  return trace;
}

double median(std::vector<double> v) {
  SBS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  SBS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching Python process's size when that is
  // larger than the benchmark's own.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw sbs::Error("no VmHWM in /proc/self/status");
}

RunOutput run_simulation(const RunOptions& options) {
  RunOutput out;
  const SimSpec spec = spec_of(options.workload);
  const std::vector<int> caps = capacities_of(spec);
  sbs::Trace trace;
  sbs::ChaosSchedule chaos;
  DecisionLog log;

  if (options.traced) {
    time_setup(options.workload, spec, options.seed, 0, trace, chaos);
    const Rep plain = run_rep(spec, trace, chaos, log, nullptr, false);
    check_outcomes(trace, plain.outcomes, plain.owner, caps, out);
    double select_s = 0.0;
    double depth_sum = 0.0;
    std::uint64_t searched = 0;
    for (std::size_t i = 0; i < log.ns.size(); ++i) {
      select_s += static_cast<double>(log.ns[i]) * 1e-9;
      if (!log.searched[i]) continue;
      ++searched;
      depth_sum += log.queue_depth[i];
    }

    // The composed policy runs untraced and traced by turns, twice. The
    // overhead compares the faster run of each side, so it is the cost of
    // the spans and profile recording alone, and neither side alone pays
    // for the cold start. The first traced run's spans are kept.
    Tracer tracer;
    std::vector<double> steps;
    double untraced_wall = std::numeric_limits<double>::max();
    double traced_wall = std::numeric_limits<double>::max();
    for (int pass = 0; pass < 2; ++pass) {
      log.record_profile = false;
      const Rep untraced = run_rep(spec, trace, chaos, log, nullptr, true);
      log.record_profile = true;
      Tracer spare;
      const Rep traced =
          run_rep(spec, trace, chaos, log, pass == 0 ? &tracer : &spare, true);
      for (const Rep* r : {&untraced, &traced})
        if (r->digest != plain.digest)
          out.fail("composed-policy schedule digest " + hex(r->digest) +
                   " != production " + hex(plain.digest));
      if (pass == 0)
        steps.assign(log.profile_steps.begin(), log.profile_steps.end());
      untraced_wall = std::min(untraced_wall, untraced.wall_s);
      traced_wall = std::min(traced_wall, traced.wall_s);
    }
    const std::string spans_path =
        "perfbench-spans-" + workload_name(options.workload) + ".jsonl";
    tracer.write_jsonl(spans_path);
    const std::map<std::string, SpanTotals> totals = tracer.totals();
    const auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };

    std::map<std::string, double> v;
    v["core.select_s"] = select_s;
    v["core.problem_build_s"] = total("core.problem_build");
    v["core.run_search_s"] = total("core.run_search");
    v["core.searched_decisions"] = static_cast<double>(searched);
    v["core.nodes_visited"] = static_cast<double>(plain.stats.nodes_visited);
    v["core.nodes_per_s"] =
        static_cast<double>(plain.stats.nodes_visited) / select_s;
    v["core.cache_hits"] = static_cast<double>(plain.stats.cache_hits);
    v["core.cache_misses"] = static_cast<double>(plain.stats.cache_misses);
    const double lookups =
        static_cast<double>(plain.stats.cache_hits + plain.stats.cache_misses);
    v["core.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(plain.stats.cache_hits) / lookups
                    : 0.0;
    v["core.pruned_twins"] = static_cast<double>(plain.stats.pruned_twins);
    v["core.pruned_bound"] = static_cast<double>(plain.stats.pruned_bound);
    v["core.queue_depth_mean"] =
        searched ? depth_sum / static_cast<double>(searched) : 0.0;
    v["core.allocs"] = static_cast<double>(plain.allocs.core);
    if (!steps.empty()) {
      double sum = 0.0;
      for (const double s : steps) sum += s;
      v["cluster.profile_steps_mean"] = sum / static_cast<double>(steps.size());
      v["cluster.profile_steps_p99"] = quantile(steps, 0.99);
    }
    v["sim.events"] = static_cast<double>(plain.events);
    v["sim.allocs"] = static_cast<double>(plain.allocs.sim);
    // Event-loop self time. In the federation the federation loop and its
    // member loops all run inside Federation::run; from outside they are
    // one self time.
    v["sim.self_s"] = plain.wall_s - select_s - plain.route_s - plain.sink_s;
    if (spec.federation) {
      v["fed.route_calls"] = static_cast<double>(plain.route_calls);
      v["fed.route_frac"] = plain.route_s / plain.wall_s;
      v["fed.migrations"] = static_cast<double>(plain.migrations);
      v["fed.failovers"] = static_cast<double>(plain.failovers);
      v["fed.rehomes"] = static_cast<double>(plain.rehomes);
      v["fed.dedupes"] = static_cast<double>(plain.dedupes);
      v["obs.records"] = static_cast<double>(plain.records);
      v["obs.bytes"] = static_cast<double>(plain.bytes);
      v["obs.sink_write_frac"] = plain.sink_s / plain.wall_s;
    }
    v["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0;
    for (const auto& [name, unit] : sim_layer_schema())
      out.add(name, v.count(name) ? v[name] : 0.0, unit);

    out.attempted = trace.jobs.size();
    out.notes.push_back("digest " + hex(plain.digest) +
                        (out.correct ? " (every run matched)" : ""));
    out.notes.push_back("spans " + std::to_string(tracer.spans().size()) +
                        " written to " + spans_path);
    for (const auto& [name, t] : totals) {
      std::ostringstream n;
      n << "span " << name << ": count " << t.count << ", total s "
        << t.total_s << ", self s " << t.self_s;
      out.notes.push_back(n.str());
    }
    return out;
  }

  // One entry per month variant. Every timing is scaled to the nominal
  // host by the probes around it (HostProbe). Each decision's latency is
  // then the least of its scaled timings across runs, and each variant's
  // wall time the least of its runs: repeated runs are identical work, so
  // the minimum strips preemption by other tenants of the host.
  struct Month {
    sbs::Trace trace;
    sbs::ChaosSchedule chaos;
    Rep first;
    std::vector<double> best_ns;
    std::vector<std::uint8_t> searched;
    double best_wall = 0.0;
    double best_raw_wall = 0.0;
    int runs = 0;
    double last_s = 0.0;  ///< wall time of its last run, set-ups included
  };
  std::vector<Month> months(static_cast<std::size_t>(spec.months));
  HostProbe host;
  host.probe();
  // Set-ups are timed before the first run and again after every variant
  // run, so that their median spans the whole run's host drift rather than
  // the few milliseconds at its start.
  std::vector<std::int64_t> setup_at;
  std::vector<double> raw_setups;
  const auto time_setups = [&](int k, sbs::Trace& into_trace,
                               sbs::ChaosSchedule& into_chaos) {
    for (int i = 0; i < kSetupSamples; ++i) {
      setup_at.push_back(now_ns());
      raw_setups.push_back(time_setup(options.workload, spec, options.seed, k,
                                      into_trace, into_chaos));
    }
    host.probe();
  };
  for (int k = 0; k < spec.months; ++k)
    time_setups(k, months[k].trace, months[k].chaos);

  // The variants run in turn, each at least kMinRuns times, and then on
  // while the next one's run still fits in --seconds.
  double rss_mb = 0.0;  // after every variant ran once: later runs repeat it
  const std::int64_t start = now_ns();
  for (int run = 0;; ++run) {
    const int k = run % spec.months;
    Month& m = months[static_cast<std::size_t>(k)];
    const std::int64_t run_start = now_ns();
    Rep rep = run_rep(spec, m.trace, m.chaos, log, nullptr, false, &host);
    host.probe();
    if (m.runs == 0) {
      m.best_ns.assign(log.ns.size(), std::numeric_limits<double>::max());
      m.searched = log.searched;
      m.best_wall = m.best_raw_wall = std::numeric_limits<double>::max();
      check_outcomes(m.trace, rep.outcomes, rep.owner, caps, out);
    } else if (rep.digest != m.first.digest ||
               log.ns.size() != m.best_ns.size()) {
      out.fail("run " + std::to_string(m.runs) + " of variant " +
               std::to_string(k) +
               " produced a different schedule (nondeterministic run)");
      return out;
    }
    m.best_wall =
        std::min(m.best_wall, host.scaled_seconds(rep.start_ns, rep.end_ns));
    m.best_raw_wall = std::min(m.best_raw_wall, rep.wall_s);
    for (std::size_t i = 0; i < m.best_ns.size(); ++i)
      m.best_ns[i] = std::min(m.best_ns[i], static_cast<double>(log.ns[i]) *
                                                host.scale_at(log.at[i]));
    if (m.runs++ == 0) m.first = std::move(rep);
    time_setups(k, trace, chaos);  // discarded copies
    m.last_s = static_cast<double>(now_ns() - run_start) * 1e-9;

    if (run + 1 == spec.months) rss_mb = peak_rss_mb();
    const Month& next = months[static_cast<std::size_t>((k + 1) % spec.months)];
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (next.runs >= kMinRuns && elapsed + next.last_s > options.seconds)
      break;
  }

  std::vector<double> setups;
  for (std::size_t i = 0; i < raw_setups.size(); ++i)
    setups.push_back(raw_setups[i] * host.scale_at(setup_at[i]));
  std::vector<double> searched_us;
  double decisions = 0.0;
  double wall = 0.0;
  double raw_wall = 0.0;
  double avg_wait = 0.0;
  double avg_bsld = 0.0;
  double max_wait = 0.0;
  std::uint64_t completed = 0;
  for (const Month& m : months) {
    for (std::size_t i = 0; i < m.best_ns.size(); ++i)
      if (m.searched[i])
        searched_us.push_back(m.best_ns[i] * 1e-3);
    decisions += static_cast<double>(m.best_ns.size());
    wall += m.best_wall;
    raw_wall += m.best_raw_wall;
    for (const sbs::JobOutcome& o : m.first.outcomes) completed += o.completed;
    out.attempted += m.trace.jobs.size();
    const sbs::Summary summary = sbs::summarize(m.first.outcomes);
    avg_wait += summary.avg_wait_h / spec.months;
    avg_bsld += summary.avg_bounded_slowdown / spec.months;
    max_wait += summary.max_wait_h / spec.months;
  }
  SBS_CHECK_MSG(!searched_us.empty(), "no searched decisions");

  out.failed = out.attempted - completed;
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", rss_mb, "MB");
  out.add("completed_frac",
      static_cast<double>(completed) / static_cast<double>(out.attempted),
      "frac");
  out.add("decisions_per_s", decisions / wall, "1/s");
  out.add("think_p50_us", quantile(searched_us, 0.50), "us");
  out.add("think_p99_us", quantile(searched_us, 0.99), "us");
  out.add("avg_wait_h", avg_wait, "h");
  out.add("avg_bsld", avg_bsld, "ratio");
  out.add("max_wait_h", max_wait, "h");

  std::ostringstream n;
  n << "month variants " << spec.months << ", runs per variant";
  for (const Month& m : months) n << ' ' << m.runs;
  n << ", best wall s (unscaled, probes included)";
  for (const Month& m : months) n << ' ' << m.best_raw_wall;
  n << "\nunscaled: setup_s " << median(raw_setups) << " over "
    << setups.size() << " set-ups, decisions_per_s "
    << decisions / raw_wall << "\nhost probe s min " << host.min_seconds()
    << " max " << host.max_seconds();
  out.notes.push_back(n.str());
  out.notes.push_back("decisions " + std::to_string(static_cast<long long>(decisions)) +
                      ", searched " + std::to_string(searched_us.size()) +
                      " (latency sample count)");
  std::string digests = "digests";
  for (const Month& m : months) digests += " " + hex(m.first.digest);
  out.notes.push_back(digests);
  return out;
}

}  // namespace perfbench
