#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>

#include "alloc_count.hpp"
#include "util/error.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// HostProbe

namespace {

/// Time between probes; each probe takes ~1/20 of it.
constexpr std::int64_t kProbeIntervalNs = 200'000'000;
/// The probe's time on the prototype host when it ran fastest; scaled
/// timings read as if measured on a host where the probe takes this long.
constexpr double kProbeNominalS = 0.0044;

}  // namespace

HostProbe::HostProbe() : buffer_(8192) {}

void HostProbe::probe() {
  static volatile std::uint32_t sink = 0;
  const std::int64_t start = now_ns();
  double best = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 2; ++rep) {
    const std::int64_t t0 = now_ns();
    std::uint32_t x = 2463534242u;
    for (int it = 0; it < 10; ++it) {
      for (std::uint32_t& e : buffer_) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        e = x;
      }
      std::sort(buffer_.begin(), buffer_.end());
      sink = sink + buffer_[static_cast<std::size_t>(it)];
    }
    best = std::min(best, static_cast<double>(now_ns() - t0) * 1e-9);
  }
  samples_.push_back({start, now_ns(), best});
}

void HostProbe::probe_if_due() {
  if (samples_.empty() || now_ns() - samples_.back().end_ns >= kProbeIntervalNs)
    probe();
}

double HostProbe::stretch_scale(std::size_t i) const {
  return kProbeNominalS /
         (0.5 * (samples_[i].seconds + samples_[i + 1].seconds));
}

double HostProbe::scale_at(std::int64_t t_ns) const {
  SBS_CHECK_MSG(samples_.size() >= 2, "scaling needs a probe on each side");
  const auto after = std::upper_bound(
      samples_.begin(), samples_.end(), t_ns,
      [](std::int64_t t, const Sample& s) { return t < s.start_ns; });
  const auto i = static_cast<std::size_t>(after - samples_.begin());
  return stretch_scale(std::clamp<std::size_t>(i, 1, samples_.size() - 1) - 1);
}

double HostProbe::scaled_seconds(std::int64_t from_ns, std::int64_t to_ns) const {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
    const std::int64_t lo = std::max(from_ns, samples_[i].end_ns);
    const std::int64_t hi = std::min(to_ns, samples_[i + 1].start_ns);
    if (hi > lo)
      total += static_cast<double>(hi - lo) * 1e-9 * stretch_scale(i);
  }
  return total;
}

double HostProbe::min_seconds() const {
  double m = std::numeric_limits<double>::max();
  for (const Sample& s : samples_) m = std::min(m, s.seconds);
  return m;
}

double HostProbe::max_seconds() const {
  double m = 0.0;
  for (const Sample& s : samples_) m = std::max(m, s.seconds);
  return m;
}

// ---------------------------------------------------------------------------
// Tracer

std::size_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.decision = decision_;
  spans_.push_back(s);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_ns = now_ns();
  SBS_CHECK_MSG(!open_.empty() && open_.back() == static_cast<std::int32_t>(id),
                "spans must close in LIFO order");
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += static_cast<double>(d) * 1e-9;
    t.self_s += static_cast<double>(d - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  SBS_CHECK_MSG(out.good(), "cannot write " << path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"decision\":" << s.decision << "}\n";
  SBS_CHECK_MSG(out.good(), "write to " << path << " failed");
}

// ---------------------------------------------------------------------------
// Scheduler decorators

void DecisionLog::clear() {
  at.clear();
  ns.clear();
  searched.clear();
  queue_depth.clear();
  profile_steps.clear();
}

TimingScheduler::TimingScheduler(std::unique_ptr<sbs::Scheduler> inner,
                                 DecisionLog& log, Tracer* tracer,
                                 HostProbe* host)
    : inner_(std::move(inner)), log_(log), tracer_(tracer), host_(host) {}

std::vector<int> TimingScheduler::select_jobs(
    const sbs::SchedulerState& state) {
  const bool searched =
      state.waiting.size() >= 2 &&
      std::any_of(state.waiting.begin(), state.waiting.end(),
                  [&](const sbs::WaitingJob& w) {
                    return w.job->nodes <= state.free_nodes;
                  });
  if (log_.record_profile && searched) {
    const alloc::ScopeGuard off(alloc::Scope::Off);
    log_.profile_steps.push_back(static_cast<std::uint32_t>(
        sbs::profile_from_running(state.capacity, state.now, state.running)
            .step_count()));
  }
  if (host_) host_->probe_if_due();
  const auto id = static_cast<std::int64_t>(log_.ns.size());
  if (tracer_) tracer_->set_decision(id);
  std::vector<int> chosen;
  std::int64_t t0 = 0;
  std::int64_t elapsed = 0;
  {
    const ScopedSpan span(tracer_, "select_jobs");
    const alloc::ScopeGuard core(alloc::Scope::Core);
    t0 = now_ns();
    chosen = inner_->select_jobs(state);
    elapsed = now_ns() - t0;
  }
  if (tracer_) tracer_->set_decision(-1);
  log_.at.push_back(t0);
  log_.ns.push_back(elapsed);
  log_.searched.push_back(searched ? 1 : 0);
  log_.queue_depth.push_back(static_cast<std::uint32_t>(state.waiting.size()));
  return chosen;
}

ComposedSearchPolicy::ComposedSearchPolicy(std::size_t node_limit,
                                           Tracer* tracer)
    : bound_(sbs::BoundSpec::dynamic_bound()), tracer_(tracer) {
  config_.algo = sbs::SearchAlgo::Dds;
  config_.branching = sbs::Branching::Lxf;
  config_.node_limit = node_limit;
}

std::vector<int> ComposedSearchPolicy::select_jobs(
    const sbs::SchedulerState& state) {
  std::vector<int> started;
  if (std::none_of(state.waiting.begin(), state.waiting.end(),
                   [&](const sbs::WaitingJob& w) {
                     return w.job->nodes <= state.free_nodes;
                   }))
    return started;
  sbs::SearchProblem problem;
  {
    const ScopedSpan span(tracer_, "core.problem_build");
    problem = sbs::SearchProblem::from_state(state, bound_);
  }
  if (problem.size() == 0) return started;
  sbs::SearchResult result;
  {
    const ScopedSpan span(tracer_, "core.run_search");
    result = sbs::run_search(problem, config_);
  }
  for (std::size_t i = 0; i < problem.size(); ++i)
    if (result.starts[i] == state.now)
      started.push_back(problem.jobs[i].job->id);
  return started;
}

// ---------------------------------------------------------------------------
// Federation and telemetry decorators

TimingMeta::TimingMeta(std::unique_ptr<sbs::fed::MetaScheduler> inner,
                       Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

int TimingMeta::route(const sbs::Job& job, sbs::Time estimate,
                      std::span<const sbs::fed::ClusterProbe> probes) {
  const ScopedSpan span(tracer_, "fed.route");
  const std::int64_t t0 = now_ns();
  const int target = inner_->route(job, estimate, probes);
  ns_ += now_ns() - t0;
  ++calls_;
  return target;
}

TimingSink::TimingSink(std::unique_ptr<sbs::obs::TraceSink> inner,
                       Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TimingSink::write(std::string_view json_line) {
  const ScopedSpan span(tracer_, "obs.write");
  const std::int64_t t0 = now_ns();
  inner_->write(json_line);
  ns_ += now_ns() - t0;
  ++records_;
  bytes_ += json_line.size() + 1;  // the sink appends a newline
}

}  // namespace perfbench
