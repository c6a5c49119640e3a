#pragma once

// Layer instrumentation from outside the program: decorators that wrap the
// calls into each layer through its public interface (sbs::Scheduler,
// fed::MetaScheduler, obs::TraceSink), plus the in-memory span recorder of
// the traced run. Nothing here changes what the wrapped object decides.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "fed/meta_scheduler.hpp"
#include "obs/trace_sink.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// steady_clock in nanoseconds.
std::int64_t now_ns();

/// Host-speed probe: a fixed sort workload that lives in the benchmark, not
/// in the program, timed between pieces of measured work. On a shared host
/// the program slows down with other tenants' cache pressure, and the probe
/// slows down with it, so a timing scaled by the probes around it reads
/// what a host of nominal speed would have measured. The host's speed moves
/// by a third within seconds, so the probe runs every few hundred
/// milliseconds, from the scheduler decorator, outside the timed calls.
class HostProbe {
 public:
  HostProbe();

  /// Times the probe now.
  void probe();
  /// Probes when the last probe is at least kInterval old.
  void probe_if_due();

  /// Scale of a timing taken at `t_ns`: nominal probe time over the mean of
  /// the probes on either side of it.
  double scale_at(std::int64_t t_ns) const;
  /// The interval [from_ns, to_ns) in seconds, each stretch between two
  /// probes scaled by them, the probes' own time left out.
  double scaled_seconds(std::int64_t from_ns, std::int64_t to_ns) const;

  double min_seconds() const;
  double max_seconds() const;

 private:
  struct Sample {
    std::int64_t start_ns;
    std::int64_t end_ns;
    double seconds;
  };
  /// Scale of the stretch between samples_[i] and samples_[i + 1].
  double stretch_scale(std::size_t i) const;

  std::vector<std::uint32_t> buffer_;  // preallocated: probing never allocates
  std::vector<Sample> samples_;
};

/// One traced interval. `parent` indexes the enclosing span (-1 = root);
/// `decision` is the scheduler call the span belongs to (-1 = none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t decision = -1;
};

/// Total and self time (duration minus the time covered by direct
/// children) of all spans sharing one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Records spans in memory on one thread; written out after the run.
class Tracer {
 public:
  std::size_t begin(const char* name);
  void end(std::size_t id);

  /// Decision id stamped on spans begun from here on.
  void set_decision(std::int64_t decision) { decision_ = decision; }

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> totals() const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int64_t decision_ = -1;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// What the timing decorator saw at each scheduler call, in call order.
/// A call is a searched decision when at least two jobs wait and one of
/// them fits the free nodes — the calls where a search actually runs.
struct DecisionLog {
  std::vector<std::int64_t> at;  ///< now_ns() when the call started
  std::vector<std::int64_t> ns;
  std::vector<std::uint8_t> searched;
  std::vector<std::uint32_t> queue_depth;
  /// Steps of profile_from_running at searched calls; filled only when
  /// record_profile is set (the traced run), as it costs a profile build.
  std::vector<std::uint32_t> profile_steps;
  bool record_profile = false;

  void clear();
};

/// Times every select_jobs call of the wrapped policy and narrows the
/// allocation-count scope to Core around it. With a host probe, it probes
/// between calls when one is due.
class TimingScheduler final : public sbs::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<sbs::Scheduler> inner, DecisionLog& log,
                  Tracer* tracer, HostProbe* host);

  std::vector<int> select_jobs(const sbs::SchedulerState& state) override;
  std::string name() const override { return inner_->name(); }
  sbs::SchedulerStats stats() const override { return inner_->stats(); }
  void set_collect_decision_detail(bool on) override {
    inner_->set_collect_decision_detail(on);
  }
  const sbs::DecisionDetail* last_decision() const override {
    return inner_->last_decision();
  }

 private:
  std::unique_ptr<sbs::Scheduler> inner_;
  DecisionLog& log_;
  Tracer* tracer_;
  HostProbe* host_;
};

/// The traced run's policy: the same search the production SearchScheduler
/// runs for "DDS/lxf/dynB" without warm start, fair share or refinement,
/// composed from the public SearchProblem::from_state and run_search so the
/// problem build and the search each get a child span. The run must give
/// the untraced run's schedule; the benchmark checks the digests.
class ComposedSearchPolicy final : public sbs::Scheduler {
 public:
  ComposedSearchPolicy(std::size_t node_limit, Tracer* tracer);

  std::vector<int> select_jobs(const sbs::SchedulerState& state) override;
  std::string name() const override { return "DDS/lxf/dynB"; }

 private:
  sbs::SearchConfig config_;
  sbs::BoundSpec bound_;
  Tracer* tracer_;
};

/// Times and counts routing decisions.
class TimingMeta final : public sbs::fed::MetaScheduler {
 public:
  TimingMeta(std::unique_ptr<sbs::fed::MetaScheduler> inner, Tracer* tracer);

  int route(const sbs::Job& job, sbs::Time estimate,
            std::span<const sbs::fed::ClusterProbe> probes) override;
  std::string name() const override { return inner_->name(); }
  bool wants_probe() const override { return inner_->wants_probe(); }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(std::string_view state) override {
    inner_->restore_state(state);
  }

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  std::unique_ptr<sbs::fed::MetaScheduler> inner_;
  Tracer* tracer_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

/// Times and counts telemetry writes.
class TimingSink final : public sbs::obs::TraceSink {
 public:
  TimingSink(std::unique_ptr<sbs::obs::TraceSink> inner, Tracer* tracer);

  void write(std::string_view json_line) override;
  void flush() override { inner_->flush(); }

  std::uint64_t records() const { return records_; }
  std::uint64_t bytes() const { return bytes_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  std::unique_ptr<sbs::obs::TraceSink> inner_;
  Tracer* tracer_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::int64_t ns_ = 0;
};

/// Keeps the JSONL stream in memory, as a file on tmpfs would: no disk
/// writeback or fsync enters the measured run.
class MemorySink final : public sbs::obs::TraceSink {
 public:
  /// Reserving the stream's size up front keeps buffer growth out of the
  /// allocation counts.
  explicit MemorySink(std::size_t reserve_bytes = 0) {
    text_.reserve(reserve_bytes);
  }

  void write(std::string_view json_line) override {
    text_.append(json_line);
    text_.push_back('\n');
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

}  // namespace perfbench
