#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <type_traits>

namespace prbench {

namespace {

/// Times one sampled hook call. The first clock read brings the clock's
/// data back into cache after the simulator's own work evicted it; the
/// empty pair after it measures, in place, what the clock adds to the
/// timed call.
class HookTimer {
 public:
  HookTimer() {
    (void)now_ns();
    const std::int64_t t0 = now_ns();
    start_ = now_ns();
    clock_ = start_ - t0;
  }
  void stop(RunTrace& trace, Hook hook) const {
    trace.add_sample(hook, now_ns() - start_, clock_);
  }

 private:
  std::int64_t start_ = 0;
  std::int64_t clock_ = 0;
};

/// The sampled branch of a forwarding hook, kept out of line: inlined, its
/// timer state made the compiler save registers on every forwarded call,
/// which doubled what the decorator cost on the unsampled path.
template <typename Fn>
[[gnu::noinline]] auto timed_call(RunTrace& trace, Hook hook, Fn fn) {
  const HookTimer timer;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    timer.stop(trace, hook);
  } else {
    auto result = fn();
    timer.stop(trace, hook);
    return result;
  }
}

const char* hook_name(Hook hook) {
  switch (hook) {
    case Hook::kNextBatch: return "trace.next_batch";
    case Hook::kRoute: return "policy.route";
    case Hook::kStripe: return "policy.stripe";
    case Hook::kAfterServe: return "policy.after_serve";
    case Hook::kAllowSpinDown: return "policy.allow_spin_down";
    case Hook::kObsRequestComplete: return "obs.request_complete";
    case Hook::kObsSpeedTransition: return "obs.speed_transition";
    case Hook::kObsDiskStateChange: return "obs.disk_state_change";
    case Hook::kObsRequestDegraded: return "obs.request_degraded";
    case Hook::kObsStripeReconstruct: return "obs.stripe_reconstruct";
    case Hook::kObsBackgroundCopy: return "obs.background_copy";
    case Hook::kCount: break;
  }
  return "?";
}

}  // namespace

// ---- RunTrace ----------------------------------------------------------

std::int32_t RunTrace::open(const char* name, bool hook_span) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back().id;
  span.run = run_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back({id, hook_span});
  if (hook_span) ++hook_depth_;
  spans_.back().start_ns = now_ns();
  return id;
}

void RunTrace::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back().id != id) {
    throw std::logic_error("prbench: spans closed out of order");
  }
  if (stack_.back().hook_span) --hook_depth_;
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

// ---- Tracer ------------------------------------------------------------

RunTrace& Tracer::new_run(const RunTrace* parent, std::int32_t parent_local) {
  const std::lock_guard lock(mutex_);
  runs_.push_back(
      std::make_unique<RunTrace>(static_cast<std::int32_t>(runs_.size())));
  parents_.push_back({parent, parent_local});
  return *runs_.back();
}

std::vector<Span> Tracer::merge() const {
  std::vector<std::int32_t> offset(runs_.size());
  std::int32_t total = 0;
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    offset[r] = total;
    total += static_cast<std::int32_t>(runs_[r]->spans().size());
  }
  std::vector<Span> merged;
  merged.reserve(static_cast<std::size_t>(total));
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    std::int32_t root_parent = -1;
    if (const Link& link = parents_[r]; link.run != nullptr) {
      root_parent =
          offset[static_cast<std::size_t>(link.run->run())] + link.local;
    }
    for (Span span : runs_[r]->spans()) {
      span.parent = span.parent < 0 ? root_parent : offset[r] + span.parent;
      merged.push_back(span);
    }
  }
  return merged;
}

double Tracer::hook_ns(Hook hook) const {
  double total = 0.0;
  for (const auto& run : runs_) {
    const HookStats& s = run->hooks()[static_cast<std::size_t>(hook)];
    if (s.timed == 0) continue;
    const auto net = static_cast<double>(s.timed_ns - s.clock_ns);
    total += net * static_cast<double>(s.calls) / static_cast<double>(s.timed);
  }
  return std::max(total, 0.0);
}

std::uint64_t Tracer::hook_calls(Hook hook) const {
  std::uint64_t calls = 0;
  for (const auto& run : runs_) {
    calls += run->hooks()[static_cast<std::size_t>(hook)].calls;
  }
  return calls;
}

double Tracer::span_clock_ns() const {
  std::int64_t clock = 0;
  std::uint64_t timed = 0;
  for (const auto& run : runs_) {
    for (const HookStats& s : run->hooks()) {
      clock += s.clock_ns;
      timed += s.timed;
    }
  }
  return timed == 0 ? 0.0
                    : static_cast<double>(clock) / static_cast<double>(timed);
}

std::uint64_t Tracer::events() const {
  std::uint64_t events = 0;
  for (const auto& run : runs_) events += run->events();
  return events;
}

std::vector<std::int64_t> Tracer::self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    cover.reserve(children[i].size());
    for (const std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans[c].start_ns, spans[i].start_ns),
                         std::min(spans[c].end_ns, spans[i].end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : cover) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

bool Tracer::write_csv(const std::string& spans_path,
                       const std::string& hooks_path) const {
  std::ofstream spans_out(spans_path);
  spans_out << "name,start_ns,end_ns,parent,run\n";
  for (const Span& s : merge()) {
    spans_out << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
              << s.parent << ',' << s.run << '\n';
  }
  std::ofstream hooks_out(hooks_path);
  hooks_out << "run,name,calls,timed,timed_ns,clock_ns,preempted\n";
  for (const auto& run : runs_) {
    for (std::size_t h = 0; h < run->hooks().size(); ++h) {
      const HookStats& s = run->hooks()[h];
      if (s.calls == 0) continue;
      hooks_out << run->run() << ',' << hook_name(static_cast<Hook>(h)) << ','
                << s.calls << ',' << s.timed << ',' << s.timed_ns << ','
                << s.clock_ns << ',' << s.preempted << '\n';
    }
  }
  spans_out.flush();
  hooks_out.flush();
  return spans_out.good() && hooks_out.good();
}

// ---- TimedPolicy -------------------------------------------------------

TimedPolicy::~TimedPolicy() {
  for (std::size_t i = 0; i < calls_.size(); ++i) {
    trace_.add_calls(
        static_cast<Hook>(static_cast<std::size_t>(kFirstHook) + i),
        calls_[i]);
  }
}

void TimedPolicy::initialize(pr::ArrayContext& ctx) {
  const SpanScope span(trace_, "policy.initialize", true);
  inner_->initialize(ctx);
}

pr::DiskId TimedPolicy::route(pr::ArrayContext& ctx, const pr::Request& req) {
  if (sample(Hook::kRoute)) [[unlikely]] {
    return timed_call(trace_, Hook::kRoute,
                      [&] { return inner_->route(ctx, req); });
  }
  return inner_->route(ctx, req);
}

std::vector<pr::StripeChunk> TimedPolicy::stripe(pr::ArrayContext& ctx,
                                                 const pr::Request& req) {
  if (sample(Hook::kStripe)) [[unlikely]] {
    return timed_call(trace_, Hook::kStripe,
                      [&] { return inner_->stripe(ctx, req); });
  }
  return inner_->stripe(ctx, req);
}

void TimedPolicy::after_serve(pr::ArrayContext& ctx, const pr::Request& req,
                              pr::DiskId d) {
  if (sample(Hook::kAfterServe)) [[unlikely]] {
    timed_call(trace_, Hook::kAfterServe,
               [&, d] { inner_->after_serve(ctx, req, d); });
    return;
  }
  inner_->after_serve(ctx, req, d);
}

void TimedPolicy::on_epoch(pr::ArrayContext& ctx, pr::Seconds now) {
  const SpanScope span(trace_, "policy.on_epoch", true);
  inner_->on_epoch(ctx, now);
}

int TimedPolicy::on_control(pr::ArrayContext& ctx,
                            const pr::ControlDecision& decision,
                            pr::Seconds now) {
  const SpanScope span(trace_, "policy.on_control", true);
  return inner_->on_control(ctx, decision, now);
}

bool TimedPolicy::allow_spin_down(pr::ArrayContext& ctx, pr::DiskId d,
                                  pr::Seconds now) {
  if (sample(Hook::kAllowSpinDown)) [[unlikely]] {
    return timed_call(trace_, Hook::kAllowSpinDown,
                      [&, d, now] {
                        return inner_->allow_spin_down(ctx, d, now);
                      });
  }
  return inner_->allow_spin_down(ctx, d, now);
}

// ---- TimedSource -------------------------------------------------------

std::size_t TimedSource::poll_batch(pr::Request* out, std::size_t max) {
  if (trace_.sample(Hook::kNextBatch)) [[unlikely]] {
    return timed_call(trace_, Hook::kNextBatch,
                      [&] { return inner_.next_batch(out, max); });
  }
  return inner_.next_batch(out, max);
}

// ---- TimedObserver -----------------------------------------------------

template <typename Event, typename Fn>
void TimedObserver::sampled(Hook hook, const Event& event, Fn fn) {
  if (inner_ == nullptr) return;
  trace_.count_event();
  if (trace_.sample(hook)) [[unlikely]] {
    timed_call(trace_, hook, [&] { (inner_->*fn)(event); });
    return;
  }
  (inner_->*fn)(event);
}

template <typename Event, typename Fn>
void TimedObserver::spanned(const char* name, const Event& event, Fn fn) {
  if (inner_ == nullptr) return;
  trace_.count_event();
  const SpanScope span(trace_, name, true);
  (inner_->*fn)(event);
}

void TimedObserver::on_run_start(const pr::RunStartEvent& event) {
  if (inner_ == nullptr) shard_id_ = trace_.open("fleet.shard", false);
  spanned("obs.run_start", event, &pr::SimObserver::on_run_start);
}

void TimedObserver::on_request_complete(const pr::RequestCompleteEvent& event) {
  sampled(Hook::kObsRequestComplete, event,
          &pr::SimObserver::on_request_complete);
}

void TimedObserver::on_speed_transition(const pr::SpeedTransitionEvent& event) {
  sampled(Hook::kObsSpeedTransition, event,
          &pr::SimObserver::on_speed_transition);
}

void TimedObserver::on_disk_state_change(
    const pr::DiskStateChangeEvent& event) {
  sampled(Hook::kObsDiskStateChange, event,
          &pr::SimObserver::on_disk_state_change);
}

void TimedObserver::on_epoch_end(const pr::EpochEndEvent& event) {
  spanned("obs.epoch_end", event, &pr::SimObserver::on_epoch_end);
}

void TimedObserver::on_migration(const pr::MigrationEvent& event) {
  spanned("obs.migration", event, &pr::SimObserver::on_migration);
}

void TimedObserver::on_background_copy(const pr::BackgroundCopyEvent& event) {
  sampled(Hook::kObsBackgroundCopy, event,
          &pr::SimObserver::on_background_copy);
}

void TimedObserver::on_disk_fail(const pr::DiskFailEvent& event) {
  spanned("obs.disk_fail", event, &pr::SimObserver::on_disk_fail);
}

void TimedObserver::on_disk_recover(const pr::DiskRecoverEvent& event) {
  spanned("obs.disk_recover", event, &pr::SimObserver::on_disk_recover);
}

void TimedObserver::on_request_degraded(const pr::RequestDegradedEvent& event) {
  sampled(Hook::kObsRequestDegraded, event,
          &pr::SimObserver::on_request_degraded);
}

void TimedObserver::on_rebuild_start(const pr::RebuildStartEvent& event) {
  spanned("obs.rebuild_start", event, &pr::SimObserver::on_rebuild_start);
}

void TimedObserver::on_rebuild_progress(const pr::RebuildProgressEvent& event) {
  spanned("obs.rebuild_progress", event,
          &pr::SimObserver::on_rebuild_progress);
}

void TimedObserver::on_rebuild_complete(const pr::RebuildCompleteEvent& event) {
  spanned("obs.rebuild_complete", event,
          &pr::SimObserver::on_rebuild_complete);
}

void TimedObserver::on_stripe_reconstruct(
    const pr::StripeReconstructEvent& event) {
  sampled(Hook::kObsStripeReconstruct, event,
          &pr::SimObserver::on_stripe_reconstruct);
}

void TimedObserver::on_control_update(const pr::ControlUpdateEvent& event) {
  spanned("obs.control_update", event, &pr::SimObserver::on_control_update);
}

void TimedObserver::on_run_end(const pr::RunEndEvent& event) {
  spanned("obs.run_end", event, &pr::SimObserver::on_run_end);
  if (inner_ == nullptr) trace_.close(shard_id_);
}

}  // namespace prbench
