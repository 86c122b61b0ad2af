#include "obs/time_series.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/classic_locale.h"
#include "util/fmt.h"

namespace pr {

TimeSeriesRecorder::TimeSeriesRecorder(Seconds window) : window_(window) {
  if (!(window.value() > 0.0)) {
    throw std::invalid_argument("TimeSeriesRecorder: window must be > 0");
  }
}

std::size_t TimeSeriesRecorder::window_of(Seconds t) const {
  const double w = std::floor(t.value() / window_.value());
  return w <= 0.0 ? 0 : static_cast<std::size_t>(w);
}

void TimeSeriesRecorder::ensure_window(std::size_t w) {
  if (w >= windows_.size()) {
    windows_.resize(w + 1, std::vector<WindowSample>(disk_count_));
  }
}

WindowSample& TimeSeriesRecorder::sample(std::size_t w, DiskId disk) {
  ensure_window(w);
  return windows_[w].at(disk);
}

const WindowSample& TimeSeriesRecorder::at(std::size_t w, DiskId disk) const {
  return windows_.at(w).at(disk);
}

WindowSample TimeSeriesRecorder::array_total(std::size_t w) const {
  WindowSample total;
  for (const WindowSample& s : windows_.at(w)) {
    total.requests += s.requests;
    total.bytes += s.bytes;
    total.busy += s.busy;
    total.energy += s.energy;
    total.max_backlog = std::max(total.max_backlog, s.max_backlog);
    total.transitions_up += s.transitions_up;
    total.transitions_down += s.transitions_down;
    total.time_at_high += s.time_at_high;
    total.migrations_in += s.migrations_in;
    total.migrations_out += s.migrations_out;
    total.degraded_requests += s.degraded_requests;
    total.lost_requests += s.lost_requests;
  }
  return total;
}

void TimeSeriesRecorder::on_run_start(const RunStartEvent& event) {
  disk_count_ = event.disk_count;
  windows_.clear();
  epoch_marks_.clear();
  current_speed_ = event.initial_speeds;
  current_speed_.resize(disk_count_, DiskSpeed::kHigh);
  speed_since_.assign(disk_count_, Seconds{0.0});
}

void TimeSeriesRecorder::account_speed_until(DiskId disk, Seconds t) {
  Seconds from = speed_since_[disk];
  if (t <= from) return;
  if (current_speed_[disk] == DiskSpeed::kHigh) {
    // Split [from, t) across the windows it spans.
    std::size_t w = window_of(from);
    while (from < t) {
      const Seconds boundary{static_cast<double>(w + 1) * window_.value()};
      const Seconds upto = std::min(boundary, t);
      sample(w, disk).time_at_high += upto - from;
      from = upto;
      ++w;
    }
  }
  speed_since_[disk] = t;
}

void TimeSeriesRecorder::on_request_complete(const RequestCompleteEvent& event) {
  WindowSample& s = sample(window_of(event.arrival), event.disk);
  ++s.requests;
  s.bytes += event.bytes;
  s.busy += event.service_time;
  s.energy += event.energy;
  s.max_backlog = std::max(s.max_backlog, event.backlog);
}

void TimeSeriesRecorder::on_speed_transition(const SpeedTransitionEvent& event) {
  WindowSample& s = sample(window_of(event.time), event.disk);
  if (event.to == DiskSpeed::kHigh) {
    ++s.transitions_up;
  } else {
    ++s.transitions_down;
  }
  if (event.disk < current_speed_.size()) {
    account_speed_until(event.disk, event.time);
    current_speed_[event.disk] = event.to;
  }
}

void TimeSeriesRecorder::on_epoch_end(const EpochEndEvent& event) {
  epoch_marks_.emplace_back(event.time, event.requests);
}

void TimeSeriesRecorder::on_migration(const MigrationEvent& event) {
  const std::size_t w = window_of(event.time);
  ++sample(w, event.from).migrations_out;
  ++sample(w, event.to).migrations_in;
}

void TimeSeriesRecorder::on_request_degraded(
    const RequestDegradedEvent& event) {
  if (event.intended >= disk_count_) return;
  WindowSample& s = sample(window_of(event.time), event.intended);
  if (event.outcome == DegradedOutcome::kLost) {
    ++s.lost_requests;
  } else {
    ++s.degraded_requests;
  }
}

void TimeSeriesRecorder::on_run_end(const RunEndEvent& event) {
  for (DiskId d = 0; d < current_speed_.size(); ++d) {
    account_speed_until(d, event.horizon);
  }
  // Materialize every window up to the horizon even if quiet.
  if (event.horizon.value() > 0.0) ensure_window(window_of(event.horizon));
}

void TimeSeriesRecorder::write_csv(std::ostream& out) const {
  out << "window,start_s,disk,requests,bytes,busy_s,utilization,energy_j,"
         "max_backlog_s,transitions_up,transitions_down,high_speed_fraction,"
         "migrations_in,migrations_out,degraded,lost\n";
  // Floats go through the locale-independent formatter; the classic
  // locale keeps the integer fields free of grouping separators.
  const ClassicLocaleScope classic(out);
  const auto full = [](double v) { return format_double(v, 17); };
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    for (DiskId d = 0; d < windows_[w].size(); ++d) {
      const WindowSample& s = windows_[w][d];
      out << w << ',' << full(window_start(w).value()) << ',' << d << ','
          << s.requests << ',' << s.bytes << ',' << full(s.busy.value())
          << ',' << full(s.utilization(window_)) << ','
          << full(s.energy.value()) << ',' << full(s.max_backlog.value())
          << ',' << s.transitions_up << ',' << s.transitions_down << ','
          << full(s.high_speed_fraction(window_)) << ',' << s.migrations_in
          << ',' << s.migrations_out << ',' << s.degraded_requests << ','
          << s.lost_requests << '\n';
    }
  }
}

}  // namespace pr
