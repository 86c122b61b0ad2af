#include "obs/jsonl_writer.h"

#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "util/contracts.h"
#include "util/fmt.h"

namespace pr {

JsonlTraceWriter::JsonlTraceWriter(std::ostream& out, JsonlOptions options)
    : out_(&out), target_("stream"), options_(options) {}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path,
                                   JsonlOptions options)
    : owned_(path, std::ios::binary),
      out_(&owned_),
      target_(path),
      options_(options) {
  if (!owned_) {
    throw std::runtime_error("JsonlTraceWriter: cannot open " + path);
  }
}

// The pieces a line is made of. Keys stay string literals at the call
// sites so prlint's schema-drift pass sees every emitted "key":.
template <typename... Parts>
void JsonlTraceWriter::append(const Parts&... parts) {
  (put(parts), ...);
}

template <std::size_t N>
void JsonlTraceWriter::put(const char (&literal)[N]) {
  reserve(N - 1);
  std::memcpy(line_.data() + used_, literal, N - 1);
  used_ += N - 1;
}

void JsonlTraceWriter::put(std::string_view text) {
  PR_ASSERT(text.size() <= kLineBytes, "JsonlTraceWriter: piece too long");
  reserve(text.size());
  std::memcpy(line_.data() + used_, text.data(), text.size());
  used_ += text.size();
}

void JsonlTraceWriter::put(double v) {
  reserve(kDouble17MaxChars);
  used_ = static_cast<std::size_t>(
      write_double17(line_.data() + used_, v) - line_.data());
}

template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void JsonlTraceWriter::put(T v) {
  constexpr std::size_t kMaxChars =
      std::numeric_limits<T>::digits10 + 1 + (std::is_signed_v<T> ? 1 : 0);
  reserve(kMaxChars);
  char* const first = line_.data() + used_;
  const auto res = std::to_chars(first, first + kMaxChars, v);
  PR_ASSERT(res.ec == std::errc{}, "JsonlTraceWriter: to_chars overflow");
  used_ = static_cast<std::size_t>(res.ptr - line_.data());
}

void JsonlTraceWriter::reserve(std::size_t n) {
  if (kLineBytes - used_ < n) [[unlikely]] drain();
}

void JsonlTraceWriter::drain() {
  out_->write(line_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void JsonlTraceWriter::write_line() {
  drain();
  // A failed stream stays failed, so a line counts only if every write
  // that carried a piece of it succeeded.
  if (!out_->fail()) ++lines_;
}

void JsonlTraceWriter::on_run_start(const RunStartEvent& event) {
  append(R"({"ev":"run_start","disks":)", event.disk_count, R"(,"files":)",
         event.file_count, R"(,"epoch_s":)", event.epoch.value(),
         R"(,"initial_speeds":[)");
  for (std::size_t d = 0; d < event.initial_speeds.size(); ++d) {
    if (d > 0) append(",");
    append("\"", to_string(event.initial_speeds[d]), "\"");
  }
  append("]}\n");
  write_line();
}

void JsonlTraceWriter::on_request_complete(const RequestCompleteEvent& event) {
  if (!options_.requests) return;
  append(R"({"ev":"request","t":)", event.arrival.value(),
         R"(,"completion":)", event.completion.value(), R"(,"file":)",
         event.file, R"(,"disk":)", event.disk, R"(,"bytes":)", event.bytes,
         R"(,"rt_s":)", event.response_time().value(), R"(,"backlog_s":)",
         event.backlog.value(), R"(,"service_s":)", event.service_time.value(),
         R"(,"energy_j":)", event.energy.value(), R"(,"chunks":)",
         event.stripe_chunks, "}\n");
  write_line();
}

void JsonlTraceWriter::on_speed_transition(const SpeedTransitionEvent& event) {
  if (!options_.transitions) return;
  append(R"({"ev":"transition","t":)", event.time.value(), R"(,"finish":)",
         event.finish.value(), R"(,"disk":)", event.disk, R"(,"from":")",
         to_string(event.from), R"(","to":")", to_string(event.to),
         R"(","cause":")", to_string(event.cause), "\"}\n");
  write_line();
}

void JsonlTraceWriter::on_disk_state_change(const DiskStateChangeEvent& event) {
  if (!options_.state_changes) return;
  append(R"({"ev":"disk_state","t":)", event.time.value(), R"(,"disk":)",
         event.disk, R"(,"from":")", to_string(event.from), R"(","to":")",
         to_string(event.to), "\"}\n");
  write_line();
}

void JsonlTraceWriter::on_epoch_end(const EpochEndEvent& event) {
  if (!options_.epochs) return;
  append(R"({"ev":"epoch_end","t":)", event.time.value(), R"(,"index":)",
         event.index, R"(,"requests":)", event.requests, "}\n");
  write_line();
}

void JsonlTraceWriter::on_migration(const MigrationEvent& event) {
  if (!options_.migrations) return;
  append(R"({"ev":"migration","t":)", event.time.value(), R"(,"file":)",
         event.file, R"(,"from":)", event.from, R"(,"to":)", event.to,
         R"(,"bytes":)", event.bytes, "}\n");
  write_line();
}

void JsonlTraceWriter::on_background_copy(const BackgroundCopyEvent& event) {
  if (!options_.copies) return;
  append(R"({"ev":"copy","t":)", event.time.value(), R"(,"from":)",
         event.from, R"(,"to":)", event.to, R"(,"bytes":)", event.bytes,
         R"(,"energy_j":)", event.energy.value(), "}\n");
  write_line();
}

void JsonlTraceWriter::on_disk_fail(const DiskFailEvent& event) {
  if (!options_.faults) return;
  append(R"({"ev":"disk_fail","t":)", event.time.value(), R"(,"disk":)",
         event.disk, R"(,"mode":")", to_string(event.mode), R"(","factor":)",
         event.factor, "}\n");
  write_line();
}

void JsonlTraceWriter::on_disk_recover(const DiskRecoverEvent& event) {
  if (!options_.faults) return;
  append(R"({"ev":"disk_recover","t":)", event.time.value(), R"(,"disk":)",
         event.disk, R"(,"down_s":)", event.downtime.value(), "}\n");
  write_line();
}

void JsonlTraceWriter::on_request_degraded(const RequestDegradedEvent& event) {
  if (!options_.faults) return;
  append(R"({"ev":"request_degraded","t":)", event.time.value(),
         R"(,"file":)", event.file, R"(,"intended":)", event.intended,
         R"(,"served_by":)");
  // A lost request was served by nobody; -1 keeps the field numeric.
  if (event.outcome == DegradedOutcome::kLost) {
    append("-1");
  } else {
    append(event.served_by);
  }
  append(R"(,"outcome":")", to_string(event.outcome), R"(","factor":)",
         event.slowdown, "}\n");
  write_line();
}

void JsonlTraceWriter::on_rebuild_start(const RebuildStartEvent& event) {
  if (!options_.rebuilds) return;
  append(R"({"ev":"rebuild_start","t":)", event.time.value(), R"(,"disk":)",
         event.disk, R"(,"bytes":)", event.bytes, "}\n");
  write_line();
}

void JsonlTraceWriter::on_rebuild_progress(const RebuildProgressEvent& event) {
  if (!options_.rebuilds) return;
  append(R"({"ev":"rebuild_progress","t":)", event.time.value(),
         R"(,"disk":)", event.disk, R"(,"done":)", event.done, R"(,"total":)",
         event.total, R"(,"energy_j":)", event.energy.value(), "}\n");
  write_line();
}

void JsonlTraceWriter::on_rebuild_complete(const RebuildCompleteEvent& event) {
  if (!options_.rebuilds) return;
  append(R"({"ev":"rebuild_complete","t":)", event.time.value(),
         R"(,"disk":)", event.disk, R"(,"bytes":)", event.bytes,
         R"(,"duration_s":)", event.duration.value(), "}\n");
  write_line();
}

void JsonlTraceWriter::on_stripe_reconstruct(
    const StripeReconstructEvent& event) {
  if (!options_.rebuilds) return;
  append(R"({"ev":"stripe_reconstruct","t":)", event.time.value(),
         R"(,"file":)", event.file, R"(,"failed":)", event.failed,
         R"(,"sources":)", event.sources, R"(,"bytes":)", event.bytes, "}\n");
  write_line();
}

void JsonlTraceWriter::on_control_update(const ControlUpdateEvent& event) {
  if (!options_.control) return;
  append(R"({"ev":"control","t":)", event.time.value(), R"(,"epoch":)",
         event.epoch_index, R"(,"requests":)", event.requests, R"(,"shed":)",
         event.shed, R"(,"mean_rt_s":)", event.mean_rt_s, R"(,"backlog_s":)",
         event.max_backlog_s, R"(,"energy_j":)", event.energy_j,
         R"(,"h_scale":)", event.h_scale, R"(,"hot_delta":)", event.hot_delta,
         R"(,"epoch_scale":)", event.epoch_scale, R"(,"epoch_len_s":)",
         event.epoch_len_s, "}\n");
  write_line();
}

void JsonlTraceWriter::on_run_end(const RunEndEvent& event) {
  append(R"({"ev":"run_end","horizon_s":)", event.horizon.value(),
         R"(,"requests":)", event.user_requests, R"(,"energy_j":)",
         event.total_energy.value(), "}\n");
  write_line();
  out_->flush();
  if (out_->fail()) {
    throw std::runtime_error("JsonlTraceWriter: write failed on " + target_);
  }
}

}  // namespace pr
