// jsonl_writer.h — streams simulation events to a JSON Lines file/stream,
// one self-describing object per line, in emission order. Because the
// simulator's event order is deterministic, two same-seed runs produce
// byte-identical output — verified by tests/test_observer.cpp.
//
// Each line is built in place in one fixed char buffer and reaches the
// stream with a single unformatted write(). Keys are copied with their
// compile-time sizes, floats are `%.17g` written by write_double17
// (util/fmt.h) and integers go through std::to_chars, so neither the
// stream's imbued locale nor the global one can change a byte, and the
// caller's stream is left as it was handed over. Every line but run_start
// is bounded well below the buffer; run_start's initial_speeds array is
// not, so whenever the next piece would not fit, the buffer goes to the
// stream first and the line continues from its start.
//
// Write failures are not dropped: lines_written() counts only lines the
// stream accepted, and on_run_end throws std::runtime_error when the
// stream has failed after its final flush.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/observer.h"

namespace pr {

/// Which event kinds are written (all by default). Request lines dominate
/// file size on big traces; disable them to keep only the control-plane
/// events (transitions, epochs, migrations).
struct JsonlOptions {
  bool requests = true;
  bool transitions = true;
  bool state_changes = true;
  bool epochs = true;
  bool migrations = true;
  /// Fault-injection lines (disk_fail/disk_recover/request_degraded).
  /// On by default: they only fire when a FaultPlan is attached, so
  /// fault-free traces are unchanged.
  bool faults = true;
  /// Background-copy lines. Off by default: these fire in existing
  /// MAID/replication runs, and the v1 trace schema is frozen
  /// byte-for-byte — opt in to see cache-fill/replica traffic.
  bool copies = false;
  /// Redundancy-layer lines (rebuild_start/rebuild_progress/
  /// rebuild_complete/stripe_reconstruct). On by default: they only fire
  /// when a parity RedundancyScheme is configured and faults strike, so
  /// every pre-redundancy trace is unchanged (v1 schema safe).
  bool rebuilds = true;
  /// Control-loop lines (one per epoch boundary of a control-enabled
  /// run). On by default: they only fire when SimConfig::control.enabled
  /// is set, so every control-free trace is unchanged (v1 schema safe).
  bool control = true;
};

class JsonlTraceWriter final : public SimObserver {
 public:
  /// Write to a caller-owned stream (kept open; flushed at run end).
  explicit JsonlTraceWriter(std::ostream& out, JsonlOptions options = {});
  /// Open `path` for writing (throws std::runtime_error on failure).
  explicit JsonlTraceWriter(const std::string& path, JsonlOptions options = {});

  /// Bytes of the line buffer. A line that fits reaches the stream in one
  /// write(); tests/test_observer.cpp checks that every bounded event kind
  /// fits even with extreme field values.
  static constexpr std::size_t kLineBytes = 512;

  void on_run_start(const RunStartEvent& event) override;
  void on_request_complete(const RequestCompleteEvent& event) override;
  void on_speed_transition(const SpeedTransitionEvent& event) override;
  void on_disk_state_change(const DiskStateChangeEvent& event) override;
  void on_epoch_end(const EpochEndEvent& event) override;
  void on_migration(const MigrationEvent& event) override;
  void on_background_copy(const BackgroundCopyEvent& event) override;
  void on_disk_fail(const DiskFailEvent& event) override;
  void on_disk_recover(const DiskRecoverEvent& event) override;
  void on_request_degraded(const RequestDegradedEvent& event) override;
  void on_rebuild_start(const RebuildStartEvent& event) override;
  void on_rebuild_progress(const RebuildProgressEvent& event) override;
  void on_rebuild_complete(const RebuildCompleteEvent& event) override;
  void on_stripe_reconstruct(const StripeReconstructEvent& event) override;
  void on_control_update(const ControlUpdateEvent& event) override;

  /// Throws std::runtime_error, naming the path (or "stream" for a
  /// caller-owned stream), if the stream has failed after the final flush.
  void on_run_end(const RunEndEvent& event) override;

  /// Lines the stream accepted.
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  /// Appends literals, strings, integers and doubles to line_.
  template <typename... Parts>
  void append(const Parts&... parts);
  template <std::size_t N>
  void put(const char (&literal)[N]);
  void put(std::string_view text);
  void put(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  void put(T v);
  /// Makes room for `n` more bytes, sending the buffer to the stream first
  /// when they would not fit.
  void reserve(std::size_t n);
  /// Sends the buffer to the stream and empties it.
  void drain();
  /// Ends the line: drains it and counts it if the stream accepted it.
  void write_line();

  std::ofstream owned_;
  std::ostream* out_;
  /// What error messages name: the path, or "stream".
  std::string target_;
  JsonlOptions options_;
  std::uint64_t lines_ = 0;
  std::size_t used_ = 0;
  std::array<char, kLineBytes> line_;
};

}  // namespace pr
