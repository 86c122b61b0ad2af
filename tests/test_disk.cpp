// Tests for the 2-speed disk model: service times, the energy/occupancy
// ledger, speed transitions, and ESRRA telemetry extraction.
#include "disk/disk.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "disk/geometry.h"
#include "disk/service_model.h"
#include "disk/telemetry.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

TwoSpeedDiskParams params() { return two_speed_cheetah(); }

TEST(DiskParams, PresetIsValid) {
  EXPECT_NO_THROW(validate(params()));
}

TEST(DiskParams, PresetMatchesPaperOperatingPoints) {
  const auto p = params();
  EXPECT_DOUBLE_EQ(p.low.rpm, 3'600.0);
  EXPECT_DOUBLE_EQ(p.high.rpm, 10'000.0);
  EXPECT_DOUBLE_EQ(p.low.operating_temp.value(), 40.0);   // §3.2 band [35,40]
  EXPECT_DOUBLE_EQ(p.high.operating_temp.value(), 50.0);  // §3.2 band [45,50]
  // Transfer rate scales linearly with RPM (PDC's derivation strategy).
  EXPECT_NEAR(p.low.transfer_mib_per_s / p.high.transfer_mib_per_s,
              3'600.0 / 10'000.0, 1e-9);
}

TEST(DiskParams, ValidationCatchesInconsistencies) {
  auto p = params();
  p.low.rpm = 20'000.0;  // low faster than high
  EXPECT_THROW(validate(p), std::invalid_argument);

  p = params();
  p.high.transfer_mib_per_s = 0.0;
  EXPECT_THROW(validate(p), std::invalid_argument);

  p = params();
  p.high.idle_power = Watts{99.0};  // idle above active
  EXPECT_THROW(validate(p), std::invalid_argument);

  p = params();
  p.transition_up_time = Seconds{-1.0};
  EXPECT_THROW(validate(p), std::invalid_argument);

  p = params();
  p.capacity = 0;
  EXPECT_THROW(validate(p), std::invalid_argument);
}


TEST(DiskParams, DeskstarPresetIsValidAndDistinct) {
  const auto p = two_speed_deskstar();
  EXPECT_NO_THROW(validate(p));
  EXPECT_DOUBLE_EQ(p.high.rpm, 7'200.0);
  EXPECT_DOUBLE_EQ(p.low.rpm, 4'500.0);
  // Shallower gap than the Cheetah preset: cheaper, faster transitions.
  const auto cheetah = two_speed_cheetah();
  EXPECT_LT(p.transition_up_time, cheetah.transition_up_time);
  EXPECT_LT(p.transition_up_energy, cheetah.transition_up_energy);
  // Smaller idle-power gap => less to save per parked disk.
  EXPECT_LT(p.high.idle_power.value() - p.low.idle_power.value(),
            cheetah.high.idle_power.value() - cheetah.low.idle_power.value());
  // Narrower thermal bands (45/40 vs 50/40).
  EXPECT_LT(p.high.operating_temp.value(),
            cheetah.high.operating_temp.value());
}

TEST(ServiceModel, RotationalLatencyIsHalfRevolution) {
  EXPECT_NEAR(params().high.avg_rotational_latency().value(), 3.0e-3, 1e-12);
  EXPECT_NEAR(params().low.avg_rotational_latency().value(),
              30.0 / 3'600.0, 1e-12);
}

TEST(ServiceModel, ServiceTimeDecomposition) {
  const auto p = params();
  // 31 MiB at 31 MiB/s = 1 s transfer + 5.3 ms seek + 3 ms latency.
  const Seconds t = service_time(p.high, 31 * kMiB);
  EXPECT_NEAR(t.value(), 1.0 + 5.3e-3 + 3.0e-3, 1e-9);
}

TEST(ServiceModel, LowSpeedIsSlower) {
  const auto p = params();
  EXPECT_GT(service_time(p.low, 1 * kMiB), service_time(p.high, 1 * kMiB));
}

TEST(ServiceModel, EnergyIsActivePowerTimesTime) {
  const auto p = params();
  const auto cost = service_cost(p.high, 31 * kMiB);
  EXPECT_NEAR(cost.energy.value(),
              p.high.active_power.value() * cost.time.value(), 1e-9);
}

TEST(ServiceModel, BreakEvenIdleCoversTransitionCosts) {
  const auto p = params();
  const Seconds be = transition_break_even_idle(p);
  // (135 + 13) J / (10.2 − 2.9) W + 10 s of transition windows.
  EXPECT_NEAR(be.value(), 148.0 / 7.3 + 10.0, 1e-9);
}

TEST(ServiceModel, BreakEvenInfiniteWithoutPowerGap) {
  auto p = params();
  p.low.idle_power = p.high.idle_power;
  EXPECT_EQ(transition_break_even_idle(p), kNeverTime);
}

TEST(Disk, ServeComputesCompletionAndQueues) {
  Disk d(0, params(), DiskSpeed::kHigh);
  const Seconds c1 = d.serve(Seconds{10.0}, 31 * kMiB);
  EXPECT_NEAR(c1.value(), 10.0 + 1.0083, 1e-4);
  // Second request arrives while busy: FCFS queueing.
  const Seconds c2 = d.serve(Seconds{10.5}, 31 * kMiB);
  EXPECT_NEAR(c2.value(), c1.value() + 1.0083, 1e-4);
  EXPECT_EQ(d.ledger().requests, 2u);
  EXPECT_EQ(d.ledger().bytes_served, 2u * 31 * kMiB);
}

/// serve() on a fresh disk starts at 0, so its completion, busy time and
/// energy are service_cost()'s time and energy to the bit; a second serve
/// queued behind it completes at first + time, again to the bit.
void expect_serve_costs_match(const TwoSpeedDiskParams& p, Bytes bytes) {
  for (const DiskSpeed s : {DiskSpeed::kLow, DiskSpeed::kHigh}) {
    SCOPED_TRACE(testing::Message() << to_string(s) << " speed, " << bytes
                                    << " bytes");
    const ServiceCost ref = service_cost(p.mode(s == DiskSpeed::kHigh), bytes);
    Disk d(0, p, s);
    const Seconds first = d.serve(Seconds{0.0}, bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.value()),
              std::bit_cast<std::uint64_t>(ref.time.value()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.ledger().busy_time.value()),
              std::bit_cast<std::uint64_t>(ref.time.value()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.ledger().energy.value()),
              std::bit_cast<std::uint64_t>(ref.energy.value()));
    const Seconds second = d.serve(Seconds{0.0}, bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(second.value()),
              std::bit_cast<std::uint64_t>((first + ref.time).value()));
  }
}

TEST(Disk, CachedServiceConstantsMatchServiceCostBitForBit) {
  std::set<Bytes> sizes{0, 1, 512, 8 * kKiB, Bytes{1} << 40};
  const FileSet light = generate_fileset(worldcup98_light_config());
  for (const FileInfo& f : light.files()) {
    sizes.insert(f.size);
  }
  ASSERT_GT(sizes.size(), 100u);

  // A custom disk whose rpm, transfer rates and seeks are not round, so
  // 30 / rpm and MiB/s × 2^20 both round.
  TwoSpeedDiskParams odd = params();
  odd.low.rpm = 3'917.3;
  odd.high.rpm = 10'033.7;
  odd.low.transfer_mib_per_s = 17.31;
  odd.high.transfer_mib_per_s = 51.77;
  odd.low.avg_seek = Seconds{7.13e-3};
  odd.high.avg_seek = Seconds{4.91e-3};
  ASSERT_NO_THROW(validate(odd));

  for (const Bytes bytes : sizes) {
    expect_serve_costs_match(params(), bytes);
    expect_serve_costs_match(odd, bytes);
  }
}

TEST(Disk, RejectsNegativeArrival) {
  Disk d(0, params(), DiskSpeed::kHigh);
  EXPECT_THROW(d.serve(Seconds{-1.0}, 100), std::invalid_argument);
}

TEST(Disk, LedgerConservation) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.serve(Seconds{5.0}, 4 * kMiB);
  d.transition(Seconds{20.0}, DiskSpeed::kLow);
  d.serve(Seconds{40.0}, 1 * kMiB);
  d.transition(Seconds{60.0}, DiskSpeed::kHigh);
  d.finish(Seconds{100.0});
  const auto& l = d.ledger();
  EXPECT_NEAR(l.observed().value(), 100.0, 1e-9);
  EXPECT_NEAR((l.time_at_low + l.time_at_high + l.transition_time).value(),
              100.0, 1e-9);
}

TEST(Disk, IdleEnergyAccrued) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.finish(Seconds{1000.0});
  // Pure idle at high speed.
  EXPECT_NEAR(d.ledger().energy.value(), 10.2 * 1000.0, 1e-6);
  EXPECT_NEAR(d.ledger().idle_time.value(), 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.ledger().utilization(), 0.0);
}

TEST(Disk, LowSpeedIdleIsCheaper) {
  Disk hi(0, params(), DiskSpeed::kHigh);
  Disk lo(1, params(), DiskSpeed::kLow);
  hi.finish(Seconds{100.0});
  lo.finish(Seconds{100.0});
  EXPECT_NEAR(hi.ledger().energy.value() - lo.ledger().energy.value(),
              (10.2 - 2.9) * 100.0, 1e-6);
}

TEST(Disk, TransitionCostsTimeEnergyAndCount) {
  Disk d(0, params(), DiskSpeed::kHigh);
  const Seconds done = d.transition(Seconds{10.0}, DiskSpeed::kLow);
  EXPECT_NEAR(done.value(), 12.0, 1e-9);  // 2 s down
  const Seconds done2 = d.transition(Seconds{20.0}, DiskSpeed::kHigh);
  EXPECT_NEAR(done2.value(), 28.0, 1e-9);  // 8 s up
  d.finish(Seconds{30.0});
  const auto& l = d.ledger();
  EXPECT_EQ(l.transitions, 2u);
  EXPECT_EQ(l.transitions_up, 1u);
  EXPECT_NEAR(l.transition_time.value(), 10.0, 1e-9);
  // idle: [0,10) high + [12,20) low + [28,30) high; lumps 13 + 135 J.
  EXPECT_NEAR(l.energy.value(),
              10.0 * 10.2 + 8.0 * 2.9 + 2.0 * 10.2 + 13.0 + 135.0, 1e-6);
}

TEST(Disk, TransitionToCurrentSpeedIsFreeNoop) {
  Disk d(0, params(), DiskSpeed::kHigh);
  const Seconds t = d.transition(Seconds{5.0}, DiskSpeed::kHigh);
  EXPECT_NEAR(t.value(), 5.0, 1e-12);
  d.finish(Seconds{10.0});
  EXPECT_EQ(d.ledger().transitions, 0u);
}

TEST(Disk, NoServiceDuringTransition) {
  // §4: "no requests can be served when a disk is switching its speed".
  Disk d(0, params(), DiskSpeed::kLow);
  d.transition(Seconds{0.0}, DiskSpeed::kHigh);  // finishes at 8 s
  const Seconds done = d.serve(Seconds{1.0}, 31 * kMiB);
  EXPECT_NEAR(done.value(), 8.0 + 1.0083, 1e-4);
}

TEST(Disk, ServeUsesPostTransitionSpeed) {
  Disk d(0, params(), DiskSpeed::kLow);
  d.transition(Seconds{0.0}, DiskSpeed::kHigh);
  d.serve(Seconds{0.0}, 31 * kMiB);
  // Served at the high-speed transfer rate: ~1.0083 s of busy time.
  EXPECT_NEAR(d.ledger().busy_time.value(), 1.0083, 1e-4);
}

TEST(Disk, InternalIoCountedSeparately) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.serve(Seconds{0.0}, 1000, /*internal=*/false);
  d.serve(Seconds{1.0}, 2000, /*internal=*/true);
  EXPECT_EQ(d.ledger().requests, 1u);
  EXPECT_EQ(d.ledger().bytes_served, 1000u);
  EXPECT_EQ(d.ledger().internal_ops, 1u);
  EXPECT_EQ(d.ledger().internal_bytes, 2000u);
  // Both consume busy time.
  EXPECT_GT(d.ledger().busy_time.value(), 0.016);
}

TEST(Disk, SetupGuardsRejectAfterFirstServe) {
  // Seek curve and initial speed are setup-time knobs: once any serve has
  // booked a request or an internal op, both refuse.
  Disk user(0, params(), DiskSpeed::kHigh);
  user.serve(Seconds{0.0}, 100);
  EXPECT_THROW(user.set_initial_speed(DiskSpeed::kLow), std::logic_error);
  Disk internal(1, params(), DiskSpeed::kHigh);
  internal.serve(Seconds{0.0}, 100, /*internal=*/true);
  EXPECT_THROW(internal.set_seek_curve(cheetah_seek_curve()),
               std::logic_error);
}

TEST(Disk, TransitionsTodayRollsOverAtDayBoundary) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.transition(Seconds{100.0}, DiskSpeed::kLow);
  d.transition(Seconds{200.0}, DiskSpeed::kHigh);
  EXPECT_EQ(d.transitions_today(Seconds{300.0}), 2u);
  // Next day: counter resets.
  EXPECT_EQ(d.transitions_today(Seconds{86'400.0 + 10.0}), 0u);
  d.transition(Seconds{86'400.0 + 50.0}, DiskSpeed::kLow);
  EXPECT_EQ(d.transitions_today(Seconds{86'400.0 + 60.0}), 1u);
  EXPECT_EQ(d.total_transitions(), 3u);
}

TEST(Disk, SetInitialSpeedOnlyBeforeActivity) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.set_initial_speed(DiskSpeed::kLow);
  EXPECT_EQ(d.speed(), DiskSpeed::kLow);
  EXPECT_EQ(d.ledger().transitions, 0u);
  d.serve(Seconds{0.0}, 100);
  EXPECT_THROW(d.set_initial_speed(DiskSpeed::kHigh), std::logic_error);
}

TEST(Disk, UtilizationIsBusyFraction) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.serve(Seconds{0.0}, 31 * kMiB);  // ~1.0083 s busy
  d.finish(Seconds{10.083});
  EXPECT_NEAR(d.ledger().utilization(), 0.1, 0.001);
}

TEST(Disk, TransitionsPerDayExtrapolates) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.transition(Seconds{10.0}, DiskSpeed::kLow);
  d.finish(kSecondsPerDay * 0.5);
  EXPECT_NEAR(d.ledger().transitions_per_day(), 2.0, 1e-9);
}

TEST(Disk, PressTransitionsPerDayDoesNotExtrapolateShortRuns) {
  // Regression: PRESS's frequency factor used to consume the extrapolated
  // transitions_per_day(), which projects a half-day run's single
  // transition to 2/day. The model's input is what was observed.
  Disk d(0, params(), DiskSpeed::kHigh);
  d.transition(Seconds{10.0}, DiskSpeed::kLow);
  d.finish(kSecondsPerDay * 0.5);
  EXPECT_NEAR(d.ledger().transitions_per_day(), 2.0, 1e-9);  // extrapolated
  EXPECT_NEAR(d.ledger().press_transitions_per_day(), 1.0, 1e-9);  // observed
}

TEST(Disk, PressTransitionsPerDayUsesWorstDayForLongRuns) {
  // 3 transitions on day 0, 1 on day 1: the mean rate is 2/day but READ's
  // budget bounds the worst day, so PRESS sees 3.
  Disk d(0, params(), DiskSpeed::kHigh);
  d.transition(Seconds{100.0}, DiskSpeed::kLow);
  d.transition(Seconds{200.0}, DiskSpeed::kHigh);
  d.transition(Seconds{300.0}, DiskSpeed::kLow);
  d.transition(kSecondsPerDay + Seconds{100.0}, DiskSpeed::kHigh);
  d.finish(kSecondsPerDay * 2.0);
  EXPECT_NEAR(d.ledger().transitions_per_day(), 2.0, 1e-9);
  EXPECT_EQ(d.ledger().max_transitions_in_day, 3u);
  EXPECT_NEAR(d.ledger().press_transitions_per_day(), 3.0, 1e-9);
}

TEST(Disk, MeanTemperatureWeighting) {
  Disk d(0, params(), DiskSpeed::kHigh);
  d.finish(Seconds{100.0});
  EXPECT_NEAR(d.mean_temperature().value(), 50.0, 1e-9);

  Disk d2(1, params(), DiskSpeed::kLow);
  d2.finish(Seconds{100.0});
  EXPECT_NEAR(d2.mean_temperature().value(), 40.0, 1e-9);

  Disk d3(2, params(), DiskSpeed::kHigh);
  d3.transition(Seconds{50.0}, DiskSpeed::kLow);  // 50 s high, 2 s mid
  d3.finish(Seconds{102.0});
  // 50 s @ 50°, 2 s @ 45°, 50 s @ 40°.
  EXPECT_NEAR(d3.mean_temperature().value(),
              (50 * 50.0 + 2 * 45.0 + 50 * 40.0) / 102.0, 1e-9);
}

TEST(Disk, MaxTemperature) {
  Disk hi(0, params(), DiskSpeed::kHigh);
  hi.finish(Seconds{1.0});
  EXPECT_DOUBLE_EQ(hi.max_temperature().value(), 50.0);
  Disk lo(1, params(), DiskSpeed::kLow);
  lo.finish(Seconds{1.0});
  EXPECT_DOUBLE_EQ(lo.max_temperature().value(), 40.0);
  lo.transition(Seconds{2.0}, DiskSpeed::kHigh);
  lo.finish(Seconds{20.0});
  EXPECT_DOUBLE_EQ(lo.max_temperature().value(), 50.0);
}

TEST(Telemetry, ExtractsEsrraFactors) {
  Disk d(3, params(), DiskSpeed::kHigh);
  d.serve(Seconds{0.0}, 31 * kMiB);
  d.transition(Seconds{100.0}, DiskSpeed::kLow);
  d.finish(kSecondsPerDay);
  const auto t = extract_telemetry(d);
  EXPECT_EQ(t.disk, 3u);
  EXPECT_NEAR(t.transitions_per_day, 1.0, 1e-9);
  EXPECT_GT(t.utilization, 0.0);
  // Mostly low-speed day: mean temperature near 40 °C.
  EXPECT_LT(t.temperature.value(), 41.0);
  const auto tmax =
      extract_telemetry(d, TemperatureAttribution::kMax);
  EXPECT_DOUBLE_EQ(tmax.temperature.value(), 50.0);
}

TEST(Telemetry, VectorOverload) {
  std::vector<Disk> disks;
  disks.emplace_back(0, params(), DiskSpeed::kHigh);
  disks.emplace_back(1, params(), DiskSpeed::kLow);
  for (auto& d : disks) d.finish(Seconds{10.0});
  const auto ts = extract_telemetry(disks);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].disk, 0u);
  EXPECT_EQ(ts[1].disk, 1u);
}

}  // namespace
}  // namespace pr
