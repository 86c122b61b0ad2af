// test_contracts.cpp — the contract layer (util/contracts.h).
//
// With contracts compiled in (Debug, or -DPR_CONTRACTS_FORCE) every
// PR_ASSERT/PR_PRECONDITION/PR_INVARIANT violation must abort with a
// `file:line: <kind> failed` diagnostic — pinned here with death tests
// per instrumented subsystem. In Release the macros compile to nothing
// and must not even evaluate their condition; the non-evaluation test
// runs in that configuration instead.
#include <gtest/gtest.h>

#include "disk/disk.h"
#include "disk/disk_params.h"
#include "obs/counter_registry.h"
#include "redundancy/rebuild.h"
#include "redundancy/scheme.h"
#include "sim/idle_timer.h"
#include "util/contracts.h"
#include "util/fmt.h"
#include "util/units.h"

namespace {

using pr::Bytes;
using pr::CounterRegistry;
using pr::DeclusteredScheme;
using pr::Disk;
using pr::DiskId;
using pr::DiskSpeed;
using pr::IdleTimerHeap;
using pr::Raid5Scheme;
using pr::RebuildScheduler;
using pr::Seconds;

#if PR_CONTRACTS_ENABLED

TEST(ContractsDeath, FormatDoubleRejectsNonPositivePrecision) {
  EXPECT_DEATH(pr::format_double(1.0, 0),
               "precondition failed.*precision must be positive");
}

TEST(ContractsDeath, IdleTimerHeapDiskOutOfRange) {
  IdleTimerHeap heap;
  heap.resize(4);
  EXPECT_DEATH((void)heap.armed(4), "IdleTimerHeap::armed: disk id out of range");
  EXPECT_DEATH(heap.arm(7, Seconds{1.0}, 0),
               "IdleTimerHeap::arm: disk id out of range");
  EXPECT_DEATH(heap.disarm(4), "IdleTimerHeap::disarm: disk id out of range");
}

TEST(ContractsDeath, IdleTimerHeapEmptyAccess) {
  IdleTimerHeap heap;
  heap.resize(2);
  EXPECT_DEATH((void)heap.next_time(),
               "IdleTimerHeap::next_time: no timer armed");
  EXPECT_DEATH((void)heap.pop(), "IdleTimerHeap::pop: no timer armed");
}

TEST(ContractsDeath, CounterRegistryForeignHandle) {
  CounterRegistry reg;
  const CounterRegistry::Handle h = reg.intern("requests");
  reg.add(h);  // valid handle is fine
  EXPECT_DEATH(reg.add(h + 1), "CounterRegistry::add: handle was never interned");
  EXPECT_DEATH((void)reg.value(h + 1),
               "CounterRegistry::value: handle was never interned");
  EXPECT_DEATH((void)reg.name(h + 1),
               "CounterRegistry::name: handle was never interned");
}

TEST(ContractsDeath, RebuildSchedulerPacingMustBePositive) {
  // Pacing is bytes-per-step over mbps: a zero rate or zero chunk makes
  // the step interval degenerate (infinite or zero-width steps).
  RebuildScheduler sched;
  EXPECT_DEATH(sched.configure(0.0, Bytes{1024}),
               "RebuildScheduler: mbps must be > 0");
  EXPECT_DEATH(sched.configure(100.0, Bytes{0}),
               "RebuildScheduler: chunk must be > 0");
}

TEST(ContractsDeath, RebuildSchedulerStartBeforeConfigure) {
  RebuildScheduler sched;
  EXPECT_DEATH(sched.start(DiskId{0}, Seconds{0.0}, Bytes{1} << 30),
               "RebuildScheduler: start\\(\\) before configure\\(\\)");
}

TEST(ContractsDeath, Raid5SchemeRejectsBadGeometry) {
  (void)Raid5Scheme(8, 4);  // valid: group divides the array
  EXPECT_DEATH((void)Raid5Scheme(8, 1),
               "Raid5Scheme: group size must be in \\[2, disk_count\\]");
  EXPECT_DEATH((void)Raid5Scheme(4, 8),
               "Raid5Scheme: group size must be in \\[2, disk_count\\]");
  EXPECT_DEATH((void)Raid5Scheme(8, 3),
               "Raid5Scheme: group must divide the array evenly");
}

TEST(ContractsDeath, DeclusteredSchemeRejectsBadGeometry) {
  (void)DeclusteredScheme(8, 4);  // valid; need not divide evenly
  EXPECT_DEATH((void)DeclusteredScheme(8, 1),
               "DeclusteredScheme: group size must be in \\[2, disk_count\\]");
  EXPECT_DEATH((void)DeclusteredScheme(4, 8),
               "DeclusteredScheme: group size must be in \\[2, disk_count\\]");
}

TEST(ContractsDeath, DiskRejectsNegativeTime) {
  Disk disk(0, pr::two_speed_cheetah(), DiskSpeed::kHigh);
  EXPECT_DEATH(disk.transition(Seconds{-1.0}, DiskSpeed::kLow),
               "precondition failed.*negative transition time");
}

TEST(ContractsDeath, DiagnosticCarriesFileLineAndKind) {
  // The message format is file:line: <kind> failed: <expr> — <msg>; the
  // death-test regex pins the pieces CI readers grep for.
  IdleTimerHeap heap;
  EXPECT_DEATH((void)heap.pop(), "idle_timer\\.h:[0-9]+: precondition failed");
}

#else  // !PR_CONTRACTS_ENABLED

TEST(ContractsDisabled, ConditionIsNotEvaluated) {
  // In Release the macro must compile the condition out entirely — a
  // side-effecting condition must not run.
  int evaluations = 0;
  PR_ASSERT(++evaluations > 0, "must not evaluate");
  PR_PRECONDITION(++evaluations > 0, "must not evaluate");
  PR_INVARIANT(++evaluations > 0, "must not evaluate");
  EXPECT_EQ(evaluations, 0);
}

TEST(ContractsDisabled, ViolationsAreSilentNoOps) {
  // A group that does not divide the array would abort under contracts;
  // here construction proceeds unchecked.
  const Raid5Scheme scheme(6, 4);
  EXPECT_EQ(scheme.group(), 4u);
}

#endif  // PR_CONTRACTS_ENABLED

}  // namespace
