// Asynchronous ≡ synchronous DistMIS property suite.
//
// The α-synchronizer (sim/synchronizer.h) promises that DistMIS on the
// asynchronous engine is byte-identical to DistMIS on the synchronous one:
// the same coloring, slot count, rounds, messages and completion, for every
// delay model, with or without the reliable wrapper. That promise makes the
// whole synchronous test corpus an oracle for the asynchronous engine; this
// suite holds the engine to it through check_async_equivalence
// (verify/differential.h):
//   - fault-free: all six families × three delay models × both variants ×
//     {plain, reliable};
//   - faulted: async behind the reliable wrapper under a correlated plan
//     (Gilbert–Elliott bursts, region outages, link-down windows) and under
//     an i.i.d. drop/duplicate/corrupt plan, against fault-free sync. The
//     transport must hide every injected fault, and the sweep asserts that
//     the faults really fired.
// The suite rides the TSan preset like every proptest.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "algos/dist_mis.h"
#include "sim/delay.h"
#include "sim/fault.h"
#include "verify/differential.h"
#include "verify/scenario.h"

namespace fdlsp {
namespace {

constexpr DelayModel kDelayModels[] = {
    DelayModel::kUnit, DelayModel::kUniformRandom, DelayModel::kAdversarial};
constexpr DistMisVariant kVariants[] = {DistMisVariant::kGbg,
                                        DistMisVariant::kGeneral};

TEST(AsyncEquivalence, FaultFreeAcrossFamiliesDelaysVariantsAndWrapper) {
  // sample_scenarios cycles through the families, so 60 scenarios give
  // every family ten instances.
  const std::vector<Scenario> scenarios = sample_scenarios(60, 0xa5e9, 20);
  for (const DistMisVariant variant : kVariants) {
    for (const bool reliable : {false, true}) {
      const ScenarioCheckFn check = [&](const Scenario& scenario,
                                        std::size_t) {
        return check_async_equivalence(variant, scenario, kDelayModels,
                                       {.reliable = reliable});
      };
      const ScenarioSweep sweep = run_scenarios(scenarios, check);
      EXPECT_EQ(sweep.checks, scenarios.size() * std::size(kDelayModels));
      EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
    }
  }
}

/// Sweeps async DistMIS behind the reliable wrapper under `spec` against
/// fault-free sync, alternating the variant by scenario index, and returns
/// the faults the async runs injected.
FaultStats sweep_faulted(const FaultSpec& spec) {
  const std::vector<Scenario> scenarios = sample_scenarios(30, 0xfa17, 20);
  // One slot per scenario: the check may run on any pool worker.
  std::vector<FaultStats> injected(scenarios.size());
  const ScenarioCheckFn check = [&](const Scenario& scenario,
                                    std::size_t index) {
    const DistMisVariant variant = kVariants[index % std::size(kVariants)];
    return check_async_equivalence(variant, scenario, kDelayModels,
                                   {.faults = &spec, .reliable = true},
                                   &injected[index]);
  };
  const ScenarioSweep sweep = run_scenarios(scenarios, check);
  EXPECT_EQ(sweep.checks, scenarios.size() * std::size(kDelayModels));
  EXPECT_TRUE(sweep.ok()) << sweep.failure_digest();
  FaultStats total;
  for (const FaultStats& stats : injected) total += stats;
  return total;
}

TEST(AsyncEquivalence, ReliableUnderCorrelatedFaultsMatchesFaultFreeSync) {
  FaultSpec spec;
  spec.seed = 9;
  spec.burst_rate = 0.15;
  spec.burst_recover = 0.5;
  spec.region_count = 1;
  spec.link_down_fraction = 0.2;
  const FaultStats fired = sweep_faulted(spec);
  EXPECT_GT(fired.burst_dropped, 0u) << "burst chains never fired";
  EXPECT_GT(fired.region_drops, 0u) << "region outages never fired";
  EXPECT_GT(fired.link_down_drops, 0u) << "link-down windows never fired";
}

TEST(AsyncEquivalence, ReliableUnderDropDupCorruptMatchesFaultFreeSync) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  spec.corrupt_rate = 0.05;
  const FaultStats fired = sweep_faulted(spec);
  EXPECT_GT(fired.dropped, 0u) << "drops never fired";
  EXPECT_GT(fired.duplicated, 0u) << "duplicates never fired";
  EXPECT_GT(fired.corrupted, 0u) << "corruptions never fired";
}

}  // namespace
}  // namespace fdlsp
