// Steady-state determinism of the soak harness: one SoakSpec names one run.
//
// The properties the `--soak=` repro grammar depends on:
//   * two identical centralized runs produce byte-identical event logs and
//     final schedules;
//   * the distributed engine produces the same bytes at 1, 8, and 32
//     engine shards, one thread each (the sharded rounds of the performance
//     layer must not leak scheduling order into the soak log) — this is the
//     test the TSan preset runs to also certify the sharing is race-free;
//   * the event *stream* (kinds, picks, topology deltas) is identical
//     between a centralized and a distributed run of the same spec, because
//     topology draws never consult the scheduling engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "soak/driver.h"
#include "verify/soak_oracles.h"

namespace fdlsp {
namespace {

std::uint64_t soak_events_cap(std::uint64_t fallback) {
  if (const char* env = std::getenv("FDLSP_SOAK_EVENTS"))
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  return fallback;
}

SoakSpec small_spec(std::uint64_t seed) {
  SoakSpec spec;
  spec.seed = seed;
  spec.n = 32;
  spec.events = soak_events_cap(300);
  return spec;
}

TEST(SoakDeterminism, CentralizedRunsAreByteIdentical) {
  const SoakSpec spec = small_spec(5);
  const OracleVerdict verdict = check_soak_determinism(spec);
  EXPECT_TRUE(verdict.ok) << verdict.failure;
}

TEST(SoakDeterminism, DistributedSerialMatchesEightShards) {
  const SoakSpec spec = small_spec(6);
  SoakOptions serial;
  serial.distributed = true;
  SoakOptions threaded;
  threaded.distributed = true;
  threaded.shards = 8;
  const OracleVerdict verdict = check_soak_determinism(spec, serial, threaded);
  EXPECT_TRUE(verdict.ok) << verdict.failure;
}

// 32 shards: as many as the spec's starting nodes.
TEST(SoakDeterminism, DistributedEightShardsMatchThirtyTwo) {
  const SoakSpec spec = small_spec(7);
  SoakOptions a;
  a.distributed = true;
  a.shards = 8;
  SoakOptions b;
  b.distributed = true;
  b.shards = 32;
  const OracleVerdict verdict = check_soak_determinism(spec, a, b);
  EXPECT_TRUE(verdict.ok) << verdict.failure;
}

TEST(SoakDeterminism, EventStreamIgnoresSchedulingEngine) {
  const SoakSpec spec = small_spec(8);
  SoakDriver centralized(spec);
  SoakOptions options;
  options.distributed = true;
  SoakDriver distributed(spec, options);
  centralized.run();
  distributed.run();
  ASSERT_EQ(centralized.log().size(), distributed.log().size());
  for (std::size_t i = 0; i < centralized.log().size(); ++i) {
    const SoakEventRecord& a = centralized.log()[i];
    const SoakEventRecord& b = distributed.log()[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.primary, b.primary);
    EXPECT_EQ(a.secondary, b.secondary);
    EXPECT_EQ(a.changed_edges, b.changed_edges);
    EXPECT_EQ(a.touched, b.touched);
  }
}

}  // namespace
}  // namespace fdlsp
