// Round-trip tests for the two repro-string grammars: --faults=
// (sim/fault.h, format_fault_spec/parse_fault_spec) and --soak=
// (soak/event.h, format_soak_spec/parse_soak_spec). The printed form of a
// spec is the replay contract the harnesses hand to the user — parse must
// invert format exactly, and malformed strings must fail loudly instead of
// silently replaying a different scenario.
//
// The replay tool's engine-path flag (--shards=, examples/replay) rides the
// same contract: the flag it echoes into repro lines must parse back to the
// same shard count through the CLI layer the tool uses. And every flag a
// printed repro line carries must be in the vocabulary replay accepts, while
// anything outside it, or a flag the run would ignore, is rejected rather
// than ignored.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "soak/event.h"
#include "support/check.h"
#include "support/cli.h"
#include "verify/fault_oracles.h"
#include "verify/scenario.h"
#include "verify/soak_oracles.h"

namespace fdlsp {
namespace {

TEST(FaultSpecGrammar, DefaultSpecFormatsAsNone) {
  EXPECT_EQ(format_fault_spec(FaultSpec{}), "none");
}

TEST(FaultSpecGrammar, NoneAndEmptyParseToDefault) {
  EXPECT_EQ(parse_fault_spec("none"), FaultSpec{});
  EXPECT_EQ(parse_fault_spec(""), FaultSpec{});
}

TEST(FaultSpecGrammar, FullSpecRoundTrips) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = 0.02;
  spec.max_losses_per_channel = 3;
  spec.crash_fraction = 0.25;
  spec.crash_horizon = 32.0;
  spec.link_down_fraction = 0.125;
  spec.link_down_horizon = 8.0;
  spec.link_down_duration = 2.5;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(parse_fault_spec(text), spec);
  // The printed form is itself a fixed point: format ∘ parse ∘ format is
  // format, so repro strings stay byte-stable across replays.
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, PartialSpecRoundTrips) {
  FaultSpec spec;
  spec.drop_rate = 0.3;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "drop=0.3");
  EXPECT_EQ(parse_fault_spec(text), spec);
}

TEST(FaultSpecGrammar, BurstSpecRoundTrips) {
  FaultSpec spec;
  spec.burst_rate = 0.05;
  spec.burst_recover = 0.25;
  spec.burst_loss = 0.9;
  spec.burst_max_run = 6;
  spec.burst_cap = 12;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "bp=0.05,bq=0.25,bloss=0.9,bmax=6,bcap=12");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, PrrLevelsRoundTripColonSeparated) {
  FaultSpec spec;
  spec.prr_levels = {0.9, 0.75, 0.5};
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "prr=0.9:0.75:0.5");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, RegionOutageSpecRoundTrips) {
  FaultSpec spec;
  spec.region_count = 3;
  spec.region_radius = 0.5;
  spec.region_horizon = 24.0;
  spec.region_duration = 6.0;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(text, "regions=3,regionr=0.5,regionh=24,regiond=6");
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, MixedCorrelatedSpecRoundTrips) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.05;
  spec.burst_rate = 0.1;
  spec.prr_levels = {0.8};
  spec.region_count = 1;
  spec.crash_fraction = 0.2;
  const std::string text = format_fault_spec(spec);
  EXPECT_EQ(parse_fault_spec(text), spec);
  EXPECT_EQ(format_fault_spec(parse_fault_spec(text)), text);
}

TEST(FaultSpecGrammar, MalformedEntriesAreRejected) {
  EXPECT_THROW(parse_fault_spec("drop"), contract_error);         // no '='
  EXPECT_THROW(parse_fault_spec("drop=0.1,zzz=4"), contract_error);
  EXPECT_THROW(parse_fault_spec("frobnicate=1"), contract_error);
  // Strict numeric parsing: trailing garbage and empty values fail loudly
  // instead of silently replaying a different scenario.
  EXPECT_THROW(parse_fault_spec("drop=0.1x"), contract_error);
  EXPECT_THROW(parse_fault_spec("drop="), contract_error);
  EXPECT_THROW(parse_fault_spec("bp=high"), contract_error);
  EXPECT_THROW(parse_fault_spec("bmax=3.5"), contract_error);   // not a count
  EXPECT_THROW(parse_fault_spec("bcap=-1"), contract_error);
  EXPECT_THROW(parse_fault_spec("regions=two"), contract_error);
  EXPECT_THROW(parse_fault_spec("prr=0.9:oops"), contract_error);
  EXPECT_THROW(parse_fault_spec("prr="), contract_error);
  EXPECT_THROW(parse_fault_spec("prr=0.9:"), contract_error);
}

TEST(SoakSpecGrammar, DefaultSpecFormatsAsDefault) {
  EXPECT_EQ(format_soak_spec(SoakSpec{}), "default");
}

TEST(SoakSpecGrammar, DefaultAndEmptyParseToDefault) {
  EXPECT_EQ(parse_soak_spec("default"), SoakSpec{});
  EXPECT_EQ(parse_soak_spec(""), SoakSpec{});
}

TEST(SoakSpecGrammar, FullSpecRoundTrips) {
  SoakSpec spec;
  spec.seed = 99;
  spec.n = 128;
  spec.events = 5000;
  spec.family = "grid";
  spec.density = 0.75;
  spec.side = 12.5;
  spec.radius = 1.5;
  spec.alive_fraction = 0.8;
  spec.move_step = 0.25;
  spec.join_weight = 2.0;
  spec.leave_weight = 0.0;
  spec.move_weight = 3.0;
  spec.link_down_weight = 0.5;
  spec.link_up_weight = 1.5;
  spec.repair_threshold = 0.1;
  spec.drift_band = 2.0;
  spec.skip = {1, 5, 9};
  const std::string text = format_soak_spec(spec);
  EXPECT_EQ(parse_soak_spec(text), spec);
  EXPECT_EQ(format_soak_spec(parse_soak_spec(text)), text);
}

TEST(SoakSpecGrammar, SkipListUsesDotSeparators) {
  SoakSpec spec;
  spec.skip = {3, 14, 159};
  const std::string text = format_soak_spec(spec);
  EXPECT_EQ(text, "skip=3.14.159");
  EXPECT_EQ(parse_soak_spec(text), spec);
}

TEST(SoakSpecGrammar, MalformedEntriesAreRejected) {
  EXPECT_THROW(parse_soak_spec("events"), contract_error);      // no '='
  EXPECT_THROW(parse_soak_spec("n=abc"), contract_error);       // bad int
  EXPECT_THROW(parse_soak_spec("radius=wide"), contract_error); // bad double
  EXPECT_THROW(parse_soak_spec("zzz=1"), contract_error);       // unknown key
  EXPECT_THROW(parse_soak_spec("skip=1.x.3"), contract_error);  // bad index
}

/// Parses an argv-style flag list through the CLI layer examples/replay
/// uses.
CliArgs parse_flags(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"replay"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// The shard count replay would run a flag list with.
std::size_t parse_shards_flag(const std::vector<std::string>& flags) {
  return parse_flags(flags).get_count("shards", 0);
}

/// Splits a printed repro line into its flags.
std::vector<std::string> split_line(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> flags;
  for (std::string flag; in >> flag;) flags.push_back(flag);
  return flags;
}

TEST(ReplayShardsFlag, EchoedFlagRoundTripsThroughCli) {
  // replay echoes "--shards=N" into the repro lines it prints; pasting that
  // line back must select the same engine shard count.
  for (const std::size_t shards : {1u, 2u, 4u, 8u, 17u}) {
    const std::string flag = "--shards=" + std::to_string(shards);
    EXPECT_EQ(parse_shards_flag({flag}), shards) << flag;
  }
  // Absent flag = serial path, matching replay's default, and the flag
  // composes with the spec grammars on a full repro line.
  EXPECT_EQ(parse_shards_flag({}), 0u);
  EXPECT_EQ(parse_shards_flag({"--soak=seed=7,n=200,events=5000",
                               "--faults=drop=0.1", "--shards=4"}),
            4u);
}

TEST(ReplayShardsFlag, MalformedOrNegativeCountsAreRejected) {
  EXPECT_THROW(parse_shards_flag({"--shards=2x"}), contract_error);
  EXPECT_THROW(parse_shards_flag({"--shards="}), contract_error);
  // Used to wrap to 18446744073709551615 and be echoed back that way.
  EXPECT_THROW(parse_shards_flag({"--shards=-1"}), contract_error);
}

TEST(ReplayFlags, PrintedReproLinesUseOnlyAcceptedFlags) {
  Scenario scenario;
  scenario.family = GraphFamily::kRing;
  scenario.n = 8;
  scenario.seed = 3;
  const FaultSpec faults = parse_fault_spec("drop=0.1,bp=0.2,regions=1");
  std::vector<std::string> line =
      split_line(fault_repro_command(scenario, "DFS", faults));
  // replay appends these to the lines it echoes.
  line.push_back("--reliable=0");
  line.push_back("--shards=4");
  line.push_back("--prr-trace=levels.txt");
  EXPECT_NO_THROW(parse_flags(line).require_known(kReplayFlags));

  SoakOracleOptions band;
  band.drift_band = 1.2;
  std::vector<std::string> soak = split_line(soak_repro_command(
      parse_soak_spec("seed=7,n=20,events=40"), faults, false, &band));
  soak.push_back("--distributed=1");
  soak.push_back("--shards=2");
  EXPECT_NO_THROW(parse_flags(soak).require_known(kSoakReplayFlags));
}

TEST(ReplayFlags, UnknownFlagsAreRejectedPerMode) {
  const std::vector<std::string> base = {"--family=ring", "--n=8",
                                         "--scheduler=DFS"};
  for (const char* stray :
       {"--shard=4", "--seeds=3", "--soak-band=1.2", "--distributed=1"}) {
    std::vector<std::string> line = base;
    line.push_back(stray);
    EXPECT_THROW(parse_flags(line).require_known(kReplayFlags), contract_error)
        << stray;
  }
  for (const char* stray : {"--scheduler=DFS", "--n=8", "--shard=2"}) {
    EXPECT_THROW(parse_flags({"--soak=seed=7", stray})
                     .require_known(kSoakReplayFlags),
                 contract_error)
        << stray;
  }
}

/// The contract_error message replay's soak or scheduler mode raises for
/// `flags`, or "" when the line is accepted.
std::string rejection(const std::vector<std::string>& flags) {
  const CliArgs args = parse_flags(flags);
  try {
    if (args.has("soak"))
      require_soak_replay_flags(args);
    else
      require_replay_flags(args);
  } catch (const contract_error& error) {
    return error.what();
  }
  return "";
}

TEST(ReplayFlags, FlagsTheRunWouldIgnoreAreRejectedPerMode) {
  // Scheduler mode: transport, trace and shard flags need a fault plan.
  const std::vector<std::string> base = {"--family=ring", "--n=8", "--seed=3",
                                         "--scheduler=DFS"};
  for (const std::string flag : {"--reliable=0", "--reliable=1",
                                 "--prr-trace=/nonexistent/file",
                                 "--shards=4"}) {
    std::vector<std::string> line = base;
    line.push_back(flag);
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(rejection(line).find(name), std::string::npos) << flag;
    line.push_back("--faults=drop=0.1");
    EXPECT_EQ(rejection(line), "") << flag;
  }
  EXPECT_EQ(rejection(base), "");
  std::vector<std::string> faults_none = base;
  faults_none.push_back("--faults=none");
  faults_none.push_back("--shards=4");
  EXPECT_EQ(rejection(faults_none), "");

  // Soak mode: --reliable needs --faults, --shards a distributed engine.
  EXPECT_NE(rejection({"--soak=seed=7", "--reliable=0"}).find("--reliable"),
            std::string::npos);
  EXPECT_NE(rejection({"--soak=seed=7", "--distributed=1", "--reliable=1"})
                .find("--reliable"),
            std::string::npos);
  EXPECT_EQ(rejection({"--soak=seed=7", "--faults=drop=0.1", "--reliable=0"}),
            "");
  for (const std::vector<std::string>& line :
       {std::vector<std::string>{"--soak=seed=7", "--shards=4"},
        std::vector<std::string>{"--soak=seed=7", "--distributed=0",
                                 "--shards=4"}})
    EXPECT_NE(rejection(line).find("--shards"), std::string::npos);
  EXPECT_EQ(rejection({"--soak=seed=7", "--distributed=1", "--shards=4"}), "");
  EXPECT_EQ(rejection({"--soak=seed=7", "--faults=none", "--shards=4"}), "");
  EXPECT_EQ(rejection({"--soak=seed=7"}), "");
}

}  // namespace
}  // namespace fdlsp
