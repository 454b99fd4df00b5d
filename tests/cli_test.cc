#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "lb/stats_io.h"
#include "util/check.h"
#include "util/options.h"

namespace cloudlb {
namespace {

// ---------------------------------------------------------------- Options

TEST(OptionsTest, ParsesEqualsForm) {
  Options options{{"--app=wave2d", "--cores=8"}};
  EXPECT_EQ(options.get_string("app"), "wave2d");
  EXPECT_EQ(options.get_int("cores"), 8);
}

TEST(OptionsTest, ParsesSpaceForm) {
  Options options{{"--app", "mol3d", "--cores", "16"}};
  EXPECT_EQ(options.get_string("app"), "mol3d");
  EXPECT_EQ(options.get_int("cores"), 16);
}

TEST(OptionsTest, BareFlagIsTrue) {
  Options options{{"--csv", "--verbose=false"}};
  EXPECT_TRUE(options.get_bool("csv"));
  EXPECT_FALSE(options.get_bool("verbose"));
  EXPECT_FALSE(options.get_bool("absent", false));
  EXPECT_TRUE(options.get_bool("absent2", true));
}

TEST(OptionsTest, PositionalArgumentsKept) {
  Options options{{"sweep", "--cores=4", "extra"}};
  EXPECT_EQ(options.positional(),
            (std::vector<std::string>{"sweep", "extra"}));
}

TEST(OptionsTest, DefaultsWhenMissing) {
  Options options{{}};
  EXPECT_EQ(options.get_string("app", "jacobi2d"), "jacobi2d");
  EXPECT_EQ(options.get_int("cores", 8), 8);
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.05), 0.05);
}

TEST(OptionsTest, IntListParsing) {
  Options options{{"--cores=4,8,16,32"}};
  EXPECT_EQ(options.get_int_list("cores"), (std::vector<int>{4, 8, 16, 32}));
  Options single{{"--cores=7"}};
  EXPECT_EQ(single.get_int_list("cores"), (std::vector<int>{7}));
}

TEST(OptionsTest, TypeErrorsThrow) {
  Options options{{"--cores=eight", "--epsilon=tiny", "--csv=maybe",
                   "--list=1,x"}};
  EXPECT_THROW(options.get_int("cores"), CheckFailure);
  EXPECT_THROW(options.get_double("epsilon"), CheckFailure);
  EXPECT_THROW(options.get_bool("csv"), CheckFailure);
  EXPECT_THROW(options.get_int_list("list"), CheckFailure);
}

TEST(OptionsTest, UnusedOptionsDetected) {
  Options options{{"--app=wave2d", "--epsilan=0.1"}};
  options.get_string("app");
  EXPECT_THROW(options.check_unused(), CheckFailure);
  options.get_double("epsilan");
  EXPECT_NO_THROW(options.check_unused());
}

// -------------------------------------------------------------------- CLI

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CliResult r = cli({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliResult r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("penalty"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ListsAppsAndBalancers) {
  const CliResult apps = cli({"apps"});
  EXPECT_EQ(apps.code, 0);
  EXPECT_NE(apps.out.find("jacobi2d"), std::string::npos);
  EXPECT_NE(apps.out.find("mol3d"), std::string::npos);
  const CliResult balancers = cli({"balancers"});
  EXPECT_EQ(balancers.code, 0);
  EXPECT_NE(balancers.out.find("ia-refine"), std::string::npos);
  EXPECT_NE(balancers.out.find("null"), std::string::npos);
}

TEST(CliTest, PenaltyRunsAndReports) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("app penalty (%)"), std::string::npos);
  EXPECT_NE(r.out.find("migrations"), std::string::npos);
}

TEST(CliTest, PenaltyCsvMode) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("metric,value"), std::string::npos);
}

TEST(CliTest, SweepCoversGrid) {
  const CliResult r =
      cli({"sweep", "--app=jacobi2d", "--cores=4,8", "--iterations=20",
           "--bg-iterations=40", "--balancers=null,ia-refine"});
  EXPECT_EQ(r.code, 0) << r.err;
  // 4 data rows: 2 core counts x 2 balancers.
  int rows = 0;
  std::istringstream in{r.out};
  std::string line;
  while (std::getline(in, line))
    if (line.find("ia-refine") != std::string::npos ||
        line.find("null") != std::string::npos)
      ++rows;
  EXPECT_EQ(rows, 4);
}

TEST(CliTest, SweepJobsOutputIsThreadCountInvariant) {
  // The parallel grid runner must produce byte-identical output no matter
  // how many worker threads execute the cells.
  const std::vector<std::string> base = {
      "sweep", "--app=jacobi2d", "--cores=4,8", "--iterations=20",
      "--bg-iterations=40", "--balancers=null,ia-refine"};
  auto with_jobs = [&](const std::string& jobs) {
    std::vector<std::string> args = base;
    args.push_back("--jobs=" + jobs);
    return cli(args);
  };
  const CliResult serial = with_jobs("1");
  EXPECT_EQ(serial.code, 0) << serial.err;
  for (const char* jobs : {"4", "0"}) {  // 0 = all hardware threads
    const CliResult parallel = with_jobs(jobs);
    EXPECT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, serial.out) << "--jobs=" << jobs;
  }
}

TEST(CliTest, PenaltyShardsOutputMatchesLegacy) {
  // --shards moves the whole runtime onto the partitioned engines; the
  // report must stay byte-identical to the legacy single-engine run, for
  // serial and parallel windows alike. 16 cores / 4 per node = 4 nodes,
  // so both shard counts genuinely partition the machine.
  const std::vector<std::string> base = {"penalty", "--app=jacobi2d",
                                         "--cores=16", "--iterations=20",
                                         "--bg-iterations=40"};
  const CliResult legacy = cli(base);
  EXPECT_EQ(legacy.code, 0) << legacy.err;
  for (const auto& extra : std::vector<std::vector<const char*>>{
           {"--shards=1", "--jobs=4"},  // legacy dispatch; --jobs inert
           {"--shards=2"},
           {"--shards=4", "--jobs=1"},
           {"--shards=4", "--jobs=3"}}) {
    std::vector<std::string> args = base;
    for (const char* a : extra) args.emplace_back(a);
    const CliResult sharded = cli(args);
    EXPECT_EQ(sharded.code, 0) << sharded.err;
    EXPECT_EQ(sharded.out, legacy.out) << extra[0];
  }
}

// Tenant fields and timeline tracing need the single engine. A
// partitioned run (--shards > 1 over more than one node) that asks for
// either must fail before any simulation, with an error naming the flags.
void expect_partitioned_rejection(const CliResult& r,
                                  const std::vector<const char*>& flags) {
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(r.out.empty()) << r.out;
  for (const char* flag : flags)
    EXPECT_NE(r.err.find(flag), std::string::npos) << flag << ": " << r.err;
}

TEST(CliTest, PartitionedTenantsFailAtParse) {
  expect_partitioned_rejection(
      cli({"penalty", "--app=jacobi2d", "--cores=16", "--iterations=20",
           "--bg-iterations=40", "--shards=4", "--tenants=8"}),
      {"--tenants=8", "--shards=4", "--cores=16"});
}

TEST(CliTest, SweepChecksEveryCoresCellForPartitionedTenants) {
  // --cores=4 is one quad-core node (not partitioned); 16 is four.
  expect_partitioned_rejection(
      cli({"sweep", "--app=jacobi2d", "--cores=4,16", "--iterations=20",
           "--bg-iterations=40", "--shards=4", "--tenants=8"}),
      {"--tenants=8", "--shards=4", "--cores=16"});
}

TEST(CliTest, PartitionedTimelineFailsAtParse) {
  expect_partitioned_rejection(
      cli({"timeline", "--app=jacobi2d", "--cores=8", "--iterations=16",
           "--bg-iterations=30", "--shards=2"}),
      {"timeline", "--shards=2", "--cores=8"});
}

TEST(CliTest, TimelineOnOneNodeIgnoresShards) {
  // --shards clamps to the node count, so on one node the run stays on
  // the single engine and traces as usual.
  const std::vector<std::string> base = {
      "timeline", "--app=jacobi2d", "--cores=4", "--iterations=16",
      "--bg-iterations=30", "--width=60"};
  std::vector<std::string> sharded = base;
  sharded.emplace_back("--shards=4");
  const CliResult legacy = cli(base);
  const CliResult r = cli(sharded);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, legacy.out);
}

TEST(CliTest, TimelineRenders) {
  const CliResult r = cli({"timeline", "--app=wave2d", "--cores=4",
                           "--iterations=16", "--bg-iterations=30",
                           "--width=60"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("core 0"), std::string::npos);
  EXPECT_NE(r.out.find("busy %"), std::string::npos);
}

TEST(CliTest, RecordThenReplayRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cloudlb_trace.lbstats";
  const CliResult record =
      cli({"record", "--out=" + path, "--app=jacobi2d", "--cores=4",
           "--iterations=20", "--bg-iterations=40"});
  EXPECT_EQ(record.code, 0) << record.err;
  EXPECT_NE(record.out.find("recorded"), std::string::npos);

  const CliResult replay =
      cli({"replay", "--trace=" + path, "--balancer=ia-refine"});
  EXPECT_EQ(replay.code, 0) << replay.err;
  EXPECT_NE(replay.out.find("max load before"), std::string::npos);
  EXPECT_NE(replay.out.find("total migrations"), std::string::npos);

  // The count record prints is read off the recorder after the run; it
  // must be the number of windows the trace really holds.
  int printed = -1;
  ASSERT_EQ(std::sscanf(record.out.c_str(), "recorded %d LB windows",
                        &printed),
            1)
      << record.out;
  std::ifstream trace{path};
  EXPECT_GT(printed, 0);
  EXPECT_EQ(static_cast<std::size_t>(printed), read_stats(trace).size());
}

TEST(CliTest, ReplayMissingFileFails) {
  const CliResult r = cli({"replay", "--trace=/no/such/file.lbstats"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, RecordRequiresOut) {
  const CliResult r = cli({"record", "--app=jacobi2d"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, BadOptionValueReportsError) {
  const CliResult r = cli({"penalty", "--cores=many"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(CliTest, UnknownOptionReportsError) {
  const CliResult r = cli({"penalty", "--coers=8", "--iterations=10",
                           "--bg-iterations=20"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--coers"), std::string::npos);
}

TEST(CliTest, UnknownBalancerReportsError) {
  const CliResult r = cli({"penalty", "--balancer=magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown balancer"), std::string::npos);
}

TEST(CliTest, UnknownAppReportsError) {
  const CliResult r = cli({"penalty", "--app=linpack"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown application"), std::string::npos);
}

TEST(CliTest, EstimatorWindowTooSmallFailsAtParse) {
  // 1 or 2 samples have a degenerate median; the flag takes 0 (off) or
  // >= 3, and the error must name both the flag and the rule.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-window=2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--estimator-window"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 3"), std::string::npos) << r.err;
}

TEST(CliTest, ShardCountBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--shards=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, EstimatorClampFactorBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-clamp-factor=0.5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--estimator-clamp-factor"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, UnknownEstimatorModeListsTheValidOnes) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=psychic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("persist|ewma|trend|regress"), std::string::npos)
      << r.err;
}

TEST(CliTest, NonPositiveForecastHorizonFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=trend", "--forecast-horizon=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--forecast-horizon"), std::string::npos) << r.err;
}

TEST(CliTest, NegativeForecastMarginFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=ewma", "--forecast-margin=-0.5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--forecast-margin"), std::string::npos) << r.err;
}

TEST(CliTest, ForecastingPenaltyRunsEndToEnd) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=trend", "--estimator-window=3",
                           "--forecast-margin=0.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("app penalty (%)"), std::string::npos);
}

// More cores than chares used to abort deep in RuntimeJob::start with a
// CHECK on the overdecomposition invariant; the configuration is now
// rejected when it is built, naming the flag and the app's chare count.
struct CoreOverflow {
  const char* app;
  int cores;
  const char* chares;
};

// Without this gtest names each case by the struct's raw bytes, which hold
// ASLR-randomised string pointers and uninitialised padding, so the test
// name changed from one discovery run to the next.
void PrintTo(const CoreOverflow& c, std::ostream* os) {
  *os << c.app << " --cores=" << c.cores << " (" << c.chares << " chares)";
}

class CliCoreOverflowTest : public ::testing::TestWithParam<CoreOverflow> {};

TEST_P(CliCoreOverflowTest, PenaltyRejectsMoreCoresThanChares) {
  const CoreOverflow c = GetParam();
  const CliResult r = cli({"penalty", std::string{"--app="} + c.app,
                           "--cores=" + std::to_string(c.cores)});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--cores=" + std::to_string(c.cores)),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find(std::string{c.chares} + " chares of " + c.app),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("overdecomposition"), std::string::npos) << r.err;
}

TEST_P(CliCoreOverflowTest, SweepRejectsMoreCoresThanChares) {
  // One bad entry in the list fails the sweep before any cell runs.
  const CoreOverflow c = GetParam();
  const CliResult r =
      cli({"sweep", std::string{"--app="} + c.app,
           "--cores=4," + std::to_string(c.cores), "--balancers=null"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find(std::string{c.chares} + " chares of " + c.app),
            std::string::npos)
      << r.err;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, CliCoreOverflowTest,
    ::testing::Values(CoreOverflow{"jacobi2d", 1024, "512"},
                      CoreOverflow{"wave2d", 4096, "512"},
                      CoreOverflow{"mol3d", 256, "128"}),
    [](const auto& test_info) { return std::string{test_info.param.app}; });

TEST(CliTest, CoresBelowBackgroundJobFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--cores=1 is below the 2 cores"), std::string::npos)
      << r.err;
  const CliResult zero = cli({"sweep", "--cores=0"});
  EXPECT_EQ(zero.code, 1);
  EXPECT_NE(zero.err.find("--cores must be at least 1"), std::string::npos)
      << zero.err;
}

// Inputs the runs used to take silently or reject late with an internal
// message: each now fails at parse time, before any simulation, with an
// error naming the flag.

TEST(CliTest, ZeroIterationsFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=4", "--iterations=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--iterations must be at least 1; got 0"),
            std::string::npos)
      << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(CliTest, NegativeIterationsFailsAtParse) {
  const CliResult r = cli({"sweep", "--cores=4", "--iterations=-5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--iterations must be at least 1; got -5"),
            std::string::npos)
      << r.err;
}

TEST(CliTest, ZeroBackgroundWeightFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=4", "--bg-weight=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--bg-weight must be a finite weight > 0"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("core.cc"), std::string::npos) << r.err;
}

TEST(CliTest, NanEpsilonFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=4", "--epsilon=nan"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--epsilon must be a finite fraction >= 0"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("refinement.cc"), std::string::npos) << r.err;
}

TEST(CliTest, FaultCoreOutsideCoresFailsAtParse) {
  const CliResult r =
      cli({"penalty", "--cores=8",
           "--faults=spike(core=99,start=0.1,duration=0.5)"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("spike(core=99) is outside --cores=8"),
            std::string::npos)
      << r.err;
}

TEST(CliTest, ZeroBackgroundIterationsFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=4", "--bg-iterations=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--bg-iterations must be at least 1; got 0"),
            std::string::npos)
      << r.err;
}

TEST(CliTest, NegativeJobsFailsAtParse) {
  const CliResult r = cli({"penalty", "--cores=4", "--jobs=-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--jobs must be at least 1"), std::string::npos)
      << r.err;
  const CliResult sweep = cli({"sweep", "--cores=4", "--jobs=-2"});
  EXPECT_EQ(sweep.code, 1);
  EXPECT_NE(sweep.err.find("--jobs must be at least 1"), std::string::npos)
      << sweep.err;
}

}  // namespace
}  // namespace cloudlb
