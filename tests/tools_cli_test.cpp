#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace p2prank::tools {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/p2prank_cli_" + name;
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const auto r = cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const auto r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, BadFlagSyntaxFails) {
  const auto r = cli({"plan", "positional"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unexpected argument"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const auto r = cli({"plan", "--rankerz=5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag --rankerz"), std::string::npos);
  EXPECT_EQ(r.out, "");
}

TEST(Cli, MissingRequiredFlagFails) {
  EXPECT_EQ(cli({"stats"}).code, 2);
  EXPECT_EQ(cli({"rank"}).code, 2);
  EXPECT_EQ(cli({"simulate"}).code, 2);
  EXPECT_EQ(cli({"generate"}).code, 2);
}

TEST(Cli, MissingCrawlFileReportsError) {
  const auto r = cli({"stats", "--crawl=/nonexistent/file"});
  EXPECT_EQ(r.code, 1);
  EXPECT_FALSE(r.err.empty());
}

TEST(Cli, GenerateStatsRankSimulatePipeline) {
  const auto crawl = temp_path("pipeline.crawl");
  const auto ckpt = temp_path("pipeline.ckpt");

  const auto gen = cli({"generate", "--out=" + crawl, "--pages=2000", "--seed=5"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote"), std::string::npos);

  const auto stats = cli({"stats", "--crawl=" + crawl, "--sinks"});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("pages:"), std::string::npos);
  EXPECT_NE(stats.out.find("rank sinks:"), std::string::npos);

  const auto ranked =
      cli({"rank", "--crawl=" + crawl, "--top=5", "--checkpoint=" + ckpt});
  ASSERT_EQ(ranked.code, 0) << ranked.err;
  EXPECT_NE(ranked.out.find("Top pages"), std::string::npos);
  EXPECT_NE(ranked.out.find("checkpoint written"), std::string::npos);

  const auto sim = cli({"simulate", "--crawl=" + crawl, "--k=4", "--t-end=30",
                        "--algorithm=dpr1", "--partition=url"});
  ASSERT_EQ(sim.code, 0) << sim.err;
  EXPECT_NE(sim.out.find("rel err"), std::string::npos);

  // Warm start from the centralized checkpoint: final error ~ 0 immediately.
  const auto warm = cli({"simulate", "--crawl=" + crawl, "--k=4", "--t-end=10",
                         "--warm=" + ckpt, "--partition=url"});
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("warm start:"), std::string::npos);
}

TEST(Cli, SimulateValidatesEnums) {
  const auto crawl = temp_path("enums.crawl");
  ASSERT_EQ(cli({"generate", "--out=" + crawl, "--pages=500"}).code, 0);
  EXPECT_EQ(cli({"simulate", "--crawl=" + crawl, "--algorithm=dprX"}).code, 2);
  EXPECT_EQ(cli({"simulate", "--crawl=" + crawl, "--partition=tarot"}).code, 2);
}

TEST(Cli, PlanMatchesTable1Headline) {
  const auto r = cli({"plan", "--rankers=1000"});
  ASSERT_EQ(r.code, 0);
  // h = log16(1000) ~ 2.49 -> ~7480 s ~ 2.08 h.
  EXPECT_NE(r.out.find("min iteration interval"), std::string::npos);
  EXPECT_NE(r.out.find("h"), std::string::npos);
}

TEST(Cli, PlanRejectsNonPositiveInputsBeforePrinting) {
  // Each used to print the table and half the interval line, then fail.
  for (const auto& [arg, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"--pages=0", "--pages"},
           {"--pages=-5", "--pages"},
           {"--record-bytes=0", "--record-bytes"},
           {"--bisection-mbps=0", "--bisection-mbps"},
           {"--rankers=0.5", "--rankers"}}) {
    const auto r = cli({"plan", arg});
    EXPECT_EQ(r.code, 2) << arg;
    EXPECT_EQ(r.out, "") << arg;
    EXPECT_NE(r.err.find(flag), std::string::npos) << arg << ": " << r.err;
  }
}

TEST(Cli, NonFiniteFlagValueFailsBeforeOpeningTheCrawl) {
  // The crawl does not exist: reaching it would exit 1, and --t-end=inf
  // would never end the run.
  const auto r = cli({"simulate", "--crawl=/nonexistent/file", "--t-end=inf"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--t-end expects a finite number, got 'inf'"), std::string::npos)
      << r.err;
  EXPECT_EQ(r.out, "");
}

TEST(Cli, RankTopZeroSkipsTable) {
  const auto crawl = temp_path("topzero.crawl");
  ASSERT_EQ(cli({"generate", "--out=" + crawl, "--pages=500"}).code, 0);
  const auto r = cli({"rank", "--crawl=" + crawl, "--top=0"});
  ASSERT_EQ(r.code, 0);
  EXPECT_EQ(r.out.find("Top pages"), std::string::npos);
}

}  // namespace
}  // namespace p2prank::tools
