// Manifest grammar: defaults, every key, comments, and the hard-error
// contract (a typo must not silently shrink a verification matrix).
#include "service/manifest.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace gpo::service {
namespace {

TEST(Manifest, ModelOnlyLineGetsDefaults) {
  JobSpec job = parse_job_line("nsdp:8");
  EXPECT_EQ(job.model, "nsdp:8");
  EXPECT_TRUE(job.engines.empty());  // scheduler substitutes the default set
  EXPECT_DOUBLE_EQ(job.max_seconds, kDefaultJobSeconds);
  EXPECT_EQ(job.max_states, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(job.expect.empty());
}

TEST(Manifest, AllKeysParse) {
  JobSpec job = parse_job_line(
      "examples/nets/fig7.net engines=gpo-intern,por max-seconds=2.5 "
      "max-states=1000 family-store=zdd expect=deadlock",
      7);
  EXPECT_EQ(job.model, "examples/nets/fig7.net");
  ASSERT_EQ(job.engines.size(), 2u);
  EXPECT_EQ(job.engines[0], "gpo-intern");
  EXPECT_EQ(job.engines[1], "por");
  EXPECT_DOUBLE_EQ(job.max_seconds, 2.5);
  EXPECT_EQ(job.max_states, 1000u);
  EXPECT_EQ(job.family_store, "zdd");
  EXPECT_EQ(job.expect, "deadlock");
  EXPECT_EQ(job.line, 7u);
}

TEST(Manifest, FamilyStoreDefaultsEmptyAndValidates) {
  EXPECT_TRUE(parse_job_line("nsdp:8").family_store.empty());
  EXPECT_EQ(parse_job_line("nsdp:8 family-store=explicit").family_store,
            "explicit");
  EXPECT_EQ(parse_job_line("nsdp:8 family-store=zdd").family_store, "zdd");
  EXPECT_THROW((void)parse_job_line("nsdp:8 family-store=bdd"), ManifestError);
  EXPECT_THROW((void)parse_job_line("nsdp:8 family-store="), ManifestError);
}

TEST(Manifest, CommentsAndBlankLinesAreSkipped) {
  std::istringstream in(
      "# full-line comment\n"
      "\n"
      "fig7 expect=deadlock   # trailing comment\n"
      "   \n"
      "rw:4 engines=por\n");
  Manifest m = parse_manifest(in);
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].model, "fig7");
  EXPECT_EQ(m.jobs[0].expect, "deadlock");
  EXPECT_EQ(m.jobs[0].line, 3u);
  EXPECT_EQ(m.jobs[1].model, "rw:4");
  EXPECT_EQ(m.jobs[1].line, 5u);
}

TEST(Manifest, DefaultPortfolioIsKnownAndDiverse) {
  const auto& portfolio = default_portfolio();
  ASSERT_GE(portfolio.size(), 3u);
  for (const std::string& name : portfolio)
    EXPECT_TRUE(is_known_engine(name)) << name;
  EXPECT_FALSE(is_known_engine("smt"));
}

TEST(Manifest, MalformedLinesAreHardErrors) {
  EXPECT_THROW((void)parse_job_line("fig7 engines="), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 engines=por,smt"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-seconds=0"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-seconds=abc"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-states=0"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 max-states=5x"), ManifestError);
  EXPECT_THROW((void)parse_job_line("nsdp:-1"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 threads=2"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 expect=maybe"), ManifestError);
  EXPECT_THROW((void)parse_job_line("fig7 budget=3"), ManifestError);
  EXPECT_THROW((void)parse_job_line("   "), ManifestError);
}

TEST(Manifest, ErrorsCarryTheLineNumber) {
  std::istringstream in("fig7\nrw:4 engines=nosuch\n");
  try {
    (void)parse_manifest(in);
    FAIL() << "expected ManifestError";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Manifest, MissingFileThrows) {
  EXPECT_THROW((void)parse_manifest_file("/nonexistent/jobs.manifest"),
               ManifestError);
}

}  // namespace
}  // namespace gpo::service
