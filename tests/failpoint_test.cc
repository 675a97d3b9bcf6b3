// Failpoint registry semantics (src/failpoint/failpoint.h): arming modes,
// spec parsing, deterministic firing, the Status the SOFT_FAILPOINT macro
// injects, and the engine-pipeline boundary that turns an injected
// std::bad_alloc into a clean kResourceExhausted.
//
// Every test disarms on exit (ScopedFailpoint or explicit DisarmAll) — the
// registry is process-global.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/failpoint/failpoint.h"

namespace soft {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailpointTest, InventoryNamesAreUniqueAndFindable) {
  std::set<std::string_view> names;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    EXPECT_TRUE(names.insert(site.name).second) << "duplicate " << site.name;
    const failpoint::SiteInfo* found = failpoint::FindSite(site.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->site_class, site.site_class);
    EXPECT_FALSE(site.where.empty());
  }
  EXPECT_EQ(failpoint::FindSite("no.such.site"), nullptr);
}

TEST_F(FailpointTest, UnarmedSitesNeverFireAndArmIsValidated) {
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Evaluate("io.write"));

  EXPECT_FALSE(failpoint::Arm("no.such.site", failpoint::Mode::kError).ok());
  EXPECT_FALSE(
      failpoint::Arm("io.write", failpoint::Mode::kProbability, 1.5).ok());
  EXPECT_FALSE(
      failpoint::Arm("io.write", failpoint::Mode::kProbability, -0.1).ok());
  EXPECT_FALSE(failpoint::AnyArmed());

  ASSERT_TRUE(failpoint::Arm("io.write", failpoint::Mode::kError).ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_TRUE(failpoint::Evaluate("io.write"));
  // Arming one site does not make others fire.
  EXPECT_FALSE(failpoint::Evaluate("io.fsync"));

  failpoint::Disarm("io.write");
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Evaluate("io.write"));
}

TEST_F(FailpointTest, AfterNSkipsThenFiresWithOptionalLimit) {
  ASSERT_TRUE(
      failpoint::Arm("io.write", failpoint::Mode::kAfterN, 0.0, /*skip=*/3,
                     /*fire_limit=*/2)
          .ok());
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(failpoint::Evaluate("io.write"));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false, false}));
  const failpoint::SiteStats stats = failpoint::Stats("io.write");
  EXPECT_EQ(stats.evaluations, 8u);
  EXPECT_EQ(stats.fires, 2u);

  // Without a limit the site keeps firing.
  ASSERT_TRUE(
      failpoint::Arm("io.fsync", failpoint::Mode::kAfterN, 0.0, /*skip=*/1).ok());
  EXPECT_FALSE(failpoint::Evaluate("io.fsync"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(failpoint::Evaluate("io.fsync"));
  }
}

TEST_F(FailpointTest, ProbabilityStreamIsDeterministicAndReseedable) {
  auto draw = [](int n) {
    std::vector<bool> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(failpoint::Evaluate("io.open"));
    }
    return out;
  };
  ASSERT_TRUE(
      failpoint::Arm("io.open", failpoint::Mode::kProbability, 0.5).ok());
  const std::vector<bool> first = draw(64);
  // DisarmAll resets the probability stream: the re-armed site replays the
  // identical draw sequence.
  failpoint::DisarmAll();
  ASSERT_TRUE(
      failpoint::Arm("io.open", failpoint::Mode::kProbability, 0.5).ok());
  EXPECT_EQ(draw(64), first);

  // Some fired and some passed (p=0.5 over 64 draws).
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);

  failpoint::DisarmAll();
  failpoint::SetProbabilitySeed(999);
  ASSERT_TRUE(
      failpoint::Arm("io.open", failpoint::Mode::kProbability, 0.5).ok());
  EXPECT_NE(draw(64), first);
}

TEST_F(FailpointTest, ArmFromSpecParsesTheChaosSyntax) {
  ASSERT_TRUE(failpoint::ArmFromSpec(
                  "io.write=error,eval.enter=after:10:3,io.open=prob:0.25")
                  .ok());
  EXPECT_TRUE(failpoint::Evaluate("io.write"));
  EXPECT_FALSE(failpoint::Evaluate("eval.enter"));  // still skipping
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::ArmFromSpec("io.write=off").ok());
  EXPECT_FALSE(failpoint::AnyArmed());

  EXPECT_FALSE(failpoint::ArmFromSpec("io.write").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("io.write=warp").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("no.such.site=error").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("io.write=prob:nan").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("io.write=after:x").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("").ok());
}

TEST_F(FailpointTest, InjectedStatusFollowsSiteClass) {
  const Status engine = failpoint::InjectedStatus("eval.enter");
  EXPECT_EQ(engine.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(engine.message().find("eval.enter"), std::string::npos);

  const Status io = failpoint::InjectedStatus("io.write");
  EXPECT_EQ(io.code(), StatusCode::kIoError);
  EXPECT_NE(io.message().find("io.write"), std::string::npos);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnDestruction) {
  {
    failpoint::ScopedFailpoint scoped("io.write", failpoint::Mode::kError);
    ASSERT_TRUE(scoped.status().ok());
    EXPECT_TRUE(failpoint::Evaluate("io.write"));
  }
  EXPECT_FALSE(failpoint::AnyArmed());
}

// --- engine-pipeline injection through the public Execute API -------------

TEST_F(FailpointTest, EngineSiteErrorSurfacesAsCleanResourceExhausted) {
  Database db;
  ASSERT_TRUE(db.Execute("SELECT ABS(-1)").ok());

  failpoint::ScopedFailpoint scoped("eval.function", failpoint::Mode::kError);
  const StatementResult injected = db.Execute("SELECT ABS(-1)");
  EXPECT_EQ(injected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(injected.crashed());
  EXPECT_NE(injected.status.message().find("eval.function"), std::string::npos);
}

TEST_F(FailpointTest, CatalogSitesInjectOnTheirStatements) {
  Database db;
  {
    failpoint::ScopedFailpoint scoped("catalog.create", failpoint::Mode::kError);
    EXPECT_EQ(db.Execute("CREATE TABLE t (a INT)").status.code(),
              StatusCode::kResourceExhausted);
  }
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  {
    failpoint::ScopedFailpoint scoped("catalog.insert", failpoint::Mode::kError);
    EXPECT_EQ(db.Execute("INSERT INTO t VALUES (1)").status.code(),
              StatusCode::kResourceExhausted);
  }
  {
    failpoint::ScopedFailpoint scoped("catalog.drop", failpoint::Mode::kError);
    EXPECT_EQ(db.Execute("DROP TABLE t").status.code(),
              StatusCode::kResourceExhausted);
  }
  ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
}

TEST_F(FailpointTest, OomThrowIsCaughtAtTheExecuteBoundary) {
  Database db;
  failpoint::ScopedFailpoint scoped("parse.enter", failpoint::Mode::kOomThrow);
  const StatementResult result = db.Execute("SELECT 1");
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status.message().find("allocation failure"),
            std::string::npos);
  EXPECT_FALSE(result.crashed());
}

TEST_F(FailpointTest, AfterNInjectionIsStatementDeterministic) {
  // The same armed spec replayed against a fresh database injects at the
  // same statement — the property chaos campaigns rely on.
  auto run = [] {
    failpoint::DisarmAll();
    EXPECT_TRUE(failpoint::ArmFromSpec("exec.select=after:3").ok());
    Database db;
    std::vector<bool> ok;
    for (int i = 0; i < 6; ++i) {
      ok.push_back(db.Execute("SELECT 1").ok());
    }
    failpoint::DisarmAll();
    return ok;
  };
  const std::vector<bool> first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first, (std::vector<bool>{true, true, true, false, false, false}));
}

}  // namespace
}  // namespace soft
