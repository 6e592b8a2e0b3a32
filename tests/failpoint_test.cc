// Unit tests of the failpoint registry itself: trigger semantics, spec
// validation, disarm/reset behavior and the disabled fast path. The
// end-to-end fault drills live in chaos_test.cc.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"

namespace pilote {
namespace fail {
namespace {

// PILOTE_FAILPOINT registers through a function-local static, so the name
// must be a literal at the expansion site — a pass-through macro keeps each
// test's callsites honest while staying readable.
#define Hit(name) PILOTE_FAILPOINT(name)

bool Registered(const std::string& name) {
  for (const std::string& known : FailpointRegistry::Global().Names()) {
    if (known == name) return true;
  }
  return false;
}

TEST(FailpointTest, DisabledSubsystemIsAlwaysOkAndRegistersNothing) {
  ASSERT_FALSE(Enabled());
  EXPECT_TRUE(Hit("test/disabled").ok());
  EXPECT_FALSE(Registered("test/disabled"));
}

TEST(FailpointTest, EnabledButUnarmedIsOkAndRegisters) {
  ScopedFailpoints scope;
  EXPECT_TRUE(Hit("test/unarmed").ok());
  EXPECT_TRUE(Registered("test/unarmed"));
}

TEST(FailpointTest, OnceFiresExactlyOnce) {
  ScopedFailpoints scope;
  ASSERT_TRUE(
      FailpointRegistry::Global().Arm("test/once", FailpointSpec::Once()).ok());
  Status first = Hit("test/once");
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_NE(first.message().find("test/once"), std::string::npos);
  EXPECT_TRUE(Hit("test/once").ok());
  EXPECT_TRUE(Hit("test/once").ok());
}

TEST(FailpointTest, AlwaysFiresEveryTimeUntilDisarmed) {
  ScopedFailpoints scope;
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Arm("test/always",
                       FailpointSpec::Always(StatusCode::kUnavailable))
                  .ok());
  EXPECT_EQ(Hit("test/always").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Hit("test/always").code(), StatusCode::kUnavailable);
  FailpointRegistry::Global().Disarm("test/always");
  EXPECT_TRUE(Hit("test/always").ok());
}

TEST(FailpointTest, ProbabilityScheduleIsDeterministicInSeed) {
  ScopedFailpoints scope;
  auto schedule = [](uint64_t seed) {
    EXPECT_TRUE(FailpointRegistry::Global()
                    .Arm("test/prob", FailpointSpec::WithProbability(0.5, seed))
                    .ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!Hit("test/prob").ok());
    return fired;
  };
  std::vector<bool> a = schedule(123);
  std::vector<bool> b = schedule(123);
  std::vector<bool> c = schedule(456);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-64 false-failure odds
  int fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST(FailpointTest, RearmingResetsOnceExhaustion) {
  ScopedFailpoints scope;
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Arm("test/rearm", FailpointSpec::Once())
                  .ok());
  EXPECT_FALSE(Hit("test/rearm").ok());
  EXPECT_TRUE(Hit("test/rearm").ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Arm("test/rearm", FailpointSpec::Once())
                  .ok());
  EXPECT_FALSE(Hit("test/rearm").ok());
}

TEST(FailpointTest, ArmRejectsInvalidSpecs) {
  ScopedFailpoints scope;
  FailpointSpec ok_code = FailpointSpec::Once();
  ok_code.code = StatusCode::kOk;
  EXPECT_EQ(FailpointRegistry::Global().Arm("test/bad", ok_code).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FailpointRegistry::Global()
                .Arm("test/bad", FailpointSpec::WithProbability(1.5, 1))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FailpointTest, StatsCountHitsAndFires) {
  ScopedFailpoints scope;
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Arm("test/stats", FailpointSpec::Always())
                  .ok());
  for (int i = 0; i < 4; ++i) {
    Status status = Hit("test/stats");
    (void)status.ok();
  }
  bool found = false;
  for (const FailpointStats& stats : FailpointRegistry::Global().Stats()) {
    if (stats.name != "test/stats") continue;
    found = true;
    EXPECT_GE(stats.hits, 4);
    EXPECT_EQ(stats.fires, 4);
    EXPECT_TRUE(stats.armed);
  }
  EXPECT_TRUE(found);
}

TEST(FailpointTest, ScopedFailpointsDisarmsOnExit) {
  {
    ScopedFailpoints scope;
    ASSERT_TRUE(FailpointRegistry::Global()
                    .Arm("test/scoped", FailpointSpec::Always())
                    .ok());
    EXPECT_FALSE(Hit("test/scoped").ok());
  }
  ASSERT_FALSE(Enabled());
  EXPECT_TRUE(Hit("test/scoped").ok());
  {
    ScopedFailpoints scope;
    EXPECT_TRUE(Hit("test/scoped").ok()) << "previous arm must not leak";
  }
}

}  // namespace
}  // namespace fail
}  // namespace pilote
