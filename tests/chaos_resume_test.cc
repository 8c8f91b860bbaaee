// Kill-and-recover chaos harness: arm a fault site, let the c-chase die at
// it, resume from the newest checkpoint, and require the final instance and
// statistics to be bit-identical to an uninterrupted run. The c-chase is
// deterministic, so a checkpoint at a safe point plus re-execution of the
// work lost after it must reproduce the exact same trajectory — any
// divergence is a checkpoint bug, not noise.
//
// The harness sweeps each site over increasing skip counts (the fault moves
// later into the run each time) until the run completes without hitting the
// site, so every dynamic occurrence of every site is exercised. The
// in-memory checkpointer runs at cadence 1: every safe point is retained,
// making the recovery window as tight as the engine allows.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

Status Injected() { return Status::Internal("injected fault"); }

std::string SiteTestName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

// Hard cap on the skip sweep; every run here hits each site far fewer times.
constexpr std::size_t kMaxSkip = 64;

void ExpectSameStats(const ChaseStats& got, const ChaseStats& want) {
  EXPECT_EQ(got.tgd_triggers, want.tgd_triggers);
  EXPECT_EQ(got.tgd_fires, want.tgd_fires);
  EXPECT_EQ(got.egd_steps, want.egd_steps);
  EXPECT_EQ(got.fresh_nulls, want.fresh_nulls);
  EXPECT_EQ(got.values_rewritten, want.values_rewritten);
}

// ---------------------------------------------------------------------------
// C-chase: kill at every site, every occurrence; resume must be identical.
// ---------------------------------------------------------------------------

struct CChaseBaseline {
  std::string rendered;
  ChaseStats stats;
};

CChaseBaseline RunCChaseBaseline() {
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  return {RenderConcreteInstance(outcome->target, program->universe),
          outcome->stats};
}

class CChaseChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }
};

TEST_P(CChaseChaosTest, KillResumeIsBitIdentical) {
  const CChaseBaseline baseline = RunCChaseBaseline();
  const std::string site = GetParam();
  // Trigger collection fans out over the pool only when jobs > 1; jobs is
  // not part of the checkpoint config, so the resumed run may use 1.
  const unsigned jobs = site == "thread-pool/dispatch" ? 2 : 1;

  std::size_t kills = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto program = ParseOrDie(kPaperProgram);
    Checkpointer checkpointer("", &program->schema, &program->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;
    options.jobs = jobs;

    bool killed = false;
    {
      ScopedFault fault(site, Injected(), skip);
      auto outcome =
          CChase(program->source, program->lifted, &program->universe,
                 options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        // The fault moved past the last occurrence of the site: the sweep
        // has covered every dynamic hit. Sanity-check and stop.
        EXPECT_EQ(RenderConcreteInstance(outcome->target, program->universe),
                  baseline.rendered);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      killed = true;
    }
    if (!killed) break;
    ++kills;

    // Recover: resume from the newest checkpoint (or from scratch when the
    // kill landed before the first safe point persisted).
    CChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed = CChase(program->source, program->lifted,
                          &program->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, program->universe),
              baseline.rendered)
        << "divergence after kill at " << site << "@" << skip;
    ExpectSameStats(resumed->stats, baseline.stats);
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
}

INSTANTIATE_TEST_SUITE_P(AllSites, CChaseChaosTest,
                         ::testing::Values("cchase/normalize-source",
                                           "cchase/tgd-phase",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint",
                                           "normalize/algorithm1",
                                           "thread-pool/dispatch"),
                         SiteTestName);

// ---------------------------------------------------------------------------
// Budget: a resumed run charges the remaining allowance, not a fresh one.
// ---------------------------------------------------------------------------

TEST(BudgetResumeTest, ResumedRunChargesRemainingBudget) {
  // The paper program needs 5 tgd fires end to end; cap at 4.
  ChaseLimits limits;
  limits.max_tgd_fires = 4;

  auto program = ParseOrDie(kPaperProgram);
  Checkpointer checkpointer("", &program->schema, &program->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);
  CChaseOptions options;
  options.limits = limits;
  options.checkpointer = &checkpointer;
  auto aborted =
      CChase(program->source, program->lifted, &program->universe, options);
  ASSERT_TRUE(aborted.ok()) << aborted.status();
  ASSERT_EQ(aborted->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(aborted->abort_dimension, ResourceDimension::kTgdFires);
  ASSERT_TRUE(checkpointer.latest().has_value());

  // Same limits on resume: the run still cannot afford the remaining work.
  CChaseOptions same_budget;
  same_budget.limits = limits;
  same_budget.resume_from = &*checkpointer.latest();
  auto still_aborted = CChase(program->source, program->lifted,
                              &program->universe, same_budget);
  ASSERT_TRUE(still_aborted.ok()) << still_aborted.status();
  EXPECT_EQ(still_aborted->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(still_aborted->abort_dimension, ResourceDimension::kTgdFires);

  // Raising the budget is the intended recovery: the resumed run completes
  // and matches an unrestricted run exactly.
  auto unrestricted = ParseOrDie(kPaperProgram);
  auto full = CChase(unrestricted->source, unrestricted->lifted,
                     &unrestricted->universe);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->kind, ChaseResultKind::kSuccess);

  CChaseOptions raised;
  raised.limits.max_tgd_fires = 100;
  raised.resume_from = &*checkpointer.latest();
  auto recovered =
      CChase(program->source, program->lifted, &program->universe, raised);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(recovered->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(RenderConcreteInstance(recovered->target, program->universe),
            RenderConcreteInstance(full->target, unrestricted->universe));
  EXPECT_EQ(recovered->stats.tgd_fires, full->stats.tgd_fires);
}

}  // namespace
}  // namespace tdx
