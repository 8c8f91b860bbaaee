// Fault injection: every named TDX_FAULT_POINT / PokeFault site must be
// reachable from its engine's public entry point, and an injected fault must
// surface as a structured abort (kAborted with kInjectedFault, or the armed
// Status itself) — never as a claimed solution.

#include "src/common/resource.h"

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/cchase.h"
#include "src/core/certain.h"
#include "src/core/naive_eval.h"
#include "src/core/normalize.h"
#include "src/core/normalize_detail.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/temporal/abstract_chase.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

// Turns a site name into a valid gtest parameterized-test suffix.
std::string SiteTestName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static Status Injected() { return Status::Internal("injected fault"); }
};

// ---------------------------------------------------------------------------
// Registry mechanics
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, UnarmedRegistryIsInert) {
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(FaultRegistry::Fire("nonexistent/site").ok());
}

TEST_F(FaultInjectionTest, ArmedSiteFiresOnceThenDisarms) {
  FaultRegistry::Arm("test/site", Injected());
  EXPECT_TRUE(FaultRegistry::AnyArmed());
  EXPECT_EQ(FaultRegistry::Fire("test/site"), Injected());
  // Consumed: the second hit passes through.
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_EQ(FaultRegistry::HitCount("test/site"), 2u);
}

TEST_F(FaultInjectionTest, SkipCountDelaysTheFault) {
  FaultRegistry::Arm("test/site", Injected(), /*skip_count=*/2);
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_EQ(FaultRegistry::Fire("test/site"), Injected());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("test/scoped", Injected());
    EXPECT_TRUE(FaultRegistry::AnyArmed());
  }
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(FaultRegistry::Fire("test/scoped").ok());
}

TEST_F(FaultInjectionTest, OtherSitesAreUnaffected) {
  ScopedFault fault("test/site-a", Injected());
  EXPECT_TRUE(FaultRegistry::Fire("test/site-b").ok());
  EXPECT_EQ(FaultRegistry::Fire("test/site-a"), Injected());
}

// ---------------------------------------------------------------------------
// The c-chase sites: each phase aborts with kInjectedFault, and an aborted
// chase never claims success.
// ---------------------------------------------------------------------------

class CChaseFaultTest : public FaultInjectionTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(CChaseFaultTest, SiteAbortsTheChase) {
  ScopedFault fault(GetParam(), Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted) << GetParam();
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
  EXPECT_NE(outcome->abort_reason.find("injected fault"), std::string::npos);
  EXPECT_GE(FaultRegistry::HitCount(GetParam()), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSites, CChaseFaultTest,
                         ::testing::Values("cchase/normalize-source",
                                           "cchase/tgd-phase",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint"),
                         SiteTestName);

TEST_F(FaultInjectionTest, LatePhaseFaultPreservesPartialProgress) {
  ScopedFault fault("cchase/egd-fixpoint", Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
  // The fault hit after the tgd phase: stats and the partial target survive
  // for diagnosis.
  EXPECT_GT(outcome->stats.tgd_fires, 0u);
  EXPECT_GT(outcome->target.size(), 0u);
}

// ---------------------------------------------------------------------------
// The per-snapshot chase sites
// ---------------------------------------------------------------------------

class SnapshotChaseFaultTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(SnapshotChaseFaultTest, SiteAbortsTheChase) {
  ScopedFault fault(GetParam(), Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto snapshot = SnapshotAt(program->source, 2015, &program->universe);
  ASSERT_TRUE(snapshot.ok());
  auto outcome =
      ChaseSnapshot(*snapshot, program->mapping, &program->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted) << GetParam();
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
}

INSTANTIATE_TEST_SUITE_P(AllSites, SnapshotChaseFaultTest,
                         ::testing::Values("chase/tgd-phase",
                                           "chase/egd-fixpoint"),
                         SiteTestName);

// ---------------------------------------------------------------------------
// Normalizer sites (fire only under a governed run, i.e. with a guard)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, NaiveNormalizeSiteTripsTheGuard) {
  ScopedFault fault("normalize/naive", Injected());
  auto program = ParseOrDie(kPaperProgram);
  ResourceGuard guard;
  NormalizeStats stats;
  (void)NaiveNormalize(program->source, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
}

TEST_F(FaultInjectionTest, Algorithm1SiteTripsTheGuard) {
  ScopedFault fault("normalize/algorithm1", Injected());
  auto program = ParseOrDie(kPaperProgram);
  ResourceGuard guard;
  NormalizeStats stats;
  (void)Normalize(program->source, program->lifted.TgdBodies(), &stats,
                  &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
}

TEST_F(FaultInjectionTest, Algorithm1SiteTripsACertifiedPass) {
  auto program = ParseOrDie(kPaperProgram);
  const auto phis = program->lifted.TgdBodies();
  const ConcreteInstance normalized = Normalize(program->source, phis);
  ASSERT_TRUE(normalize_detail::CertifyNormalized(normalized, phis));
  ScopedFault fault("normalize/algorithm1", Injected());
  ResourceGuard guard;
  NormalizeStats stats;
  (void)NormalizeIfNeeded(normalized, phis, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
  EXPECT_TRUE(stats.partial);
}

TEST_F(FaultInjectionTest, UngovernedNormalizeIgnoresTheSite) {
  // Without a guard there is no abort channel; the site must not fire (and
  // must not crash).
  ScopedFault fault("normalize/naive", Injected());
  auto program = ParseOrDie(kPaperProgram);
  NormalizeStats stats;
  const ConcreteInstance out =
      NaiveNormalize(program->source, &stats, nullptr);
  EXPECT_GT(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// Naive evaluation, certain answers, and the parser's Status-returning site
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, NaiveEvalSiteTripsTheGuard) {
  auto program = ParseOrDie(kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());

  // The solution is certified normalized for the query: the site fires
  // although no normalization pass runs.
  ASSERT_TRUE(normalize_detail::CertifyNormalized(
      chase->target, {lifted->disjuncts[0].body}));

  ScopedFault fault("naive-eval/normalize", Injected());
  ResourceGuard guard;
  auto answers = NaiveEvaluateConcrete(*lifted, chase->target, &guard);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
  EXPECT_EQ(guard.reason(), Injected().ToString());
}

TEST_F(FaultInjectionTest, Algorithm1SiteAbortsACertifiedEvaluation) {
  auto program = ParseOrDie(kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());
  ASSERT_TRUE(normalize_detail::CertifyNormalized(
      chase->target, {lifted->disjuncts[0].body}));

  ScopedFault fault("normalize/algorithm1", Injected());
  auto answers = NaiveEvaluateConcrete(*lifted, chase->target);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

// Certain answers report a fault in the query's evaluation as an abort with
// its dimension, like a fault in the chase, so `tdx_cli query` prints
// "ABORTED (injected-fault): ..." and exits 4 for both sites.
class CertainAnswersFaultTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(CertainAnswersFaultTest, EvaluationFaultAbortsWithItsDimension) {
  const std::string_view site = GetParam();
  auto program = ParseOrDie(kPaperProgram);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());

  // Count the site's hits inside the chase (hits are counted while any
  // site is armed), so the armed fault skips past them into evaluation.
  std::size_t chase_hits = 0;
  {
    auto counting = ParseOrDie(kPaperProgram);
    ScopedFault armed("test/never-hit", Injected());
    auto chase = CChase(counting->source, counting->lifted,
                        &counting->universe, {});
    ASSERT_TRUE(chase.ok());
    ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
    chase_hits = FaultRegistry::HitCount(site);
  }
  FaultRegistry::DisarmAll();

  ScopedFault fault(site, Injected(), chase_hits);
  auto result = CertainAnswers(*lifted, program->source, program->lifted,
                               &program->universe);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->chase_kind, ChaseResultKind::kAborted);
  EXPECT_EQ(result->abort_dimension, ResourceDimension::kInjectedFault);
  EXPECT_EQ(result->abort_reason, Injected().ToString());
  EXPECT_TRUE(result->answers.empty());
  EXPECT_EQ(FaultRegistry::HitCount(site), chase_hits + 1);
}

INSTANTIATE_TEST_SUITE_P(Sites, CertainAnswersFaultTest,
                         ::testing::Values("naive-eval/normalize",
                                           "normalize/algorithm1"),
                         SiteTestName);

TEST_F(FaultInjectionTest, ParserSiteReturnsTheArmedStatus) {
  ScopedFault fault("parser/statement", Injected());
  auto parsed = ParseProgram(kPaperProgram);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Injected());
}

TEST_F(FaultInjectionTest, ParserSiteWithSkipCountFailsMidProgram) {
  // Skip the first three statements, then fail: proves the site is hit once
  // per statement and the skip machinery composes with a real engine.
  ScopedFault fault("parser/statement", Injected(), /*skip_count=*/3);
  auto parsed = ParseProgram(kPaperProgram);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Injected());
  EXPECT_GE(FaultRegistry::HitCount("parser/statement"), 4u);
}

// ---------------------------------------------------------------------------
// Infrastructure sites: pool dispatch drops and merge-seam kills
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, DispatchSiteDropsExactlyOneTaskInline) {
  ScopedFault fault("thread-pool/dispatch", Injected());
  std::vector<char> ran(8, 0);
  const bool all_ran =
      ParallelFor(1, ran.size(), [&](std::size_t i) { ran[i] = 1; });
  std::size_t executed = 0;
  for (const char r : ran) executed += static_cast<std::size_t>(r);
  // One task was "killed" between dequeue and execution; the rest ran, and
  // the caller is told.
  EXPECT_EQ(executed, ran.size() - 1);
  EXPECT_FALSE(all_ran);
  EXPECT_TRUE(ParallelFor(1, ran.size(), [](std::size_t) {}));
}

TEST_F(FaultInjectionTest, DispatchSiteDropsExactlyOneTaskPooled) {
  ScopedFault fault("thread-pool/dispatch", Injected());
  std::vector<std::atomic<char>> ran(16);
  for (auto& r : ran) r.store(0);
  const bool all_ran =
      ParallelFor(4, ran.size(), [&](std::size_t i) { ran[i].store(1); });
  std::size_t executed = 0;
  for (const auto& r : ran) executed += static_cast<std::size_t>(r.load());
  EXPECT_EQ(executed, ran.size() - 1);
  EXPECT_FALSE(all_ran);
  EXPECT_TRUE(ParallelFor(4, ran.size(), [](std::size_t) {}));
}

TEST_F(FaultInjectionTest, AbstractMergeSiteAbortsWithPieceSpan) {
  auto program = ParseOrDie(kPaperProgram);
  auto ia = AbstractInstance::FromConcrete(program->source);
  ASSERT_TRUE(ia.ok()) << ia.status();

  ScopedFault fault("abstract-chase/merge", Injected());
  auto outcome =
      AbstractChase(*ia, program->mapping, &program->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
  EXPECT_TRUE(outcome->failure_span.has_value());
}

TEST_F(FaultInjectionTest, RegisteredSiteListStaysReachable) {
  // Every site in kRegisteredFaultSites must still exist in the codebase;
  // the chaos harness (tests/chaos_resume_test.cc, CI chaos-resume) sweeps
  // this list. A site renamed without updating the registry would silently
  // drop out of the sweep — pin the count and spot-check membership.
  std::size_t n = 0;
  bool has_dispatch = false, has_merge = false, has_incremental = false;
  for (const std::string_view site : kRegisteredFaultSites) {
    ++n;
    if (site == "thread-pool/dispatch") has_dispatch = true;
    if (site == "abstract-chase/merge") has_merge = true;
    if (site == "normalize/incremental") has_incremental = true;
  }
  EXPECT_EQ(n, 13u);
  EXPECT_TRUE(has_dispatch);
  EXPECT_TRUE(has_merge);
  EXPECT_TRUE(has_incremental);
}

}  // namespace
}  // namespace tdx
