// Fuzz-style property tests over RANDOM schemas and mappings (not just the
// employment shape): the paper's correctness statements must hold for any
// valid setting. Each seed yields a different schema, tgd/egd structure,
// and source instance.

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/analysis/analyzer.h"
#include "src/analysis/planner.h"
#include "src/core/align.h"
#include "src/core/cchase.h"
#include "src/core/naive_eval.h"
#include "src/core/normalize.h"
#include "src/core/solution_core.h"
#include "src/gen/workload.h"
#include "src/parser/printer.h"
#include "src/relational/universal.h"
#include "src/temporal/abstract_chase.h"
#include "src/temporal/snapshot.h"
#include "src/temporal/abstract_hom.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

class FuzzMappingSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::unique_ptr<Workload> MakeWorkload() const {
    RandomMappingConfig cfg;
    cfg.seed = GetParam();
    return MakeRandomMappingWorkload(cfg);
  }

  std::vector<TimePoint> ProbePoints(const ConcreteInstance& ic) const {
    std::vector<TimePoint> pts = ic.Endpoints();
    pts.push_back(ic.StabilizationPoint() + 2);
    pts.push_back(0);
    return pts;
  }
};

TEST_P(FuzzMappingSweep, GeneratedSettingIsWellFormed) {
  auto w = MakeWorkload();
  EXPECT_TRUE(ValidateMapping(w->mapping, w->schema).ok());
  EXPECT_TRUE(w->source.Validate().ok());
  EXPECT_TRUE(w->source.IsComplete());
  EXPECT_FALSE(w->mapping.st_tgds.empty());
}

TEST_P(FuzzMappingSweep, Corollary20OnRandomMappings) {
  auto w = MakeWorkload();
  auto report =
      VerifyCorollary20(w->source, w->mapping, w->lifted, &w->universe);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->outcome_agreed) << "seed=" << GetParam();
  EXPECT_TRUE(report->aligned()) << "seed=" << GetParam();
}

TEST_P(FuzzMappingSweep, NormalizationPropertiesOnRandomMappings) {
  auto w = MakeWorkload();
  const auto phis = w->lifted.TgdBodies();
  const ConcreteInstance normalized = Normalize(w->source, phis);
  EXPECT_TRUE(HasEmptyIntersectionProperty(normalized, phis));
  EXPECT_LE(normalized.size(), NaiveNormalize(w->source).size());
  for (TimePoint l : ProbePoints(w->source)) {
    auto before = SnapshotAt(w->source, l, &w->universe);
    auto after = SnapshotAt(normalized, l, &w->universe);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after) << "l=" << l;
  }
}

// The sort-and-sweep certificate never certifies an instance the hom
// sweep would cut, on the source, its normalized form and the c-chase
// solution, for every conjunction set the chase normalizes against.
TEST_P(FuzzMappingSweep, NormalizeCertificateIsSound) {
  auto w = MakeWorkload();
  const auto tgd_phis = w->lifted.TgdBodies();
  testing::CheckCertificate(w->source, tgd_phis, w->universe);
  testing::CheckCertificate(Normalize(w->source, tgd_phis), tgd_phis,
                            w->universe);
  auto concrete = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(concrete.ok()) << concrete.status();
  if (concrete->kind != ChaseResultKind::kSuccess) return;
  for (const auto& phis :
       {w->lifted.EgdBodies(), w->lifted.TargetTgdBodies()}) {
    testing::CheckCertificate(concrete->target, phis, w->universe);
  }
}

TEST_P(FuzzMappingSweep, CChaseResultIsValidAndUniversalPerSnapshot) {
  auto w = MakeWorkload();
  auto concrete = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(concrete.ok()) << concrete.status();
  if (concrete->kind == ChaseResultKind::kFailure) {
    GTEST_SKIP() << "no solution for seed " << GetParam();
  }
  EXPECT_TRUE(concrete->target.Validate().ok());

  auto jc_abs = AbstractInstance::FromConcrete(concrete->target);
  ASSERT_TRUE(jc_abs.ok());
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  for (TimePoint l : ProbePoints(w->source)) {
    auto ground = ChaseSnapshotAt(*ia, l, w->mapping, &w->universe);
    ASSERT_TRUE(ground.ok());
    ASSERT_EQ(ground->kind, ChaseResultKind::kSuccess);
    EXPECT_TRUE(AreHomomorphicallyEquivalent(ground->target,
                                             jc_abs->At(l, &w->universe)))
        << "seed=" << GetParam() << " l=" << l;
  }
}

TEST_P(FuzzMappingSweep, CoreStaysEquivalentOnRandomMappings) {
  auto w = MakeWorkload();
  auto concrete = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(concrete.ok());
  if (concrete->kind == ChaseResultKind::kFailure) {
    GTEST_SKIP() << "no solution for seed " << GetParam();
  }
  const ConcreteInstance core = ComputeConcreteCore(concrete->target);
  EXPECT_LE(core.size(), concrete->target.size());
  auto a = AbstractInstance::FromConcrete(core);
  auto b = AbstractInstance::FromConcrete(concrete->target);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AreAbstractEquivalent(*a, *b)) << "seed=" << GetParam();
}

TEST_P(FuzzMappingSweep, AnalyzerAcceptsGeneratedMappings) {
  // The static analyzer must never crash on a generated setting, and a
  // valid mapping must lint without error-severity findings and with a
  // termination guarantee (warnings/notes are fine: random settings do
  // produce dead relations and redundant dependencies).
  auto w = MakeWorkload();
  AnalysisInput input;
  input.schema = &w->schema;
  input.mapping = &w->mapping;
  input.source = &w->source;
  const AnalysisReport report = Analyze(input);
  EXPECT_EQ(report.CountOf(Severity::kError), 0u)
      << "seed=" << GetParam() << "\n"
      << RenderText(report, "fuzz");
  EXPECT_TRUE(report.certificate.guarantees_termination())
      << "seed=" << GetParam() << " certificate="
      << report.certificate.ToString();
}

TEST_P(FuzzMappingSweep, PlannerScheduleIsSoundOnRandomMappings) {
  // The planner must never crash on a generated mapping, its strata must
  // partition the rule set, and every justification edge must respect the
  // topological stratum order.
  auto w = MakeWorkload();
  const PlanDetails details = PlanChaseDetailed(w->mapping, w->schema);
  const ChaseSchedule& schedule = details.schedule;
  std::vector<std::size_t> seen(schedule.rules.size(), 0);
  for (const auto& stratum : schedule.strata) {
    for (std::size_t id : stratum) {
      ASSERT_LT(id, schedule.rules.size()) << "seed=" << GetParam();
      ++seen[id];
    }
  }
  for (std::size_t count : seen) EXPECT_EQ(count, 1u) << "seed=" << GetParam();
  for (const ScheduleEdge& edge : schedule.edges) {
    EXPECT_LE(schedule.rules[edge.from].stratum,
              schedule.rules[edge.to].stratum)
        << "seed=" << GetParam() << "\n"
        << schedule.ToText();
  }
  // Parallel groups hold live target tgds in declaration order.
  for (const auto& group : schedule.parallel_groups) {
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(group[k - 1], group[k]) << "seed=" << GetParam();
      }
      EXPECT_LT(group[k], w->mapping.target_tgds.size());
    }
  }
}

TEST_P(FuzzMappingSweep, ScheduledCChaseMatchesUnscheduled) {
  // The schedule only removes provably no-op work, and every engine option
  // is a parameter of one chase path: each reference arm must agree
  // bit-for-bit with the default engine (at 4 jobs) on outcome, target, and
  // chase statistics.
  struct Arm {
    const char* name;
    bool scheduled;
    bool semi_naive;
    bool incremental_normalize;
  };
  const Arm arms[] = {
      {"unscheduled", false, true, true},
      {"naive-rounds", true, false, true},
      {"full-normalize", true, true, false},
      {"all-off", false, false, false},
  };
  auto w_sched = MakeWorkload();
  CChaseOptions sched_options;
  sched_options.jobs = 4;
  auto sched = CChase(w_sched->source, w_sched->lifted, &w_sched->universe,
                      sched_options);
  ASSERT_TRUE(sched.ok()) << sched.status();
  for (const Arm& arm : arms) {
    auto w_flat = MakeWorkload();
    CChaseOptions flat_options;
    flat_options.scheduled = arm.scheduled;
    flat_options.semi_naive = arm.semi_naive;
    flat_options.incremental_normalize = arm.incremental_normalize;
    auto flat = CChase(w_flat->source, w_flat->lifted, &w_flat->universe,
                       flat_options);
    ASSERT_TRUE(flat.ok()) << flat.status();
    ASSERT_EQ(flat->kind, sched->kind)
        << "seed=" << GetParam() << " arm=" << arm.name;
    EXPECT_EQ(RenderConcreteInstance(flat->target, w_flat->universe),
              RenderConcreteInstance(sched->target, w_sched->universe))
        << "seed=" << GetParam() << " arm=" << arm.name;
    EXPECT_EQ(flat->stats.tgd_triggers, sched->stats.tgd_triggers)
        << arm.name;
    EXPECT_EQ(flat->stats.tgd_fires, sched->stats.tgd_fires) << arm.name;
    EXPECT_EQ(flat->stats.egd_steps, sched->stats.egd_steps) << arm.name;
    EXPECT_EQ(flat->stats.fresh_nulls, sched->stats.fresh_nulls) << arm.name;
    EXPECT_EQ(flat->stats.values_rewritten, sched->stats.values_rewritten)
        << arm.name;
  }
}

// Seeds swept: [1, TDX_FUZZ_SEEDS) from the environment, default 21. PR CI
// runs the default; the nightly fuzz job sets 201 for a 10x-deeper sweep.
std::uint64_t FuzzSeedEnd() {
  const char* env = std::getenv("TDX_FUZZ_SEEDS");
  if (env != nullptr) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && n > 1) return n;
  }
  return 21;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMappingSweep,
                         ::testing::Range<std::uint64_t>(1, FuzzSeedEnd()));

}  // namespace
}  // namespace tdx
