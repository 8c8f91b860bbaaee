// Parallel execution must be a pure scheduling choice: for any jobs value
// the batched per-point certain answers equal the one-point entry, and the
// c-chase's parallel trigger collection yields the exact same target and
// stats. A task the pool drops must abort, never lose its work silently.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/cchase.h"
#include "src/core/certain.h"
#include "src/gen/workload.h"
#include "src/parser/printer.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

std::vector<TimePoint> ProbePoints(const ConcreteInstance& ic) {
  std::vector<TimePoint> pts = ic.Endpoints();
  pts.push_back(ic.StabilizationPoint() + 2);
  pts.push_back(0);
  return pts;
}

class ParallelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSweep, CertainAnswersAtManyMatchesPerPoint) {
  RandomMappingConfig cfg;
  cfg.seed = GetParam();
  auto w = MakeRandomMappingWorkload(cfg);
  // A query with answers: reuse a target relation's identity projection via
  // the employment workload instead — random mappings carry no queries, so
  // probe with the identity UCQ over the first target relation.
  UnionQuery query;
  ConjunctiveQuery cq;
  std::optional<RelationId> target_rel;
  for (RelationId r = 0; r < w->schema.relation_count(); ++r) {
    if (w->schema.relation(r).role == SchemaRole::kTarget) {
      target_rel = r;
      break;
    }
  }
  ASSERT_TRUE(target_rel.has_value());
  const std::size_t arity = w->schema.relation(*target_rel).arity();
  Atom atom{*target_rel, {}};
  for (std::size_t i = 0; i < arity; ++i) {
    atom.terms.push_back(Term::Var(static_cast<VarId>(i)));
    cq.head.push_back(static_cast<VarId>(i));
  }
  cq.body.atoms.push_back(atom);
  cq.body.num_vars = arity;
  query.disjuncts.push_back(cq);

  const std::vector<TimePoint> points = ProbePoints(w->source);
  auto batched = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                      &w->universe, 4);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto single = CertainAnswersAt(query, w->source, w->mapping, points[i],
                                   &w->universe);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[i].chase_kind, single->chase_kind)
        << "l=" << points[i];
    EXPECT_EQ((*batched)[i].answers, single->answers) << "l=" << points[i];
  }
}

TEST_P(ParallelSweep, ScheduledTriggerCollectionIsJobsInvariant) {
  // The chase planner's parallel groups collect triggers concurrently but
  // fire sequentially in declaration order, so any jobs count must yield
  // the EXACT same target (same null ids) and the exact same statistics.
  // This test runs under TSan in CI.
  RandomMappingConfig cfg;
  cfg.seed = GetParam();
  auto w1 = MakeRandomMappingWorkload(cfg);
  auto w8 = MakeRandomMappingWorkload(cfg);
  CChaseOptions one, eight;
  one.jobs = 1;
  eight.jobs = 8;
  auto a = CChase(w1->source, w1->lifted, &w1->universe, one);
  auto b = CChase(w8->source, w8->lifted, &w8->universe, eight);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->kind, b->kind) << "seed=" << GetParam();
  EXPECT_EQ(RenderConcreteInstance(a->target, w1->universe),
            RenderConcreteInstance(b->target, w8->universe))
      << "seed=" << GetParam();
  EXPECT_EQ(a->stats.tgd_triggers, b->stats.tgd_triggers);
  EXPECT_EQ(a->stats.tgd_fires, b->stats.tgd_fires);
  EXPECT_EQ(a->stats.egd_steps, b->stats.egd_steps);
  EXPECT_EQ(a->stats.fresh_nulls, b->stats.fresh_nulls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// A pool task dropped by the thread-pool/dispatch site must surface as an
// aborted point, never as an empty answer set read from an unfilled slot.
// The other point still gets its real answers (at 2014 the certain answer
// is (Ada, 18k)). Runs inline (jobs = 1) and pooled (jobs = 2; which point
// is dropped then depends on scheduling, but exactly one is).
TEST(ParallelFaultTest, DroppedCertainAnswersSlotReportsAborted) {
  for (const unsigned jobs : {1u, 2u}) {
    auto program = testing::ParseOrDie(testing::kPaperProgram);
    auto query = program->FindQuery("salaries");
    ASSERT_TRUE(query.ok()) << query.status();
    const std::vector<TimePoint> points = {2014, 2016};
    Result<std::vector<CertainAnswersResult>> batched =
        Status::Internal("not run");
    {
      ScopedFault fault("thread-pool/dispatch",
                        Status::Internal("injected fault"));
      batched = CertainAnswersAtMany(**query, program->source,
                                     program->mapping, points,
                                     &program->universe, jobs);
    }
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_EQ(batched->size(), points.size());
    std::size_t aborted = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CertainAnswersResult& got = (*batched)[i];
      if (got.chase_kind == ChaseResultKind::kAborted) {
        ++aborted;
        EXPECT_TRUE(got.answers.empty());
        continue;
      }
      auto single = CertainAnswersAt(**query, program->source,
                                     program->mapping, points[i],
                                     &program->universe);
      ASSERT_TRUE(single.ok()) << single.status();
      EXPECT_EQ(got.chase_kind, single->chase_kind) << "l=" << points[i];
      EXPECT_EQ(got.answers, single->answers) << "l=" << points[i];
      EXPECT_FALSE(got.answers.empty()) << "l=" << points[i];
    }
    EXPECT_EQ(aborted, 1u) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace tdx
