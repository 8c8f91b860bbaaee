#include "src/core/solution_core.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/core/cchase.h"
#include "src/relational/universal.h"
#include "src/temporal/abstract_hom.h"
#include "tests/test_util.h"

#ifndef TDX_REPO_DIR
#define TDX_REPO_DIR "."
#endif

namespace tdx {
namespace {

using ::tdx::testing::ParseOrDie;

class SolutionCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    emp_ = *schema_.AddRelation("Emp", {"name", "company", "salary"},
                                SchemaRole::kTarget);
  }

  Universe u_;
  Schema schema_;
  RelationId emp_ = 0;
};

TEST_F(SolutionCoreTest, NullFreeInstanceIsItsOwnCore) {
  Instance j(&schema_);
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  const Instance core = ComputeCore(j);
  EXPECT_EQ(core, j);
  EXPECT_TRUE(IsCore(j));
}

TEST_F(SolutionCoreTest, RedundantNullFactFoldsAway) {
  // Emp(Ada, IBM, N) is subsumed by Emp(Ada, IBM, 18k).
  Instance j(&schema_);
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.FreshNull()});
  CoreStats stats;
  const Instance core = ComputeCore(j, &stats);
  EXPECT_EQ(core.size(), 1u);
  EXPECT_TRUE(core.Contains(Fact(
      emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")})));
  EXPECT_EQ(stats.facts_removed, 1u);
  EXPECT_FALSE(IsCore(j));
  EXPECT_TRUE(IsCore(core));
}

TEST_F(SolutionCoreTest, NonRedundantNullSurvives) {
  Instance j(&schema_);
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  j.Insert(emp_, {u_.Constant("Bob"), u_.Constant("IBM"), u_.FreshNull()});
  const Instance core = ComputeCore(j);
  EXPECT_EQ(core.size(), 2u);
}

TEST_F(SolutionCoreTest, ChainOfRedundantNullsFullyCollapses) {
  // Several null variants of the same complete fact all fold away.
  Instance j(&schema_);
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  for (int i = 0; i < 4; ++i) {
    j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.FreshNull()});
  }
  const Instance core = ComputeCore(j);
  EXPECT_EQ(core.size(), 1u);
}

TEST_F(SolutionCoreTest, CoreIsHomEquivalentToInput) {
  Instance j(&schema_);
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  j.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.FreshNull()});
  j.Insert(emp_, {u_.Constant("Bob"), u_.Constant("IBM"), u_.FreshNull()});
  const Instance core = ComputeCore(j);
  EXPECT_TRUE(AreHomomorphicallyEquivalent(core, j));
}

TEST_F(SolutionCoreTest, LinkedNullsFoldTogetherOrNotAtAll) {
  // P(a, N) & P(N, a): N is "linked" — folding requires mapping both facts
  // consistently. With the constant pair present, both fold.
  Schema schema;
  const RelationId p = *schema.AddRelation("P", {"x", "y"},
                                           SchemaRole::kTarget);
  Universe u;
  Instance j(&schema);
  const Value n = u.FreshNull();
  j.Insert(p, {u.Constant("a"), n});
  j.Insert(p, {n, u.Constant("a")});
  j.Insert(p, {u.Constant("a"), u.Constant("b")});
  j.Insert(p, {u.Constant("b"), u.Constant("a")});
  const Instance core = ComputeCore(j);
  EXPECT_EQ(core.size(), 2u);

  // Without a consistent constant image, the null facts survive.
  Instance j2(&schema);
  const Value m = u.FreshNull();
  j2.Insert(p, {u.Constant("a"), m});
  j2.Insert(p, {m, u.Constant("a")});
  j2.Insert(p, {u.Constant("a"), u.Constant("b")});
  j2.Insert(p, {u.Constant("c"), u.Constant("a")});
  const Instance core2 = ComputeCore(j2);
  EXPECT_EQ(core2.size(), 4u);
}

TEST_F(SolutionCoreTest, PaperChaseResultIsAlreadyACore) {
  // In the Figure 9 result, each annotated null is the only witness of its
  // time slice, so nothing folds.
  auto program = ParseOrDie(testing::kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  CoreStats stats;
  const ConcreteInstance core = ComputeConcreteCore(chase->target, &stats);
  EXPECT_EQ(core.size(), chase->target.size());
  EXPECT_EQ(stats.facts_removed, 0u);
}

TEST_F(SolutionCoreTest, MedicalChaseResultIsAlreadyACore) {
  // examples/programs/medical.tdx: the full a2 fires before the existential
  // a1, so a1 mints a null only where no diagnosis is on record, and each
  // null row is the only witness of its slice.
  std::ifstream in(std::string(TDX_REPO_DIR) +
                   "/examples/programs/medical.tdx");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  auto program = ParseOrDie(text.str());
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(chase->target.size(), 5u);
  CoreStats stats;
  const ConcreteInstance core = ComputeConcreteCore(chase->target, &stats);
  EXPECT_EQ(core.size(), 5u);
  EXPECT_EQ(stats.facts_removed, 0u);
}

TEST_F(SolutionCoreTest, ConcreteCoreFoldsOnlyWithinSameInterval) {
  auto program = ParseOrDie(R"(
    source A(x);
    target T(x, y);
    tgd A(x) -> T(x, x);
  )");
  Universe& u = program->universe;
  const RelationId t_plus = *program->schema.Find("T+");
  ConcreteInstance jc(&program->schema);
  // Redundant null row at [0, 5) folds into the constant row at [0, 5);
  // the equal row at [5, 9) must NOT absorb it (different interval).
  const Value n1 = u.FreshAnnotatedNull(Interval(0, 5));
  ASSERT_TRUE(jc.Add(t_plus, {u.Constant("a"), n1}, Interval(0, 5)).ok());
  ASSERT_TRUE(jc.Add(t_plus, {u.Constant("a"), u.Constant("b")},
                     Interval(0, 5))
                  .ok());
  const Value n2 = u.FreshAnnotatedNull(Interval(5, 9));
  ASSERT_TRUE(jc.Add(t_plus, {u.Constant("a"), n2}, Interval(5, 9)).ok());

  CoreStats stats;
  const ConcreteInstance core = ComputeConcreteCore(jc, &stats);
  EXPECT_EQ(core.size(), 2u);
  EXPECT_EQ(stats.facts_removed, 1u);
  EXPECT_TRUE(core.Validate().ok());

  // Semantics preserved: [[core]] ~ [[jc]].
  auto a = AbstractInstance::FromConcrete(core);
  auto b = AbstractInstance::FromConcrete(jc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AreAbstractEquivalent(*a, *b));
}

TEST_F(SolutionCoreTest, EmptyInstanceIsACore) {
  Instance empty(&schema_);
  EXPECT_TRUE(IsCore(empty));
  EXPECT_TRUE(ComputeCore(empty).empty());
}

}  // namespace
}  // namespace tdx
