// The sort-and-sweep certificate of normalize.h: it may decline a
// normalized instance but must never certify one that is not (checked
// against the hom sweep on the paper's fixtures and on hand-made edge
// cases), and a certified pass must keep the guard contract of the identity
// pass it replaces.

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/core/normalize_detail.h"
#include "src/core/normalize_incremental.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using normalize_detail::CertifyNormalized;
using testing::CheckCertificate;

std::uint64_t CounterValue(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  const obs::MetricValue* v = snap.Find(name);
  return v != nullptr ? v->value : 0;
}

/// R(x, t_1) & ... over `rels`, every atom sharing the data variable x.
Conjunction SharedVarConjunction(const std::vector<RelationId>& rels) {
  Conjunction phi;
  for (const RelationId rel : rels) {
    Atom atom;
    atom.rel = rel;
    atom.terms = {Term::Var(0), Term::Var(1)};
    phi.atoms.push_back(atom);
  }
  phi.num_vars = 2;
  return phi;
}

// Figure 5: the source is not normalized w.r.t. the tgd bodies; Algorithm
// 1's output is, and the certificate proves it. The c-chase solution is
// certified for the egd body and the query.
TEST(NormalizeCertificateTest, PaperFigure5) {
  auto program = testing::ParseOrDie(testing::kPaperProgram);
  const Universe& u = program->universe;
  const auto phis = program->lifted.TgdBodies();
  EXPECT_FALSE(CheckCertificate(program->source, phis, u));
  EXPECT_TRUE(CheckCertificate(Normalize(program->source, phis), phis, u));

  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  EXPECT_TRUE(
      CheckCertificate(chase->target, program->lifted.EgdBodies(), u));
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());
  EXPECT_TRUE(
      CheckCertificate(chase->target, {lifted->disjuncts[0].body}, u));
}

// Example 14 / Figure 8: two conjunctions whose groups merge through a
// shared fact.
TEST(NormalizeCertificateTest, PaperFigure8) {
  auto program = testing::ParseOrDie(R"(
    source R(a);
    source P(a);
    source Sx(a);
    target Dummy(a);
    tgd t1: R(x) & P(y) -> Dummy(x);
    tgd t2: P(x) & Sx(y) -> Dummy(x);
    fact R("a")  @ [5, 11);
    fact P("a")  @ [8, 15);
    fact Sx("a") @ [7, 10);
    fact P("b")  @ [20, 25);
    fact Sx("b") @ [18, inf);
  )");
  const Universe& u = program->universe;
  const auto phis = program->lifted.TgdBodies();
  EXPECT_FALSE(CheckCertificate(program->source, phis, u));
  EXPECT_TRUE(CheckCertificate(Normalize(program->source, phis), phis, u));
}

// Theorem 13's worst case: every pair of facts overlaps, so the source is
// declined; the n^2 fragments of the output are pairwise equal or
// disjoint.
TEST(NormalizeCertificateTest, WorstCaseWorkload) {
  for (const std::size_t n : {4u, 8u, 16u}) {
    auto w = MakeWorstCaseNormalizationWorkload(n);
    const auto phis = w->lifted.TgdBodies();
    EXPECT_FALSE(CheckCertificate(w->source, phis, w->universe)) << n;
    EXPECT_TRUE(
        CheckCertificate(Normalize(w->source, phis), phis, w->universe))
        << n;
  }
}

class NormalizeCertificateEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *schema_.AddRelationPair("R", {"a"}, SchemaRole::kSource);
    p_ = *schema_.AddRelationPair("P", {"a"}, SchemaRole::kSource);
    s_ = *schema_.AddRelationPair("S", {"a"}, SchemaRole::kSource);
    ic_.emplace(&schema_);
  }
  void Add(RelationId rel, const char* name, const Interval& iv) {
    ASSERT_TRUE(ic_->Add(rel, {u_.Constant(name)}, iv).ok());
  }

  Universe u_;
  Schema schema_;
  RelationId r_ = 0;
  RelationId p_ = 0;
  RelationId s_ = 0;
  std::optional<ConcreteInstance> ic_;
};

// Each pair of the three facts of the one hom of R(x) & P(x) & S(x)
// overlaps, R's and S's do not: the intersection is empty, so the instance
// is normalized (condition 1 of Def. 10). The pairwise certificate cannot
// see that and must decline; the pass then returns the input.
TEST_F(NormalizeCertificateEdgeTest, ThreeAtomsWithEmptyTotalIntersection) {
  Add(r_, "a", Interval(0, 2));
  Add(p_, "a", Interval(1, 3));
  Add(s_, "a", Interval(2, 4));
  const std::vector<Conjunction> phis = {SharedVarConjunction({r_, p_, s_})};
  EXPECT_TRUE(HasEmptyIntersectionProperty(*ic_, phis));
  EXPECT_FALSE(CheckCertificate(*ic_, phis, u_));
  EXPECT_EQ(Normalize(*ic_, phis).facts().ToString(u_),
            ic_->facts().ToString(u_));
}

// Overlapping facts are harmless when no hom puts them together: with
// different join values, or as candidates of the same atom only.
TEST_F(NormalizeCertificateEdgeTest, OverlapsOutsideAnyHomAreCertified) {
  Add(r_, "a", Interval(0, 5));
  Add(r_, "a", Interval(3, 8));
  Add(p_, "b", Interval(2, 6));
  Add(p_, "a", Interval(10, 12));
  const std::vector<Conjunction> phis = {SharedVarConjunction({r_, p_})};
  EXPECT_TRUE(CheckCertificate(*ic_, phis, u_));
}

// Equal intervals pass, an overlapping unequal pair on the join value does
// not, whether it differs in its start or only in its end.
TEST_F(NormalizeCertificateEdgeTest, UnequalOverlapOnTheJoinValueDeclines) {
  Add(r_, "a", Interval(0, 5));
  Add(p_, "a", Interval(0, 5));
  const std::vector<Conjunction> phis = {SharedVarConjunction({r_, p_})};
  EXPECT_TRUE(CheckCertificate(*ic_, phis, u_));
  Add(p_, "a", Interval::FromStart(0));
  EXPECT_FALSE(CheckCertificate(*ic_, phis, u_));

  ic_.emplace(&schema_);
  Add(r_, "a", Interval(0, 5));
  Add(p_, "a", Interval(4, 9));
  EXPECT_FALSE(CheckCertificate(*ic_, phis, u_));
}

// A self-join R(x) & R(x) pairs every two facts of R with one join value.
TEST_F(NormalizeCertificateEdgeTest, SelfJoin) {
  Add(r_, "a", Interval(0, 5));
  Add(r_, "b", Interval(3, 8));
  Add(r_, "a", Interval(5, 9));
  const std::vector<Conjunction> phis = {SharedVarConjunction({r_, r_})};
  EXPECT_TRUE(CheckCertificate(*ic_, phis, u_));
  Add(r_, "a", Interval(4, 6));
  EXPECT_FALSE(CheckCertificate(*ic_, phis, u_));
}

// ---------------------------------------------------------------------------
// A certified pass keeps the identity pass's stats and guard contract.
// ---------------------------------------------------------------------------

class CertifiedPassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = MakeWorstCaseNormalizationWorkload(8);
    phis_ = w_->lifted.TgdBodies();
    normalized_.emplace(Normalize(w_->source, phis_));
    ASSERT_TRUE(CertifyNormalized(*normalized_, phis_));
  }

  std::unique_ptr<Workload> w_;
  std::vector<Conjunction> phis_;
  std::optional<ConcreteInstance> normalized_;
};

TEST_F(CertifiedPassTest, CountsNoHomsAndCopiesNothing) {
  const std::uint64_t before = CounterValue("normalize.certified_passes");
  NormalizeStats stats;
  stats.homomorphisms = 99;
  EXPECT_FALSE(NormalizeIfNeeded(*normalized_, phis_, &stats).has_value());
  EXPECT_EQ(CounterValue("normalize.certified_passes"), before + 1);
  EXPECT_EQ(stats.input_facts, normalized_->size());
  EXPECT_EQ(stats.output_facts, normalized_->size());
  EXPECT_EQ(stats.homomorphisms, 0u);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_FALSE(stats.partial);
}

TEST_F(CertifiedPassTest, FragmentBudgetTripsAtTheUncutPassCount) {
  // The reference is the hom-sweep pass over the same instance, which
  // finds nothing to cut and charges one fragment per fact.
  const std::size_t n = normalized_->size();
  for (const std::size_t limit : {n - 1, n}) {
    ChaseLimits limits;
    limits.max_normalize_fragments = limit;
    ResourceGuard certified_guard(limits);
    NormalizeStats stats;
    EXPECT_FALSE(NormalizeIfNeeded(*normalized_, phis_, &stats,
                                   &certified_guard)
                     .has_value());

    ConcreteInstance uncut = *normalized_;
    NormalizeState state;
    ResourceGuard uncut_guard(limits);
    NormalizeStats uncut_stats;
    state.Normalize(&uncut, phis_, &uncut_stats, &uncut_guard);

    EXPECT_EQ(certified_guard.tripped(), limit < n) << "limit " << limit;
    EXPECT_EQ(uncut_guard.tripped(), limit < n) << "limit " << limit;
    EXPECT_EQ(stats.partial, uncut_stats.partial);
    EXPECT_EQ(certified_guard.Consumed().fragments,
              uncut_guard.Consumed().fragments);
  }
}

TEST_F(CertifiedPassTest, PollsTheDeadline) {
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  NormalizeStats stats;
  (void)NormalizeIfNeeded(*normalized_, phis_, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kWallClock);
  EXPECT_TRUE(stats.partial);
}

TEST_F(CertifiedPassTest, ResetsTheFragmentCount) {
  ChaseLimits limits;
  limits.max_normalize_fragments = normalized_->size();
  ResourceGuard guard(limits);
  // Two passes of n fragments each fit a per-pass budget of n.
  for (int pass = 0; pass < 2; ++pass) {
    (void)NormalizeIfNeeded(*normalized_, phis_, nullptr, &guard);
    EXPECT_FALSE(guard.tripped()) << "pass " << pass;
  }
}

}  // namespace
}  // namespace tdx
