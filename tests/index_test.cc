#include "src/relational/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::Numbered;

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_ = *schema_.AddRelation("E", {"a", "b", "c"}, SchemaRole::kSource);
    instance_ = std::make_unique<Instance>(&schema_);
    for (int i = 0; i < 100; ++i) {
      instance_->Insert(e_, {u_.Constant(Numbered("x", i % 10)),
                             u_.Constant(Numbered("y", i % 5)),
                             u_.Constant(Numbered("z", i))});
    }
  }

  /// Verified candidates: probe, then filter by actual equality (the
  /// engine always re-verifies, so the index may over-approximate). An
  /// uncovered probe (scan fallback) counts over the whole relation, like
  /// the engine does.
  std::size_t VerifiedCount(IndexCache* cache,
                            const std::vector<std::uint32_t>& positions,
                            const std::vector<Value>& values) {
    const CandidateRange candidates = cache->Probe(e_, positions, values);
    const FactColumn facts = instance_->facts(e_);
    auto matches = [&](FactView f) {
      for (std::size_t i = 0; i < positions.size(); ++i) {
        if (f.arg(positions[i]) != values[i]) return false;
      }
      return true;
    };
    std::size_t count = 0;
    if (!candidates.covered) {
      for (const FactView f : facts) {
        if (matches(f)) ++count;
      }
      return count;
    }
    for (std::uint32_t idx : candidates) {
      if (matches(facts[idx])) ++count;
    }
    return count;
  }

  Universe u_;
  Schema schema_;
  RelationId e_ = 0;
  std::unique_ptr<Instance> instance_;
};

TEST_F(IndexTest, SingleColumnProbe) {
  IndexCache cache(instance_.get());
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("x3")}), 10u);
  EXPECT_EQ(VerifiedCount(&cache, {1}, {u_.Constant("y2")}), 20u);
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z42")}), 1u);
}

TEST_F(IndexTest, MultiColumnProbe) {
  IndexCache cache(instance_.get());
  // i % 10 == 3 and i % 5 == 3: i in {3, 13, 23, ...}: 10 facts.
  EXPECT_EQ(VerifiedCount(&cache, {0, 1},
                          {u_.Constant("x3"), u_.Constant("y3")}),
            10u);
  // i % 10 == 3 and i % 5 == 2: impossible (3 mod 5 != 2 for i=3 mod 10).
  EXPECT_EQ(VerifiedCount(&cache, {0, 1},
                          {u_.Constant("x3"), u_.Constant("y2")}),
            0u);
}

TEST_F(IndexTest, MissingKeyYieldsEmpty) {
  IndexCache cache(instance_.get());
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("nope")}), 0u);
}

TEST_F(IndexTest, DifferentMasksAreIndependent) {
  IndexCache cache(instance_.get());
  // Build three different per-mask indexes in one cache; results must not
  // interfere.
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("x1")}), 10u);
  EXPECT_EQ(VerifiedCount(&cache, {1}, {u_.Constant("y1")}), 20u);
  EXPECT_EQ(VerifiedCount(&cache, {0, 2},
                          {u_.Constant("x1"), u_.Constant("z1")}),
            1u);
  // Repeat the first probe: cached path.
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("x1")}), 10u);
}

TEST_F(IndexTest, CandidatesContainAllTrueMatches) {
  // Soundness of the approximation: every real match is among candidates,
  // and candidate runs are in ascending fact-position order (this is what
  // keeps chase enumeration order identical to a filtered scan).
  IndexCache cache(instance_.get());
  const std::vector<std::uint32_t> positions{1};
  const std::vector<Value> values{u_.Constant("y0")};
  const CandidateRange candidates = cache.Probe(e_, positions, values);
  ASSERT_TRUE(candidates.covered);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  std::size_t real = 0;
  const FactColumn facts = instance_->facts(e_);
  for (std::uint32_t i = 0; i < facts.size(); ++i) {
    if (facts[i].arg(1) == values[0]) {
      ++real;
      EXPECT_NE(std::find(candidates.begin(), candidates.end(), i),
                candidates.end());
    }
  }
  EXPECT_EQ(real, 20u);
}

TEST_F(IndexTest, AppendedFactsBecomeVisibleWithoutRebuild) {
  // Incremental maintenance: an index built before an append catches up on
  // the next probe instead of staying stale.
  IndexCache cache(instance_.get());
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("x3")}), 10u);
  instance_->Insert(e_, {u_.Constant("x3"), u_.Constant("y9"),
                         u_.Constant("z-new")});
  EXPECT_EQ(VerifiedCount(&cache, {0}, {u_.Constant("x3")}), 11u);
  // A mask first probed AFTER the append also sees the new fact.
  EXPECT_EQ(VerifiedCount(&cache, {1}, {u_.Constant("y9")}), 1u);
}

TEST_F(IndexTest, GenerationChangeInvalidatesIndexes) {
  // Erase bumps the instance generation; arena rows shifted down, so the
  // cache must rebuild rather than serve stale candidate positions.
  IndexCache cache(instance_.get());
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z99")}), 1u);
  const Fact victim = instance_->facts(e_)[0].ToFact();
  ASSERT_TRUE(instance_->Erase(victim));
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z99")}), 1u);
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z0")}), 0u);
}

TEST_F(IndexTest, RewriteFactsInvalidatesIndexes) {
  // In-place rewrites keep positions but change argument values; a probe
  // after the rewrite must see the new values, not the stale buckets.
  IndexCache cache(instance_.get());
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z7")}), 1u);
  // Rewrite fact 7's "z7" into "z-rewritten" via the egd merge primitive.
  std::unordered_map<Value, Value, ValueHash> subst;
  subst.emplace(u_.Constant("z7"), u_.Constant("z-rewritten"));
  const RewriteResult result =
      instance_->RewriteFacts({FactRef{e_, 7}}, subst);
  EXPECT_EQ(result.facts_rewritten, 1u);
  EXPECT_FALSE(result.compacted);
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z7")}), 0u);
  EXPECT_EQ(VerifiedCount(&cache, {2}, {u_.Constant("z-rewritten")}), 1u);
}

TEST_F(IndexTest, WideRelationFallsBackToScan) {
  // Positions at or beyond the 64-bit mask width cannot be indexed; Probe
  // must report the scan fallback instead of tripping UB in the shift.
  Schema schema;
  std::vector<std::string> cols;
  cols.reserve(70);
  for (int i = 0; i < 70; ++i) cols.push_back(Numbered("c", i));
  const RelationId wide =
      *schema.AddRelation("W", cols, SchemaRole::kSource);
  Instance inst(&schema);
  Universe u;
  std::vector<Value> args(70, u.Constant("pad"));
  args[69] = u.Constant("tail");
  inst.Insert(wide, args);
  IndexCache cache(&inst);
  EXPECT_FALSE(cache.Probe(wide, {69}, {u.Constant("tail")}).covered);
  // Probes under the width still index fine on the same relation.
  const CandidateRange under = cache.Probe(wide, {0}, {u.Constant("pad")});
  EXPECT_TRUE(under.covered);
  EXPECT_EQ(under.size(), 1u);
}

TEST_F(IndexTest, IntervalValuesAreIndexable) {
  Schema schema;
  const RelationId r =
      *schema.AddTemporalRelation("R+", {"a"}, SchemaRole::kSource);
  Instance inst(&schema);
  Universe u;
  for (TimePoint t = 0; t < 50; ++t) {
    inst.Insert(r, {u.Constant("v"), Value::OfInterval(Interval(t, t + 1))});
  }
  IndexCache cache(&inst);
  const CandidateRange hits =
      cache.Probe(r, {1}, {Value::OfInterval(Interval(7, 8))});
  ASSERT_TRUE(hits.covered);
  std::size_t verified = 0;
  for (std::uint32_t i : hits) {
    if (inst.facts(r)[i].interval() == Interval(7, 8)) ++verified;
  }
  EXPECT_EQ(verified, 1u);
}

}  // namespace
}  // namespace tdx
