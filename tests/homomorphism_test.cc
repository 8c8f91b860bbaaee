#include "src/relational/homomorphism.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::Numbered;

class HomomorphismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto e = schema_.AddRelation("E", {"name", "company"}, SchemaRole::kSource);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    auto s = schema_.AddRelation("S", {"name", "salary"}, SchemaRole::kSource);
    ASSERT_TRUE(s.ok());
    s_ = *s;
    auto p = schema_.AddRelation("P", {"a", "b"}, SchemaRole::kSource);
    ASSERT_TRUE(p.ok());
    p_ = *p;
  }

  Atom MakeAtom(RelationId rel, std::vector<Term> terms) {
    Atom atom;
    atom.rel = rel;
    atom.terms = std::move(terms);
    return atom;
  }

  std::size_t CountHoms(const Conjunction& conj, const Instance& inst) {
    HomomorphismFinder finder(inst);
    std::size_t count = 0;
    finder.ForEach(conj, Binding(conj.num_vars),
                   [&](const Binding&, const AtomImage&) {
                     ++count;
                     return true;
                   });
    return count;
  }

  Universe u_;
  Schema schema_;
  RelationId e_ = 0, s_ = 0, p_ = 0;
};

TEST_F(HomomorphismTest, SingleAtomAllVariables) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  EXPECT_EQ(CountHoms(conj, inst), 2u);
}

TEST_F(HomomorphismTest, ConstantsFilter) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("Google")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.Constant("IBM"))})};
  conj.num_vars = 1;
  HomomorphismFinder finder(inst);
  auto found = finder.FindFirst(conj, Binding(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->Get(0), u_.Constant("Ada"));
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, JoinVariableSharedAcrossAtoms) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  inst.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  Conjunction conj;  // E(n, c) & S(n, s)
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
  conj.num_vars = 3;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, RepeatedVariableInOneAtom) {
  Instance inst(&schema_);
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("a")});
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("b")});
  Conjunction conj;  // P(x, x)
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(0)})};
  conj.num_vars = 1;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, TwoAtomsMayMapToTheSameFact) {
  Instance inst(&schema_);
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("b")});
  Conjunction conj;  // P(x, y) & P(z, w): unconstrained pair
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(p_, {Term::Var(2), Term::Var(3)})};
  conj.num_vars = 4;
  EXPECT_EQ(CountHoms(conj, inst), 1u);  // both atoms onto the single fact
}

TEST_F(HomomorphismTest, EmptyConjunctionHasOneTrivialHom) {
  Instance inst(&schema_);
  Conjunction conj;
  conj.num_vars = 0;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, NoMatchOnEmptyRelation) {
  Instance inst(&schema_);
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  HomomorphismFinder finder(inst);
  EXPECT_FALSE(finder.Exists(conj, Binding(2)));
}

TEST_F(HomomorphismTest, InitialBindingConstrains) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  Binding initial(2);
  initial.Bind(0, u_.Constant("Bob"));
  HomomorphismFinder finder(inst);
  std::size_t count = 0;
  finder.ForEach(conj, initial, [&](const Binding& b, const AtomImage&) {
    EXPECT_EQ(b.Get(0), u_.Constant("Bob"));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(HomomorphismTest, EarlyStopHaltsEnumeration) {
  Instance inst(&schema_);
  for (int i = 0; i < 10; ++i) {
    inst.Insert(e_, {u_.Constant(Numbered("p", i)), u_.Constant("c")});
  }
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  HomomorphismFinder finder(inst);
  std::size_t count = 0;
  const bool completed = finder.ForEach(conj, Binding(2),
                                        [&](const Binding&, const AtomImage&) {
                                          ++count;
                                          return count < 3;
                                        });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST_F(HomomorphismTest, ImageReportsMatchedFacts) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
  conj.num_vars = 3;
  HomomorphismFinder finder(inst);
  finder.ForEach(conj, Binding(3), [&](const Binding&, const AtomImage& img) {
    EXPECT_EQ(img.size(), 2u);
    EXPECT_EQ(img[0].relation(), e_);
    EXPECT_EQ(img[1].relation(), s_);
    return true;
  });
}

TEST_F(HomomorphismTest, IntervalValuesMatchAsConstants) {
  auto ep = schema_.AddTemporalRelation("E+", {"name", "company"},
                                        SchemaRole::kSource);
  ASSERT_TRUE(ep.ok());
  Instance inst(&schema_);
  inst.Insert(*ep, {u_.Constant("Ada"), u_.Constant("IBM"),
                    Value::OfInterval(Interval(1, 5))});
  inst.Insert(*ep, {u_.Constant("Ada"), u_.Constant("IBM"),
                    Value::OfInterval(Interval(5, 9))});
  Conjunction conj;  // E+(n, c, t) with t a variable
  conj.atoms = {MakeAtom(*ep, {Term::Var(0), Term::Var(1), Term::Var(2)})};
  conj.num_vars = 3;
  std::set<TimePoint> starts;
  HomomorphismFinder finder(inst);
  finder.ForEach(conj, Binding(3), [&](const Binding& b, const AtomImage&) {
    EXPECT_TRUE(b.Get(2).is_interval());
    starts.insert(b.Get(2).interval().start());
    return true;
  });
  EXPECT_EQ(starts, (std::set<TimePoint>{1, 5}));
}

TEST_F(HomomorphismTest, NullsMatchByIdentity) {
  Instance inst(&schema_);
  const Value n = u_.FreshNull();
  inst.Insert(e_, {u_.Constant("Ada"), n});
  Conjunction conj;  // E(x, <the null>)
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(n)})};
  conj.num_vars = 1;
  HomomorphismFinder finder(inst);
  EXPECT_TRUE(finder.Exists(conj, Binding(1)));
  Conjunction other;
  other.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.FreshNull())})};
  other.num_vars = 1;
  EXPECT_FALSE(finder.Exists(other, Binding(1)));
}

TEST_F(HomomorphismTest, LargeInstanceJoinCount) {
  Instance inst(&schema_);
  for (int i = 0; i < 1000; ++i) {
    inst.Insert(e_, {u_.Constant(Numbered("p", i)),
                     u_.Constant(Numbered("c", i % 7))});
    inst.Insert(s_, {u_.Constant(Numbered("p", i)),
                     u_.Constant(Numbered("s", i % 11))});
  }
  // E(n, "c3") & S(n, s): people whose company is c3; i % 7 == 3 happens
  // 143 times for i in [0, 1000).
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.Constant("c3"))}),
                MakeAtom(s_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  EXPECT_EQ(CountHoms(conj, inst), 143u);
}

TEST_F(HomomorphismTest, CrossProductEnumeratesAllPairs) {
  Instance inst(&schema_);
  for (int i = 0; i < 5; ++i) {
    inst.Insert(p_, {u_.Constant(Numbered("x", i)), u_.Constant("y")});
  }
  Conjunction conj;  // P(a, b) & P(c, d): 25 pairs
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(p_, {Term::Var(2), Term::Var(3)})};
  conj.num_vars = 4;
  EXPECT_EQ(CountHoms(conj, inst), 25u);
}

}  // namespace
}  // namespace tdx
