// Incremental normalization (core/normalize_incremental.h): a persistent
// NormalizeState must produce bit-identical output to a fresh full
// Normalize after any sequence of appends and position-stable egd rewrites;
// it must invalidate on every other generation bump; a pass that cuts no
// fact must leave the instance (and its generation) alone; its watermark
// must survive a checkpoint export/restore round trip; and the c-chase must
// produce the same solution with the incremental path on and off, on every
// workload family including randomized mappings and a kill-and-recover
// sweep.

#include "src/core/normalize_incremental.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/planner.h"
#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"
#include "src/parser/printer.h"
#include "src/relational/chase.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

std::string Render(const ConcreteInstance& instance, const Universe& u) {
  return instance.facts().ToString(u);
}

/// Process-wide value of a registry counter (0 when never touched).
std::uint64_t CounterValue(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  const obs::MetricValue* v = snap.Find(name);
  return v != nullptr ? v->value : 0;
}

// Drives two identical worst-case settings in lockstep: `inc` through one
// persistent NormalizeState, `full` through fresh full passes. The
// workload's lhs R(x) & R(y) pairs every two facts, so appends keep
// enlarging one nested component — the hardest shape for the delta sweep.
class NormalizeStateTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSeedFacts = 8;

  void SetUp() override {
    inc_w_ = MakeWorstCaseNormalizationWorkload(kSeedFacts);
    full_w_ = MakeWorstCaseNormalizationWorkload(kSeedFacts);
    r_plus_ = *inc_w_->schema.Find("R+");
    phis_inc_ = inc_w_->lifted.TgdBodies();
    phis_full_ = full_w_->lifted.TgdBodies();
  }

  void AddBoth(const std::string& name, const Interval& iv) {
    ASSERT_TRUE(inc_w_->source
                    .Add(r_plus_, {inc_w_->universe.Constant(name)}, iv)
                    .ok());
    ASSERT_TRUE(full_w_->source
                    .Add(r_plus_, {full_w_->universe.Constant(name)}, iv)
                    .ok());
  }

  void FullRound(NormalizeStats* stats = nullptr) {
    full_w_->source = Normalize(full_w_->source, phis_full_, stats);
  }

  std::unique_ptr<Workload> inc_w_;
  std::unique_ptr<Workload> full_w_;
  RelationId r_plus_ = 0;
  std::vector<Conjunction> phis_inc_;
  std::vector<Conjunction> phis_full_;
};

TEST_F(NormalizeStateTest, FirstPassMatchesFullNormalize) {
  NormalizeState state;
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
  // The first pass has no watermark: everything is delta.
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
  EXPECT_TRUE(state.MatchesWatermark(inc_w_->source));
}

TEST_F(NormalizeStateTest, AppendsTakeIncrementalPathBitIdentically) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  // Three rounds of appends: one fact overlapping the nested component, one
  // pass-through fact far away, one bridging the two regions.
  const std::vector<std::pair<std::string, Interval>> rounds[] = {
      {{"x0", Interval(3, 2 * kSeedFacts + 1)}},
      {{"x1", Interval(100, 105)}},
      {{"x2", Interval(2 * kSeedFacts - 1, 101)}, {"x3", Interval(1, 2)}},
  };
  for (const auto& round : rounds) {
    for (const auto& [name, iv] : round) AddBoth(name, iv);
    ASSERT_TRUE(state.MatchesWatermark(inc_w_->source));
    NormalizeStats stats;
    state.Normalize(&inc_w_->source, phis_inc_, &stats);
    EXPECT_EQ(stats.delta_facts, round.size());
    EXPECT_LT(stats.delta_facts, stats.input_facts);
    FullRound();
    EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
              Render(full_w_->source, full_w_->universe));
  }
}

TEST_F(NormalizeStateTest, ZeroDeltaPassIsANoOp) {
  NormalizeState state;
  NormalizeStats first;
  state.Normalize(&inc_w_->source, phis_inc_, &first);
  const std::string before = Render(inc_w_->source, inc_w_->universe);

  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe), before);
  EXPECT_EQ(stats.delta_facts, 0u);
  EXPECT_EQ(stats.homomorphisms, 0u);
  EXPECT_EQ(stats.dirty_components, 0u);
  EXPECT_EQ(stats.reused_components, first.groups);
  EXPECT_TRUE(state.MatchesWatermark(inc_w_->source));
}

TEST_F(NormalizeStateTest, GenerationBumpForcesFullPass) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  // Move-assigning the fact store bumps the generation without changing
  // content — the documented invalidation trigger (egd rewrites, erases,
  // and assignments all route through it).
  Instance shuffled = inc_w_->source.facts();
  inc_w_->source.mutable_facts() = std::move(shuffled);
  Instance shuffled_full = full_w_->source.facts();
  full_w_->source.mutable_facts() = std::move(shuffled_full);
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));

  AddBoth("y0", Interval(2, 2 * kSeedFacts));
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, InvalidateDropsTheWatermark) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  ASSERT_TRUE(state.MatchesWatermark(inc_w_->source));
  state.Invalidate();
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));
  EXPECT_FALSE(state.Export(&inc_w_->source.facts()).has_value());
}

TEST_F(NormalizeStateTest, ExportRestoreRoundTrip) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  const auto wm = state.Export(&inc_w_->source.facts());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->labels.size(),
            static_cast<std::size_t>(inc_w_->source.size()));

  // A fresh state restored from the exported watermark must continue
  // incrementally, exactly like the original.
  NormalizeState restored;
  ASSERT_TRUE(restored.Restore(*wm, inc_w_->source).ok());
  EXPECT_TRUE(restored.MatchesWatermark(inc_w_->source));

  AddBoth("r0", Interval(4, 2 * kSeedFacts + 2));
  NormalizeStats stats;
  restored.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(stats.delta_facts, 1u);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, ExportAfterGenerationBumpIsEmpty) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  Instance shuffled = inc_w_->source.facts();
  inc_w_->source.mutable_facts() = std::move(shuffled);
  EXPECT_FALSE(state.Export(&inc_w_->source.facts()).has_value());
}

TEST_F(NormalizeStateTest, RestoreRejectsTornWatermarks) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  const auto wm = state.Export(&inc_w_->source.facts());
  ASSERT_TRUE(wm.has_value());

  NormalizeState fresh;
  NormalizeState::Watermark torn = *wm;
  torn.labels.pop_back();  // labels no longer parallel to marks
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());

  torn = *wm;
  for (auto& mark : torn.marks) mark += 1000;  // marks beyond column sizes
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());

  torn = *wm;
  if (!torn.labels.empty()) torn.labels[0] = torn.num_components + 7;
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());
}

TEST_F(NormalizeStateTest, FaultSiteTripsTheGuardAndInvalidates) {
  NormalizeState state;
  ResourceGuard guard;
  state.Normalize(&inc_w_->source, phis_inc_, nullptr, &guard);
  ASSERT_FALSE(guard.tripped());

  AddBoth("f0", Interval(3, 2 * kSeedFacts));
  ScopedFault fault("normalize/incremental", Status::Internal("injected"));
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
  EXPECT_TRUE(stats.partial);
  // Per the guard contract the state self-invalidates; the next governed
  // pass (fresh guard) is full and repairs the instance.
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));
  ResourceGuard retry;
  state.Normalize(&inc_w_->source, phis_inc_, &stats, &retry);
  ASSERT_FALSE(retry.tripped());
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, UncutPassInstallsNothing) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  // A fact far from every other one pairs only with itself: it is grouped,
  // but no cut falls strictly inside its interval, so the output is the
  // input.
  AddBoth("far", Interval(100, 105));
  const std::uint64_t generation = inc_w_->source.facts().generation();
  const std::uint64_t identity_before =
      CounterValue("normalize.incremental.identity_passes");
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(stats.delta_facts, 1u);
  EXPECT_EQ(stats.output_facts, stats.input_facts);
  EXPECT_EQ(inc_w_->source.facts().generation(), generation);
  EXPECT_EQ(CounterValue("normalize.incremental.identity_passes"),
            identity_before + 1);
  EXPECT_TRUE(state.MatchesWatermark(inc_w_->source));
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, FragmentBudgetTripsAtTheSameCountUncut) {
  // The rebuild pass over the raw source and the uncut pass over its
  // normalized form emit the same n facts, so both are charged n fragments
  // and a budget of n - 1 trips either way.
  const ConcreteInstance raw = inc_w_->source;
  const ConcreteInstance normalized = Normalize(raw, phis_inc_);
  const std::size_t n = normalized.size();
  ASSERT_GT(n, raw.size());
  for (const std::size_t limit : {n - 1, n}) {
    ChaseLimits limits;
    limits.max_normalize_fragments = limit;
    ResourceGuard rebuild_guard(limits);
    Normalize(raw, phis_inc_, nullptr, &rebuild_guard);

    ConcreteInstance uncut = normalized;
    NormalizeState state;
    ResourceGuard uncut_guard(limits);
    NormalizeStats stats;
    state.Normalize(&uncut, phis_inc_, &stats, &uncut_guard);

    EXPECT_EQ(rebuild_guard.tripped(), limit < n) << "limit " << limit;
    EXPECT_EQ(uncut_guard.tripped(), limit < n) << "limit " << limit;
    EXPECT_EQ(stats.partial, limit < n);
    EXPECT_EQ(uncut_guard.Consumed().fragments,
              rebuild_guard.Consumed().fragments);
    // Tripped or not, the uncut pass leaves its input in place.
    EXPECT_EQ(Render(uncut, inc_w_->universe),
              Render(normalized, inc_w_->universe));
    EXPECT_EQ(state.MatchesWatermark(uncut), limit >= n);
  }
}

// Pins the pass's component bookkeeping: labels in first-emission order,
// the reused components remapped above the dirty ones, and the stats, after
// a full pass and after an incremental one, on an instance with a uniform
// component (one shared interval), a mixed one (cut) and ungrouped facts.
TEST(NormalizeStateLabelsTest, FullThenIncrementalPassIsPinned) {
  Universe u;
  Schema schema;
  const RelationId r = *schema.AddRelationPair("R", {"a"}, SchemaRole::kSource);
  const RelationId s = *schema.AddRelationPair("S", {"a"}, SchemaRole::kSource);
  ConcreteInstance ic(&schema);
  const auto add = [&](RelationId rel, const char* name, const Interval& iv) {
    ASSERT_TRUE(ic.Add(rel, {u.Constant(name)}, iv).ok());
  };
  // phi = R(x, t) & S(x, t).
  Conjunction phi;
  for (const RelationId rel : {r, s}) {
    Atom atom;
    atom.rel = rel;
    atom.terms = {Term::Var(0), Term::Var(1)};
    phi.atoms.push_back(atom);
  }
  phi.num_vars = 2;
  const std::vector<Conjunction> phis = {phi};
  // Per relation, the facts in order as "value[start,end)".
  const auto rows = [&](RelationId rel) {
    std::vector<std::string> out;
    for (const FactView f : ic.facts().facts(rel)) {
      out.push_back(u.Render(f.arg(0)) + f.interval().ToString());
    }
    return out;
  };
  // The relations other than R+ and S+ hold no facts.
  const auto marks = [&](std::uint32_t r_mark, std::uint32_t s_mark) {
    std::vector<std::uint32_t> out(schema.relation_count(), 0);
    out[r] = r_mark;
    out[s] = s_mark;
    return out;
  };
  constexpr std::uint32_t kU = 0xFFFFFFFFu;  // ungrouped

  add(r, "u", Interval(0, 10));  // uniform with S(u)
  add(r, "m", Interval(0, 5));   // mixed with S(m)
  add(r, "z", Interval(20, 30)); // ungrouped
  add(s, "u", Interval(0, 10));
  add(s, "m", Interval(3, 8));
  add(s, "w", Interval(1, 2));   // ungrouped
  NormalizeState state;
  NormalizeStats stats;
  state.Normalize(&ic, phis, &stats);
  EXPECT_EQ(rows(r), (std::vector<std::string>{"u[0, 10)", "m[0, 3)",
                                                "m[3, 5)", "z[20, 30)"}));
  EXPECT_EQ(rows(s), (std::vector<std::string>{"u[0, 10)", "m[3, 5)",
                                                "m[5, 8)", "w[1, 2)"}));
  auto wm = state.Export(&ic.facts());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->marks, marks(4, 4));
  EXPECT_EQ(wm->labels,
            (std::vector<std::uint32_t>{0, 1, 1, kU, 0, 1, 1, kU}));
  EXPECT_EQ(wm->num_components, 2u);
  EXPECT_EQ(stats.input_facts, 6u);
  EXPECT_EQ(stats.output_facts, 8u);
  EXPECT_EQ(stats.homomorphisms, 2u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.delta_facts, 6u);
  EXPECT_EQ(stats.dirty_components, 2u);
  EXPECT_EQ(stats.reused_components, 0u);

  // The appended S(u) turns u's component mixed, R(v) and S(v) form a new
  // uniform one, R(n) stays ungrouped and m's component is reused. S(u)'s
  // fragment [5, 10) duplicates one of the old S(u)'s and is dropped.
  add(r, "n", Interval(40, 50));
  add(r, "v", Interval(0, 4));
  add(s, "u", Interval(5, 15));
  add(s, "v", Interval(0, 4));
  ASSERT_TRUE(state.MatchesWatermark(ic));
  state.Normalize(&ic, phis, &stats);
  EXPECT_EQ(rows(r),
            (std::vector<std::string>{"u[0, 5)", "u[5, 10)", "m[0, 3)",
                                      "m[3, 5)", "z[20, 30)", "n[40, 50)",
                                      "v[0, 4)"}));
  EXPECT_EQ(rows(s),
            (std::vector<std::string>{"u[0, 5)", "u[5, 10)", "m[3, 5)",
                                      "m[5, 8)", "w[1, 2)", "u[10, 15)",
                                      "v[0, 4)"}));
  wm = state.Export(&ic.facts());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->marks, marks(7, 7));
  EXPECT_EQ(wm->labels, (std::vector<std::uint32_t>{0, 0, 2, 2, kU, kU, 1,
                                                    0, 0, 2, 2, kU, 0, 1}));
  EXPECT_EQ(wm->num_components, 3u);
  EXPECT_EQ(stats.input_facts, 12u);
  EXPECT_EQ(stats.output_facts, 14u);
  EXPECT_EQ(stats.homomorphisms, 6u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.delta_facts, 4u);
  EXPECT_EQ(stats.dirty_components, 2u);
  EXPECT_EQ(stats.reused_components, 1u);
}

// ---------------------------------------------------------------------------
// Egd rewrites: NoteRewrite keeps the watermark across position-stable
// merges; every other merge falls back to a full pass.
// ---------------------------------------------------------------------------

// The egd resolves T's annotated nulls from W; the tgd body joins T with V
// on the value the egd rewrites, so a rewrite can create an overlapping hom
// (and thus a cut) that did not exist before it.
constexpr std::string_view kRewriteProgram = R"(
  source S(k);
  target T(k, v);
  target W(k, v);
  target V(v, w);
  target X(v);
  target O(k, w);
  tgd s: S(k) -> W(k, k);
  ttgd j: T(k, v) & V(v, w) -> O(k, w);
  egd e: T(k, v) & W(k, v2) -> v = v2;
)";

class EgdRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = testing::ParseOrDie(kRewriteProgram);
    phis_ = program_->lifted.TargetTgdBodies();
    const std::vector<Conjunction> egd_phis = program_->lifted.EgdBodies();
    phis_.insert(phis_.end(), egd_phis.begin(), egd_phis.end());
    target_.emplace(&program_->schema);
  }

  Value C(const char* name) { return program_->universe.Constant(name); }
  Value Null(const Interval& iv) {
    return program_->universe.FreshAnnotatedNull(iv);
  }
  void Add(const char* rel, std::vector<Value> data, const Interval& iv) {
    const RelationId id = *program_->schema.Find(std::string(rel) + "+");
    ASSERT_TRUE(target_->Add(id, std::move(data), iv).ok());
  }

  /// Runs the egd fixpoint, hands a stable log to `state` as the c-chase
  /// does, and returns the log.
  EgdRewriteLog Merge(NormalizeState* state) {
    const bool held = state->MatchesWatermark(*target_);
    EgdRewriteLog log;
    ChaseStats stats;
    std::string reason;
    ResourceGuard guard;
    EXPECT_EQ(EgdFixpoint(&target_->mutable_facts(), program_->lifted.egds,
                          &stats, &reason, &guard, &log),
              ChaseResultKind::kSuccess);
    EXPECT_GT(stats.egd_steps, 0u);
    if (held && log.stable) state->NoteRewrite(*target_, log.rows);
    return log;
  }

  /// Normalizes the target through `state` and checks the result against a
  /// fresh full Normalize of the same input.
  NormalizeStats NormalizeAndCompare(NormalizeState* state) {
    const ConcreteInstance expected = Normalize(*target_, phis_);
    NormalizeStats stats;
    state->Normalize(&*target_, phis_, &stats);
    EXPECT_EQ(Render(*target_, program_->universe),
              Render(expected, program_->universe));
    return stats;
  }

  std::unique_ptr<ParsedProgram> program_;
  std::vector<Conjunction> phis_;
  std::optional<ConcreteInstance> target_;
};

TEST_F(EgdRewriteTest, StableRewriteSeedsTheNextPass) {
  const Interval iv(0, 10);
  Add("T", {C("a"), Null(iv)}, iv);
  Add("W", {C("a"), C("c")}, iv);
  Add("V", {C("c"), C("z")}, Interval(5, 15));
  NormalizeState state;
  NormalizeAndCompare(&state);

  // N := "c" rewrites one T fact in place; it now joins V on "c", and the
  // overlap cuts T, W and V at 5 and 10.
  const EgdRewriteLog log = Merge(&state);
  ASSERT_TRUE(log.stable);
  ASSERT_EQ(log.rows.size(), 1u);
  EXPECT_TRUE(state.MatchesWatermark(*target_));
  EXPECT_FALSE(state.Export(&target_->facts()).has_value())
      << "a watermark with pending rewritten rows must not be checkpointed";

  const std::uint64_t full_before =
      CounterValue("normalize.incremental.full_passes");
  const std::uint64_t seeds_before =
      CounterValue("normalize.incremental.rewrite_seeds");
  const std::size_t facts_before = target_->size();
  const NormalizeStats stats = NormalizeAndCompare(&state);
  EXPECT_EQ(CounterValue("normalize.incremental.full_passes"), full_before);
  EXPECT_EQ(CounterValue("normalize.incremental.rewrite_seeds"),
            seeds_before + 1);
  EXPECT_EQ(stats.delta_facts, 0u);
  EXPECT_GT(stats.output_facts, facts_before);
  EXPECT_TRUE(testing::HasConcreteFact(*target_, program_->universe, "T+",
                                       {"a", "c"}, Interval(5, 10)));
  // The seeds are consumed: the watermark is exportable again.
  EXPECT_TRUE(state.Export(&target_->facts()).has_value());
}

TEST_F(EgdRewriteTest, CompactingRewriteFallsBackToAFullPass) {
  const Interval iv(0, 10);
  Add("T", {C("a"), Null(iv)}, iv);
  Add("T", {C("a"), C("c")}, iv);
  Add("W", {C("a"), C("c")}, iv);
  Add("V", {C("c"), C("z")}, Interval(5, 15));
  Add("V", {C("d"), C("q")}, Interval(20, 30));
  NormalizeState state;
  NormalizeAndCompare(&state);

  // T(a, N) becomes T(a, "c"), which already exists: the rewrite removes it
  // and shifts positions.
  const EgdRewriteLog log = Merge(&state);
  EXPECT_FALSE(log.stable);
  EXPECT_FALSE(state.MatchesWatermark(*target_));
  const std::uint64_t full_before =
      CounterValue("normalize.incremental.full_passes");
  const NormalizeStats stats = NormalizeAndCompare(&state);
  EXPECT_EQ(CounterValue("normalize.incremental.full_passes"),
            full_before + 1);
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
}

TEST_F(EgdRewriteTest, HeavyMergeFallsBackToAFullPass) {
  // The merged null occurs in two of the three facts, more than half: the
  // fixpoint rebuilds the instance instead of rewriting in place.
  const Interval iv(0, 10);
  const Value n = Null(iv);
  Add("T", {C("a"), n}, iv);
  Add("X", {n}, iv);
  Add("W", {C("a"), C("c")}, iv);
  NormalizeState state;
  NormalizeAndCompare(&state);

  const EgdRewriteLog log = Merge(&state);
  EXPECT_FALSE(log.stable);
  EXPECT_FALSE(state.MatchesWatermark(*target_));
  const std::uint64_t full_before =
      CounterValue("normalize.incremental.full_passes");
  const NormalizeStats stats = NormalizeAndCompare(&state);
  EXPECT_EQ(CounterValue("normalize.incremental.full_passes"),
            full_before + 1);
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
}

// ---------------------------------------------------------------------------
// End to end: the c-chase with the incremental path on vs off.
// ---------------------------------------------------------------------------

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

void ExpectIncrementalMatchesFull(const WorkloadFactory& make,
                                  unsigned jobs = 1) {
  auto w_inc = make();
  auto w_full = make();
  CChaseOptions inc, full;
  inc.jobs = jobs;
  full.incremental_normalize = false;
  full.jobs = jobs;
  auto a = CChase(w_inc->source, w_inc->lifted, &w_inc->universe, inc);
  auto b = CChase(w_full->source, w_full->lifted, &w_full->universe, full);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->stats.tgd_fires, b->stats.tgd_fires);
  EXPECT_EQ(a->stats.egd_steps, b->stats.egd_steps);
  EXPECT_EQ(a->stats.fresh_nulls, b->stats.fresh_nulls);
  EXPECT_EQ(a->stats.values_rewritten, b->stats.values_rewritten);
  if (a->kind == ChaseResultKind::kSuccess) {
    EXPECT_EQ(RenderConcreteInstance(a->target, w_inc->universe),
              RenderConcreteInstance(b->target, w_full->universe));
    EXPECT_EQ(a->target_norm_stats.output_facts,
              b->target_norm_stats.output_facts);
  } else if (a->kind == ChaseResultKind::kFailure) {
    EXPECT_EQ(a->failure_reason, b->failure_reason);
  }
}

TEST(CChaseIncrementalTest, EmploymentMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeEmploymentWorkload(
        EmploymentConfig{.num_people = 25, .num_companies = 4, .avg_jobs = 3,
                         .horizon = 60, .salary_known_fraction = 0.6,
                         .inject_conflict = false, .seed = 13});
  });
}

TEST(CChaseIncrementalTest, FailingChaseMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeEmploymentWorkload(
        EmploymentConfig{.num_people = 20, .num_companies = 3, .avg_jobs = 3,
                         .horizon = 50, .salary_known_fraction = 0.9,
                         .inject_conflict = true, .seed = 3});
  });
}

TEST(CChaseIncrementalTest, ChainCascadeMatchesFull) {
  ExpectIncrementalMatchesFull(
      [] { return MakeChainWorkload(ChainConfig{.hops = 10}); });
}

TEST(CChaseIncrementalTest, StratifiedMatchesFull) {
  ExpectIncrementalMatchesFull(
      [] { return MakeStratifiedWorkload(StratifiedConfig{.hops = 8}); });
}

TEST(CChaseIncrementalTest, CascadeMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeCascadeWorkload(CascadeConfig{
        .stages = 5, .ballast_keys = 8, .ballast_dup = 3, .horizon = 8});
  });
}

TEST(CChaseIncrementalTest, CascadeMatchesFullParallel) {
  ExpectIncrementalMatchesFull(
      [] {
        return MakeCascadeWorkload(CascadeConfig{
            .stages = 5, .ballast_keys = 8, .ballast_dup = 3, .horizon = 8});
      },
      /*jobs=*/4);
}

TEST(CChaseIncrementalTest, RandomMappingFuzzMatchesFull) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RandomMappingConfig cfg;
    cfg.seed = seed;
    ExpectIncrementalMatchesFull([&] { return MakeRandomMappingWorkload(cfg); });
  }
}

TEST(CChaseIncrementalTest, RandomInstanceFuzzMatchesFull) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomConfig cfg;
    cfg.num_facts = 80;
    cfg.seed = seed;
    ExpectIncrementalMatchesFull([&] { return MakeRandomWorkload(cfg); });
  }
}

// ---------------------------------------------------------------------------
// The cascade workload itself: shape the ablation benchmark relies on.
// ---------------------------------------------------------------------------

TEST(CascadeWorkloadTest, PlannerProvesBallastEgdEffectFreeAndResolverLive) {
  auto w = MakeCascadeWorkload(CascadeConfig{
      .stages = 4, .ballast_keys = 4, .ballast_dup = 2, .horizon = 8});
  const ChaseSchedule schedule = PlanChase(w->mapping, w->schema);
  ASSERT_EQ(schedule.rules.size(), 8u);
  const ScheduleRule& resolve = schedule.rules[schedule.rules.size() - 2];
  const ScheduleRule& ballast = schedule.rules.back();
  EXPECT_EQ(resolve.name, "e1");
  EXPECT_EQ(ballast.name, "eB");
  EXPECT_TRUE(resolve.live);
  EXPECT_FALSE(resolve.effect_free);
  EXPECT_TRUE(ballast.live);
  EXPECT_TRUE(ballast.effect_free);
}

TEST(CascadeWorkloadTest, EachStageNeedsOneEgdMerge) {
  const CascadeConfig cfg{
      .stages = 6, .ballast_keys = 5, .ballast_dup = 2, .horizon = 8};
  auto w = MakeCascadeWorkload(cfg);
  auto outcome = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  // One hop null minted and merged per stage: the chase is forced through
  // `stages` normalize/egd iterations rather than one closure.
  EXPECT_EQ(outcome->stats.fresh_nulls, cfg.stages);
  EXPECT_EQ(outcome->stats.egd_steps, cfg.stages);
  // The incremental normalizer reuses the ballast components every pass.
  EXPECT_GT(outcome->target_norm_stats.reused_components, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: kill at the incremental site (and around it), resume, compare.
// ---------------------------------------------------------------------------

std::string ChaosSiteName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

class CascadeChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static CascadeConfig Config() {
    return CascadeConfig{
        .stages = 4, .ballast_keys = 6, .ballast_dup = 3, .horizon = 8};
  }
};

TEST_P(CascadeChaosTest, KillResumeIsBitIdentical) {
  auto base_w = MakeCascadeWorkload(Config());
  auto base = CChase(base_w->source, base_w->lifted, &base_w->universe);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->kind, ChaseResultKind::kSuccess);
  const std::string baseline =
      RenderConcreteInstance(base->target, base_w->universe);

  const char* site = GetParam();
  std::size_t kills = 0;
  // Kills resumed from the loop-top checkpoint taken right after an egd
  // merge, while the rewritten rows were still pending.
  std::size_t post_merge_resumes = 0;
  for (std::size_t skip = 0; skip < 64; ++skip) {
    auto w = MakeCascadeWorkload(Config());
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;

    bool killed = false;
    {
      ScopedFault fault(site, Status::Internal("injected fault"), skip);
      auto outcome = CChase(w->source, w->lifted, &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        EXPECT_EQ(RenderConcreteInstance(outcome->target, w->universe),
                  baseline);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      killed = true;
    }
    if (!killed) break;
    ++kills;

    const std::optional<ChaseCheckpoint>& latest = checkpointer.latest();
    CChaseOptions resume_options;
    resume_options.resume_from = latest.has_value() ? &*latest : nullptr;
    if (latest.has_value() && latest->phase == "loop-top" &&
        latest->stats.egd_steps > 0 && !latest->norm_state_valid) {
      ++post_merge_resumes;
    }
    auto resumed = CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, w->universe), baseline)
        << "divergence after kill at " << site << "@" << skip;
    EXPECT_EQ(resumed->stats.tgd_fires, base->stats.tgd_fires);
    EXPECT_EQ(resumed->stats.fresh_nulls, base->stats.fresh_nulls);
    EXPECT_EQ(resumed->stats.egd_steps, base->stats.egd_steps);
    EXPECT_EQ(resumed->stats.values_rewritten, base->stats.values_rewritten);
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
  // The normalize-target site fires right after every loop-top checkpoint;
  // after a merge that checkpoint carries no watermark (the rewritten rows
  // are not part of the format) and the resumed run starts with a full
  // pass.
  if (std::string_view(site) == "cchase/normalize-target") {
    EXPECT_EQ(post_merge_resumes, base->stats.egd_steps);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSites, CascadeChaosTest,
                         ::testing::Values("normalize/incremental",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint"),
                         ChaosSiteName);

}  // namespace
}  // namespace tdx
