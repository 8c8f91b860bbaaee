// Incremental normalization (core/normalize_incremental.h): a persistent
// NormalizeState must produce bit-identical output to a fresh full
// Normalize after any sequence of appends, at any job count; it must
// invalidate on every generation bump; its watermark must survive a
// checkpoint export/restore round trip; and the c-chase must produce the
// same solution with the incremental path on and off, on every workload
// family including randomized mappings and a kill-and-recover sweep.

#include "src/core/normalize_incremental.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/planner.h"
#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/gen/workload.h"
#include "src/parser/printer.h"

namespace tdx {
namespace {

std::string Render(const ConcreteInstance& instance, const Universe& u) {
  return instance.facts().ToString(u);
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

    CChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed = CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, w->universe), baseline)
        << "divergence after kill at " << site << "@" << skip;
    EXPECT_EQ(resumed->stats.fresh_nulls, base->stats.fresh_nulls);
    EXPECT_EQ(resumed->stats.egd_steps, base->stats.egd_steps);
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
}

INSTANTIATE_TEST_SUITE_P(AllSites, CascadeChaosTest,
                         ::testing::Values("normalize/incremental",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint"),
                         ChaosSiteName);

}  // namespace
}  // namespace tdx
