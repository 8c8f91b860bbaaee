// Experiment INC-NORM: incremental vs full target normalization inside the
// c-chase (core/normalize_incremental.h).
//
// The cascade workload (gen/workload.h, MakeCascadeWorkload) forces the
// chase through `stages` outer iterations: each hop mints an annotated
// null that only an egd merge can resolve, so every stage runs one
// post-rewrite full normalization pass and one post-rounds pass whose
// delta is ~2 facts. A block of co-valid ballast facts (an effect-free
// egd's lhs, quadratically many homs per key) dominates the full pass's
// sweep; the incremental pass proves those components untouched and
// copies them through. range(0)
// toggles CChaseOptions::incremental_normalize — the output is
// bit-identical either way (asserted in normalize_incremental_test.cc);
// only the time differs. CI gates full/incremental >= 1.5x (bench-smoke).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"

namespace {

tdx::CascadeConfig BenchConfig() {
  tdx::CascadeConfig cfg;
  cfg.stages = 12;
  cfg.ballast_keys = 60;
  cfg.ballast_dup = 30;
  cfg.horizon = 8;
  return cfg;
}

/// Target-normalization homomorphisms enumerated so far in this process,
/// summed over every pass of every run.
std::uint64_t TargetNormHoms() {
  const tdx::obs::MetricsSnapshot snap =
      tdx::obs::MetricsRegistry::Instance().Snapshot();
  const tdx::obs::MetricValue* v =
      snap.Find("normalize.incremental.homomorphisms");
  return v != nullptr ? v->value : 0;
}

/// range(0): 0 = full re-normalization every pass, 1 = incremental.
void BM_CascadeNormalize(benchmark::State& state) {
  auto w = tdx::MakeCascadeWorkload(BenchConfig());
  tdx::CChaseOptions options;
  options.incremental_normalize = state.range(0) != 0;
  std::optional<tdx::CChaseOutcome> last;
  const std::uint64_t homs_before = TargetNormHoms();
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, options);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  state.counters["tgt_facts"] = static_cast<double>(last->target.size());
  // Per run, over all of its target passes (the last pass alone is usually
  // a clean one that enumerates nothing).
  state.counters["norm_homs"] =
      static_cast<double>(TargetNormHoms() - homs_before) /
      static_cast<double>(state.iterations());
  state.counters["reused"] =
      static_cast<double>(last->target_norm_stats.reused_components);
  state.counters["egd_steps"] = static_cast<double>(last->stats.egd_steps);
}
BENCHMARK(BM_CascadeNormalize)->Arg(0)->Arg(1);

}  // namespace
