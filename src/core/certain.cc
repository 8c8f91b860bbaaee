#include "src/core/certain.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/temporal/snapshot.h"

namespace tdx {

namespace {

/// The chase's outcome kind and abort cause, with no answers yet.
template <typename Outcome>
CertainAnswersResult ResultOf(const Outcome& chase) {
  CertainAnswersResult result;
  result.chase_kind = chase.kind;
  result.abort_dimension = chase.abort_dimension;
  result.abort_reason = chase.abort_reason;
  return result;
}

}  // namespace

Result<CertainAnswersResult> CertainAnswers(const UnionQuery& lifted_query,
                                            const ConcreteInstance& source,
                                            const Mapping& lifted_mapping,
                                            Universe* universe,
                                            const ChaseLimits& limits) {
  CChaseOptions options;
  options.limits = limits;
  TDX_ASSIGN_OR_RETURN(CChaseOutcome chase,
                       CChase(source, lifted_mapping, universe, options));
  CertainAnswersResult result = ResultOf(chase);
  // A failed OR aborted chase yields no target to evaluate; the kind tells
  // the caller which (kAborted answers are not certain, just absent).
  if (chase.kind != ChaseResultKind::kSuccess) return result;
  ResourceGuard guard(limits);
  auto answers = NaiveEvaluateConcrete(lifted_query, chase.target, &guard);
  if (guard.tripped()) {
    result.chase_kind = ChaseResultKind::kAborted;
    result.abort_dimension = guard.dimension();
    result.abort_reason = guard.reason();
    return result;
  }
  TDX_ASSIGN_OR_RETURN(result.answers, std::move(answers));
  return result;
}

Result<CertainAnswersResult> CertainAnswersAt(const UnionQuery& query,
                                              const ConcreteInstance& source,
                                              const Mapping& mapping,
                                              TimePoint l, Universe* universe,
                                              const ChaseLimits& limits) {
  TDX_ASSIGN_OR_RETURN(Instance snapshot, SnapshotAt(source, l, universe));
  TDX_ASSIGN_OR_RETURN(ChaseOutcome chase,
                       ChaseSnapshot(snapshot, mapping, universe, limits));
  CertainAnswersResult result = ResultOf(chase);
  if (chase.kind != ChaseResultKind::kSuccess) return result;
  result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
  return result;
}

Result<std::vector<CertainAnswersResult>> CertainAnswersAtMany(
    const UnionQuery& query, const ConcreteInstance& source,
    const Mapping& mapping, const std::vector<TimePoint>& points,
    Universe* universe, unsigned jobs, const ChaseLimits& limits) {
  // Phase 1 (sequential): materialize every snapshot against the shared
  // universe.
  std::vector<Instance> snapshots;
  snapshots.reserve(points.size());
  for (TimePoint l : points) {
    TDX_ASSIGN_OR_RETURN(Instance snapshot, SnapshotAt(source, l, universe));
    snapshots.push_back(std::move(snapshot));
  }
  // Phase 2 (parallel): chase and evaluate each snapshot independently.
  // Scratch universes keep the workers isolated; the answers carry no nulls,
  // so scratch ids never escape, and the per-point results are exactly what
  // the one-point entry computes.
  std::vector<std::optional<Result<CertainAnswersResult>>> slots(
      points.size());
  // A slot the pool dropped (the thread-pool/dispatch fault site) stays
  // empty; it reports an aborted chase, never answers, below.
  (void)ParallelFor(jobs, points.size(), [&](std::size_t i) {
    Universe scratch;
    auto run = [&]() -> Result<CertainAnswersResult> {
      TDX_ASSIGN_OR_RETURN(
          ChaseOutcome chase,
          ChaseSnapshot(snapshots[i], mapping, &scratch, limits));
      CertainAnswersResult result = ResultOf(chase);
      if (chase.kind != ChaseResultKind::kSuccess) return result;
      result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
      return result;
    };
    slots[i] = run();
  });
  std::vector<CertainAnswersResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!slots[i].has_value()) {
      CertainAnswersResult& dropped = results.emplace_back();
      dropped.chase_kind = ChaseResultKind::kAborted;
      dropped.abort_dimension = ResourceDimension::kInjectedFault;
      dropped.abort_reason =
          Status::Internal("snapshot chase task was dropped before execution")
              .ToString();
      continue;
    }
    TDX_ASSIGN_OR_RETURN(CertainAnswersResult result, std::move(*slots[i]));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace tdx
