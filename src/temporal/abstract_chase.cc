#include "src/temporal/abstract_chase.h"

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

namespace {

bool PieceIsComplete(const AbstractPiece& piece) {
  bool complete = true;
  piece.snapshot.ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) complete = false;
    }
  });
  return complete;
}

/// The distinct labeled nulls of `target` in first-occurrence order (fact
/// order is deterministic, so this order is too).
std::vector<Value> CollectNulls(const Instance& target) {
  std::unordered_set<NullId> seen;
  std::vector<Value> out;
  target.ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_null() && seen.insert(v.null_id()).second) out.push_back(v);
    }
  });
  return out;
}

/// Re-labels the chase's fresh labeled nulls as interval-annotated nulls
/// spanning the piece: a distinct unknown at every snapshot (Section 3:
/// "the fresh labeled nulls produced in a snapshot are distinct from those
/// produced in the other snapshots"). One rebuild pass; the substitution is
/// injective over distinct nulls, so no facts collapse and per-relation
/// fact order is preserved — identical to replacing the nulls one at a time.
Instance RelabelNulls(Instance target, const std::vector<Value>& nulls,
                      const Interval& span, Universe* universe) {
  if (nulls.empty()) return target;
  std::unordered_map<Value, Value, ValueHash> subst;
  subst.reserve(nulls.size());
  for (const Value& old_null : nulls) {
    subst.emplace(old_null, universe->FreshAnnotatedNull(span));
  }
  Instance relabeled(&target.schema());
  std::vector<Value> args;
  target.ForEach([&](FactView fact) {
    args.clear();
    args.reserve(fact.arity());
    for (const Value& v : fact.args()) {
      auto it = subst.find(v);
      args.push_back(it == subst.end() ? v : it->second);
    }
    relabeled.InsertSpan(fact.relation(), args.data(), args.size());
  });
  return relabeled;
}

/// Folds one piece's chase result into the aggregate outcome. Returns true
/// to continue with the next piece, false when the piece failed or aborted
/// (the aggregate then carries the failure and later pieces never run).
bool MergePiece(const AbstractPiece& piece, ChaseOutcome piece_outcome,
                Universe* universe, AbstractChaseOutcome* outcome) {
  outcome->stats.tgd_triggers += piece_outcome.stats.tgd_triggers;
  outcome->stats.tgd_fires += piece_outcome.stats.tgd_fires;
  outcome->stats.egd_steps += piece_outcome.stats.egd_steps;
  outcome->stats.fresh_nulls += piece_outcome.stats.fresh_nulls;
  outcome->stats.values_rewritten += piece_outcome.stats.values_rewritten;
  outcome->stats.skipped_egd_passes += piece_outcome.stats.skipped_egd_passes;
  outcome->stats.skipped_normalize_passes +=
      piece_outcome.stats.skipped_normalize_passes;
  outcome->stats.search += piece_outcome.stats.search;
  // Every piece chases the same mapping, so the stratum count is shared,
  // not additive.
  outcome->stats.schedule_strata = piece_outcome.stats.schedule_strata;
  if (piece_outcome.kind != ChaseResultKind::kSuccess) {
    outcome->kind = piece_outcome.kind;
    outcome->failure_span = piece.span;
    outcome->abort_dimension = piece_outcome.abort_dimension;
    outcome->abort_reason = std::move(piece_outcome.abort_reason);
    return false;
  }
  const std::vector<Value> nulls = CollectNulls(piece_outcome.target);
  outcome->target.AddPiece(
      piece.span, RelabelNulls(std::move(piece_outcome.target), nulls,
                               piece.span, universe));
  return true;
}

}  // namespace

Result<AbstractChaseOutcome> AbstractChase(const AbstractInstance& source,
                                           const Mapping& mapping,
                                           Universe* universe,
                                           const ChaseLimits& limits) {
  TDX_TRACE_SPAN("abstract.run");
  static obs::Counter runs_metric("abstract.runs");
  static obs::Counter pieces_metric("abstract.pieces_chased");
  runs_metric.Inc();
  AbstractChaseOutcome outcome(AbstractInstance(&source.schema()));

  // Plan once, up front: every piece chases the same mapping, and a
  // schedule-less mapping would make each per-piece chase re-derive the
  // schedule from scratch.
  std::optional<Mapping> planned;
  if (!mapping.schedule.has_value()) {
    planned = mapping;
    planned->schedule = PlanChase(mapping, source.schema());
  }
  const Mapping& piece_mapping = planned.has_value() ? *planned : mapping;

  for (const AbstractPiece& piece : source.pieces()) {
    if (!PieceIsComplete(piece)) {
      return Status::InvalidArgument(
          "abstract chase requires a complete source instance");
    }
    TDX_TRACE_SPAN("abstract.piece");
    pieces_metric.Inc();
    TDX_ASSIGN_OR_RETURN(
        ChaseOutcome piece_outcome,
        ChaseSnapshot(piece.snapshot, piece_mapping, universe, limits));
#ifndef TDX_DISABLE_FAULT_POINTS
    // The abstract-chase/merge site aborts the run before this piece is
    // merged.
    if (FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Fire("abstract-chase/merge");
      if (!fault.ok()) {
        outcome.kind = ChaseResultKind::kAborted;
        outcome.failure_span = piece.span;
        outcome.abort_dimension = ResourceDimension::kInjectedFault;
        outcome.abort_reason = fault.ToString();
        return outcome;
      }
    }
#endif
    if (!MergePiece(piece, std::move(piece_outcome), universe, &outcome)) {
      return outcome;
    }
  }
  return outcome;
}

Result<ChaseOutcome> ChaseSnapshotAt(const AbstractInstance& source,
                                     TimePoint l, const Mapping& mapping,
                                     Universe* universe) {
  const Instance snapshot = source.At(l, universe);
  return ChaseSnapshot(snapshot, mapping, universe);
}

}  // namespace tdx
