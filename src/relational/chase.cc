#include "src/relational/chase.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/analysis/termination.h"
#include "src/common/thread_pool.h"
#include "src/obs/trace.h"

namespace tdx {

struct ChaseRunScope::Metrics {
  explicit Metrics(const std::string& prefix)
      : runs(prefix + ".runs"),
        aborts(prefix + ".aborts"),
        rounds(prefix + ".rounds"),
        tgd_triggers(prefix + ".tgd_triggers"),
        tgd_fires(prefix + ".tgd_fires"),
        egd_steps(prefix + ".egd_steps"),
        fresh_nulls(prefix + ".fresh_nulls"),
        values_rewritten(prefix + ".values_rewritten"),
        skipped_egd_passes(prefix + ".skipped_egd_passes"),
        strata(prefix + ".schedule_strata"),
        run_us(prefix + ".run_us") {
    // Only the c-chase has normalization passes to skip.
    if (prefix == "cchase") {
      skipped_normalize_passes.emplace(prefix + ".skipped_normalize_passes");
    }
  }

  obs::Counter runs;
  obs::Counter aborts;
  obs::Counter rounds;
  obs::Counter tgd_triggers;
  obs::Counter tgd_fires;
  obs::Counter egd_steps;
  obs::Counter fresh_nulls;
  obs::Counter values_rewritten;
  obs::Counter skipped_egd_passes;
  std::optional<obs::Counter> skipped_normalize_passes;
  obs::Gauge strata;
  obs::Histogram run_us;
};

ChaseRunScope::Metrics* ChaseRunScope::MetricsFor(std::string_view prefix) {
  if (prefix == "cchase") {
    static auto* cchase = new Metrics("cchase");
    return cchase;
  }
  static auto* snapshot = new Metrics("snapshot");
  return snapshot;
}

ChaseRunScope::ChaseRunScope(std::string_view prefix, const ChaseStats* stats,
                             const std::size_t* rounds,
                             const ChaseResultKind* kind)
    : metrics_(MetricsFor(prefix)),
      stats_(stats),
      rounds_(rounds),
      kind_(kind),
      entry_(*stats),
      entry_rounds_(*rounds),
      latency_(&metrics_->run_us) {}

ChaseRunScope::~ChaseRunScope() {
  Metrics& m = *metrics_;
  m.runs.Inc();
  if (*kind_ == ChaseResultKind::kAborted) m.aborts.Inc();
  m.rounds.Inc(*rounds_ - entry_rounds_);
  m.tgd_triggers.Inc(stats_->tgd_triggers - entry_.tgd_triggers);
  m.tgd_fires.Inc(stats_->tgd_fires - entry_.tgd_fires);
  m.egd_steps.Inc(stats_->egd_steps - entry_.egd_steps);
  m.fresh_nulls.Inc(stats_->fresh_nulls - entry_.fresh_nulls);
  m.values_rewritten.Inc(stats_->values_rewritten - entry_.values_rewritten);
  m.skipped_egd_passes.Inc(stats_->skipped_egd_passes -
                           entry_.skipped_egd_passes);
  if (m.skipped_normalize_passes.has_value()) {
    m.skipped_normalize_passes->Inc(stats_->skipped_normalize_passes -
                                    entry_.skipped_normalize_passes);
  }
  m.strata.Set(stats_->schedule_strata);
}

namespace {

bool FactRefLess(const FactRef& a, const FactRef& b) {
  return a.rel != b.rel ? a.rel < b.rel : a.pos < b.pos;
}

bool FactRefEqual(const FactRef& a, const FactRef& b) {
  return a.rel == b.rel && a.pos == b.pos;
}

/// Universally quantified variables that occur in the head. Two triggers
/// that agree on these produce interchangeable head images, so they are
/// deduplicated before firing.
std::vector<VarId> HeadUniversalVars(const Tgd& tgd) {
  std::unordered_set<VarId> existential(tgd.existential.begin(),
                                        tgd.existential.end());
  std::unordered_set<VarId> seen;
  std::vector<VarId> out;
  for (const Atom& atom : tgd.head.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && existential.count(t.var()) == 0 &&
          seen.insert(t.var()).second) {
        out.push_back(t.var());
      }
    }
  }
  return out;
}

/// Triggers of one tgd, deduplicated and canonically ordered by the
/// head-visible universal values: triggers agreeing there would fire
/// indistinguishable head images (the fresh-null factories only consult
/// head-visible variables), so the first collected binding represents the
/// key. Collection always completes before any firing, so the enumerated
/// instance may alias the insertion target.
using TriggerSet = std::map<std::vector<Value>, Binding>;

/// Collects the triggers of `tgd` over `inst` whose body image touches
/// `frontier`. A full frontier enumerates the whole instance; otherwise
/// enumeration is seeded on each body atom's frontier range, so triggers
/// touching several frontier facts are enumerated once per touched atom and
/// the key map absorbs the duplicates.
void CollectTriggers(HomomorphismFinder* finder, const Instance& inst,
                     const Tgd& tgd, const std::vector<VarId>& key_vars,
                     const DeltaFrontier& frontier, ChaseStats* stats,
                     TriggerSet* triggers) {
  const HomCallback add = [&](const Binding& binding, const AtomImage&) {
    ++stats->tgd_triggers;
    std::vector<Value> key;
    key.reserve(key_vars.size());
    for (VarId v : key_vars) key.push_back(binding.Get(v));
    triggers->emplace(std::move(key), binding);
    return true;
  };
  if (frontier.full()) {
    finder->ForEach(tgd.body, Binding(tgd.num_vars()), add);
    return;
  }
  for (std::size_t i = 0; i < tgd.body.atoms.size(); ++i) {
    const RelationId rel = tgd.body.atoms[i].rel;
    const std::uint32_t begin = frontier.mark(rel);
    const auto end = static_cast<std::uint32_t>(inst.facts(rel).size());
    if (begin >= end) continue;
    finder->ForEachSeeded(tgd.body, i, begin, end, Binding(tgd.num_vars()),
                          add);
  }
}

/// Fires every collected trigger that lacks an extension witness in the
/// current target (restricted chase). `head_finder` enumerates over the
/// live target: its index cache absorbs the inserts this loop performs, so
/// a witness fired moments ago is visible to the next Exists probe — the
/// behavior the old per-insert finder rebuild bought, at append cost.
/// Returns true if at least one new fact was inserted.
bool FireTriggers(Instance* target, const Tgd& tgd, TriggerSet& triggers,
                  const FreshNullFactory& fresh, ChaseStats* stats,
                  ResourceGuard* guard, HomomorphismFinder* head_finder) {
  bool inserted_any = false;
  std::vector<Value> row;  // reused head-instantiation scratch
  for (auto& [key, binding] : triggers) {
    if (!guard->CheckDeadline()) break;
    // In-place witness check: the binding is extended during the search and
    // fully restored before Exists returns.
    if (head_finder->Exists(tgd.head, &binding)) continue;
    // Budget checks come before the corresponding work, so an aborted
    // firing never half-materializes: no nulls are minted and no facts
    // inserted once the guard trips.
    if (!guard->ChargeTgdFire()) break;
    Binding extended = binding;
    for (VarId y : tgd.existential) {
      if (!guard->ChargeFreshNull()) break;
      extended.Bind(y, fresh(tgd, binding));
      ++stats->fresh_nulls;
    }
    if (guard->tripped()) break;
    bool fact_budget_ok = true;
    for (const Atom& atom : tgd.head.atoms) {
      row.clear();
      for (const Term& t : atom.terms) {
        row.push_back(t.is_var() ? extended.Get(t.var()) : t.value());
      }
      if (target->InsertSpan(atom.rel, row.data(), row.size())) {
        inserted_any = true;
        // Duplicates are free: only facts that grew the instance count.
        if (!guard->ChargeFact()) {
          fact_budget_ok = false;
          break;
        }
      }
    }
    ++stats->tgd_fires;
    if (!fact_budget_ok) break;
  }
  return inserted_any;
}

/// Collects the triggers of every member of `group` over `body` (through
/// `body_finder`, or concurrently through per-task scratch finders when the
/// plan allows), then fires the members in group order through
/// `head_finder`. Trigger counts accrue per member right before its firing,
/// so stats sequences match a collect-fire loop even across guard trips.
/// Null finders (naive rounds, where `body` is `*target`) give each member a
/// cold finder for both its collection and its firing.
bool RunGroup(const std::vector<std::size_t>& group,
              const std::vector<Tgd>& tgds, const TgdRunPlan& plan,
              const Instance& body, const DeltaFrontier& frontier,
              Instance* target, const FreshNullFactory& fresh,
              ChaseStats* stats, ResourceGuard* guard,
              HomomorphismFinder* body_finder,
              HomomorphismFinder* head_finder) {
  if (guard->tripped()) return false;
  const std::size_t n = group.size();
  std::vector<TriggerSet> sets(n);
  std::vector<ChaseStats> local(n);
  std::vector<std::unique_ptr<HomomorphismFinder>> cold(n);
  const auto finder_for = [&](std::size_t k, HomomorphismFinder* shared) {
    if (shared != nullptr) return shared;
    if (cold[k] == nullptr) {
      cold[k] = std::make_unique<HomomorphismFinder>(*target, &stats->search);
    }
    return cold[k].get();
  };
  const auto collect = [&](HomomorphismFinder* finder, std::size_t k) {
    CollectTriggers(finder, body, tgds[group[k]], plan.key_vars[group[k]],
                    frontier, &local[k], &sets[k]);
  };
  if (plan.jobs > 1 && n > 1) {
    const bool all_ran = ParallelFor(plan.jobs, n, [&](std::size_t k) {
      HomomorphismFinder scratch(body, &local[k].search);
      collect(&scratch, k);
    });
    if (!all_ran) {
      // A dropped collection would leave its tgd with no triggers and the
      // run would finish with a silently smaller target: abort instead.
      guard->TripFault(Status::Internal(
          "trigger collection task was dropped before execution"));
      return false;
    }
  } else {
    for (std::size_t k = 0; k < n; ++k) collect(finder_for(k, body_finder), k);
  }
  bool inserted = false;
  for (std::size_t k = 0; k < n; ++k) {
    if (guard->tripped()) break;
    stats->tgd_triggers += local[k].tgd_triggers;
    stats->search += local[k].search;
    if (FireTriggers(target, tgds[group[k]], sets[k], fresh, stats, guard,
                     finder_for(k, head_finder))) {
      inserted = true;
    }
  }
  return inserted;
}

/// Plan for `tgds`. With a schedule: its dead rules dropped and its
/// ChaseSchedule::parallel_groups as the groups. Without one (null): every
/// tgd in declaration order, each its own group.
TgdRunPlan BuildTgdRunPlan(const std::vector<Tgd>& tgds,
                           const ChaseSchedule* schedule, unsigned jobs,
                           bool semi_naive) {
  TgdRunPlan plan;
  plan.jobs = jobs;
  plan.semi_naive = semi_naive;
  plan.key_vars.reserve(tgds.size());
  for (const Tgd& tgd : tgds) plan.key_vars.push_back(HeadUniversalVars(tgd));
  if (schedule != nullptr) {
    plan.groups = schedule->parallel_groups;
  } else {
    for (std::size_t i = 0; i < tgds.size(); ++i) plan.groups.push_back({i});
  }
  return plan;
}

/// Plan for s-t tgds `tgds`: one group holding every tgd, stably sorted by
/// existential-variable count, so full tgds fire first and declaration
/// order breaks ties (TgdPhase says why). Scheduled and flat runs share it.
TgdRunPlan BuildStTgdRunPlan(const std::vector<Tgd>& tgds, unsigned jobs) {
  TgdRunPlan plan = BuildTgdRunPlan(tgds, nullptr, jobs, true);
  std::vector<std::size_t> order(tgds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tgds[a].existential.size() <
                            tgds[b].existential.size();
                   });
  plan.groups = {std::move(order)};
  return plan;
}

}  // namespace

void TgdPhase(const Instance& source, Instance* target,
              const std::vector<Tgd>& tgds, const TgdRunPlan& plan,
              const FreshNullFactory& fresh, ChaseStats* stats,
              ResourceGuard* guard) {
  // One finder per side for the whole phase: the source is immutable here,
  // and the target finder's indexes absorb the phase's own inserts.
  HomomorphismFinder body_finder(source, &stats->search);
  HomomorphismFinder head_finder(*target, &stats->search);
  RunGroup(plan.groups.front(), tgds, plan, source, DeltaFrontier(), target,
           fresh, stats, guard, &body_finder, &head_finder);
}

bool TargetTgdRound(Instance* target, const std::vector<Tgd>& tgds,
                    const TgdRunPlan& plan, const FreshNullFactory& fresh,
                    ChaseStats* stats, ResourceGuard* guard,
                    DeltaFrontier* frontier, HomomorphismFinder* finder) {
  if (!plan.semi_naive) {
    frontier->Reset();
    finder = nullptr;
  }
  // Everything inserted from here on is the next round's frontier. Sizes
  // are captured before any firing; facts a group inserts this round are
  // enumerated by later groups' collections (they are past the current
  // marks) AND again next round — redundant but harmless, the witness check
  // skips re-fires. Within a group, non-interference guarantees an earlier
  // member's inserts could not match a later member's body anyway.
  const std::size_t relation_count = target->schema().relation_count();
  std::vector<std::uint32_t> start_sizes(relation_count);
  for (RelationId rel = 0; rel < relation_count; ++rel) {
    start_sizes[rel] = static_cast<std::uint32_t>(target->facts(rel).size());
  }
  bool inserted = false;
  for (const std::vector<std::size_t>& group : plan.groups) {
    if (RunGroup(group, tgds, plan, *target, *frontier, target, fresh, stats,
                 guard, finder, finder)) {
      inserted = true;
    }
  }
  if (plan.semi_naive) frontier->AdvanceTo(std::move(start_sizes));
  return inserted;
}

ChaseRunPlan PlanChaseRun(const Mapping& mapping, const Schema& schema,
                          bool scheduled, bool semi_naive, unsigned jobs) {
  std::optional<ChaseSchedule> derived;
  const ChaseSchedule* schedule = nullptr;
  if (scheduled) {
    if (!mapping.schedule.has_value()) derived = PlanChase(mapping, schema);
    schedule = mapping.schedule.has_value() ? &*mapping.schedule : &*derived;
  }
  ChaseRunPlan plan;
  plan.st = BuildStTgdRunPlan(mapping.st_tgds, jobs);
  plan.target =
      BuildTgdRunPlan(mapping.target_tgds, schedule, jobs, semi_naive);
  if (schedule == nullptr) {
    plan.egds = mapping.egds;
    return plan;
  }
  plan.strata = schedule->stratum_count();
  plan.egd_pass_live = schedule->egd_fixpoint_live();
  plan.egds.reserve(schedule->live_egds.size());
  for (std::size_t index : schedule->live_egds) {
    plan.egds.push_back(mapping.egds[index]);
  }
  return plan;
}

ChaseResultKind EgdFixpoint(Instance* target, const std::vector<Egd>& egds,
                            ChaseStats* stats, std::string* failure_reason,
                            ResourceGuard* guard, EgdRewriteLog* log) {
  if (log != nullptr) *log = EgdRewriteLog{};
  // Batched passes: collect every violated equality, merge the equivalence
  // classes with union-find, substitute, repeat. This is equivalent to
  // applying egd steps one at a time (the egd chase is confluent up to null
  // renaming) but costs one substitution pass per batch instead of one per
  // step.
  //
  // The substitution itself is in-place over only the facts that mention a
  // merged value. Those facts are found through a reverse null->positions
  // index built on the first merging pass and maintained incrementally
  // afterwards; it is dropped (and lazily rebuilt) whenever fact positions
  // shift. Only nulls need indexing: a merge never replaces a constant (a
  // non-null representative always wins, and two non-nulls fail the chase).
  std::unordered_map<Value, std::vector<FactRef>, ValueHash> reverse;
  bool reverse_valid = false;
  while (true) {
    if (!guard->PokeFault("chase/egd-fixpoint") || !guard->CheckDeadline()) {
      return ChaseResultKind::kAborted;
    }
    // ---- collect all violated equalities --------------------------------
    std::vector<std::pair<Value, Value>> pairs;
    std::string violated_label;
    {
      HomomorphismFinder finder(*target, &stats->search);
      for (const Egd& egd : egds) {
        finder.ForEach(egd.body, Binding(egd.num_vars()),
                       [&](const Binding& binding, const AtomImage&) {
                         const Value& a = binding.Get(egd.x1);
                         const Value& b = binding.Get(egd.x2);
                         if (a != b) {
                           pairs.emplace_back(a, b);
                           if (violated_label.empty()) {
                             violated_label = egd.label;
                           }
                         }
                         return true;
                       });
      }
    }
    if (pairs.empty()) {
      if (log != nullptr && log->stable) {
        std::sort(log->rows.begin(), log->rows.end(), FactRefLess);
        log->rows.erase(std::unique(log->rows.begin(), log->rows.end(),
                                    FactRefEqual),
                        log->rows.end());
      }
      return ChaseResultKind::kSuccess;
    }

    // ---- union-find over the values involved -----------------------------
    std::unordered_map<Value, std::size_t, ValueHash> index;
    std::vector<Value> values;
    std::vector<std::size_t> parent;
    auto intern = [&](const Value& v) {
      auto [it, inserted] = index.emplace(v, values.size());
      if (inserted) {
        values.push_back(v);
        parent.push_back(parent.size());
      }
      return it->second;
    };
    std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const auto& [a, b] : pairs) {
      parent[find(intern(a))] = find(intern(b));
    }

    // ---- pick a representative per class ---------------------------------
    // A non-null wins; two distinct non-nulls in one class is chase
    // failure; among nulls, the smallest id wins (deterministic).
    std::unordered_map<std::size_t, Value> representative;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t root = find(i);
      const Value& v = values[i];
      auto it = representative.find(root);
      if (it == representative.end()) {
        representative.emplace(root, v);
        continue;
      }
      const Value& cur = it->second;
      if (!v.is_any_null()) {
        if (!cur.is_any_null()) {
          *failure_reason = "egd '" + violated_label +
                            "' equates two distinct non-null values";
          return ChaseResultKind::kFailure;
        }
        it->second = v;
      } else if (cur.is_any_null() && v.null_id() < cur.null_id()) {
        it->second = v;
      }
    }

    // ---- flatten the classes into a substitution map ---------------------
    std::unordered_map<Value, Value, ValueHash> subst;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Value& rep = representative.at(find(i));
      if (rep != values[i]) subst.emplace(values[i], rep);
    }

    // The pass's steps are charged before the substitution: a pass that
    // blows the egd budget aborts without paying for the rewrite.
    if (!guard->ChargeEgdSteps(index.size() - representative.size())) {
      return ChaseResultKind::kAborted;
    }
    stats->egd_steps += index.size() - representative.size();

    // ---- find the affected facts through the reverse index ---------------
    if (!reverse_valid) {
      reverse.clear();
      const std::size_t relation_count = target->schema().relation_count();
      for (RelationId rel = 0; rel < relation_count; ++rel) {
        const FactColumn facts = target->facts(rel);
        for (std::uint32_t pos = 0; pos < facts.size(); ++pos) {
          for (const Value& v : facts[pos].args()) {
            if (v.is_any_null()) reverse[v].push_back({rel, pos});
          }
        }
      }
      reverse_valid = true;
    }
    std::vector<FactRef> affected;
    for (const auto& [from, to] : subst) {
      (void)to;
      auto it = reverse.find(from);
      if (it == reverse.end()) continue;
      affected.insert(affected.end(), it->second.begin(), it->second.end());
    }
    std::sort(affected.begin(), affected.end(), FactRefLess);
    affected.erase(
        std::unique(affected.begin(), affected.end(), FactRefEqual),
        affected.end());

    if (affected.size() > target->size() / 2) {
      // ---- heavy merge: rebuild the instance wholesale -------------------
      Instance next(&target->schema());
      std::vector<Value> args;
      target->ForEach([&](FactView fact) {
        args.clear();
        for (const Value& v : fact.args()) {
          auto it = subst.find(v);
          if (it == subst.end()) {
            args.push_back(v);
            continue;
          }
          ++stats->values_rewritten;
          args.push_back(it->second);
        }
        next.InsertSpan(fact.relation(), args.data(), args.size());
      });
      *target = std::move(next);
      reverse_valid = false;
      if (log != nullptr) log->stable = false;
    } else {
      // ---- light merge: rewrite only the affected facts in place ---------
      const RewriteResult result = target->RewriteFacts(affected, subst);
      stats->values_rewritten += result.values_rewritten;
      if (result.compacted) {
        // Positions shifted; the reverse index is stale beyond repair.
        reverse_valid = false;
        if (log != nullptr) log->stable = false;
      } else {
        if (log != nullptr && log->stable) {
          log->rows.insert(log->rows.end(), affected.begin(), affected.end());
        }
        // Maintain the index: the merged nulls are gone everywhere (every
        // occurrence was just rewritten), and each affected fact now holds
        // representative values at the rewritten slots.
        std::unordered_set<Value, ValueHash> null_reps;
        for (const auto& [from, to] : subst) {
          reverse.erase(from);
          if (to.is_any_null()) null_reps.insert(to);
        }
        if (!null_reps.empty()) {
          for (const FactRef& ref : affected) {
            for (const Value& v : target->facts(ref.rel)[ref.pos].args()) {
              if (null_reps.count(v) != 0) reverse[v].push_back(ref);
            }
          }
        }
      }
    }
  }
}

Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseOptions& options) {
  TDX_TRACE_SPAN("snapshot.run");
  ResourceGuard guard(options.limits);
  ChaseOutcome outcome(Instance(&source.schema()));
  // Consult the mapping's termination certificate (or derive one) before
  // doing any work: an uncertified set of target tgds may chase forever.
  outcome.stats.certificate =
      mapping.certificate.has_value()
          ? *mapping.certificate
          : CertifyTermination(mapping.target_tgds, source.schema());
  if (!outcome.stats.certificate->guarantees_termination()) {
    return Status::InvalidArgument(
        "refusing to chase: target tgds are not weakly acyclic (cycle " +
        outcome.stats.certificate->witness + "); the chase might not "
        "terminate");
  }
  const auto aborted = [&]() {
    outcome.kind = ChaseResultKind::kAborted;
    outcome.abort_dimension = guard.dimension();
    outcome.abort_reason = guard.reason();
    return outcome;
  };
  const FreshNullFactory fresh = [universe](const Tgd&, const Binding&) {
    return universe->FreshNull();
  };

  const ChaseRunPlan plan =
      PlanChaseRun(mapping, source.schema(), options.scheduled,
                   options.semi_naive, options.jobs);
  outcome.stats.schedule_strata = plan.strata;

  DeltaFrontier frontier;
  std::size_t rounds = 0;
  ChaseRunScope run_metrics("snapshot", &outcome.stats, &rounds,
                            &outcome.kind);

  if (guard.tripped() || !guard.PokeFault("chase/tgd-phase")) {
    return aborted();
  }
  {
    TDX_TRACE_SPAN("snapshot.st_tgd");
    TgdPhase(source, &outcome.target, mapping.st_tgds, plan.st, fresh,
             &outcome.stats, &guard);
  }
  if (guard.tripped()) return aborted();

  // Interleave target-tgd rounds and egd steps to a joint fixpoint. Weak
  // acyclicity (ValidateMapping) bounds the number of fresh nulls, so this
  // terminates; the round cap is a defensive backstop for unvalidated input.
  //
  // Semi-naive execution keeps ONE finder alive across every round; its
  // indexes absorb inserts incrementally and rebuild after egd rewrites
  // (generation check). The frontier resets whenever the egd fixpoint
  // rewrote anything, since rewritten facts can seed triggers the frontier
  // would otherwise never revisit.
  HomomorphismFinder finder(outcome.target, &outcome.stats.search);
  const auto run_round = [&]() {
    TDX_TRACE_SPAN("snapshot.tgd_round");
    return TargetTgdRound(&outcome.target, mapping.target_tgds, plan.target,
                          fresh, &outcome.stats, &guard, &frontier, &finder);
  };
  while (true) {
    bool fired = false;
    while (run_round()) {
      fired = true;
      if (guard.tripped()) return aborted();
      if (++rounds > 100000) {
        return Status::Internal(
            "target-tgd chase exceeded its iteration budget; are the "
            "target tgds weakly acyclic?");
      }
    }
    if (guard.tripped()) return aborted();
    const std::size_t egd_before = outcome.stats.egd_steps;
    if (!plan.egd_pass_live) {
      // Count the skip only when there was a pass to skip at all.
      outcome.kind = ChaseResultKind::kSuccess;
      if (!mapping.egds.empty()) ++outcome.stats.skipped_egd_passes;
    } else {
      TDX_TRACE_SPAN("snapshot.egd_fixpoint");
      outcome.kind = EgdFixpoint(&outcome.target, plan.egds, &outcome.stats,
                                 &outcome.failure_reason, &guard);
    }
    if (outcome.kind == ChaseResultKind::kFailure) return outcome;
    if (outcome.kind == ChaseResultKind::kAborted) return aborted();
    if (!fired && outcome.stats.egd_steps == egd_before) break;
    if (outcome.stats.egd_steps != egd_before) frontier.Reset();
    if (++rounds > 100000) {
      return Status::Internal(
          "chase exceeded its iteration budget; are the target tgds weakly "
          "acyclic?");
    }
  }
  return outcome;
}

Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseLimits& limits) {
  ChaseOptions options;
  options.limits = limits;
  return ChaseSnapshot(source, mapping, universe, options);
}

}  // namespace tdx
