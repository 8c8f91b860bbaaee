// The classical chase of Fagin, Kolaitis, Miller, and Popa ("Data exchange:
// semantics and query answering", TCS 2005) restricted to s-t tgds and egds.
//
// This is the per-snapshot building block of the paper's *abstract* chase
// (Section 3): chase(Ia, M) = <chase(db0, M), chase(db1, M), ...>. Because
// only s-t tgds and egds are allowed, every chase sequence is finite.
//
// The chase has two phases:
//   1. s-t tgd steps: for every homomorphism h from a tgd body to the
//      source with no extension h' from body & head to (I, J), fire — add
//      the head facts with a fresh labeled null per existential variable.
//   2. egd steps to fixpoint: for every homomorphism from an egd body to J
//      with h(x1) != h(x2): if both are non-nulls, the chase FAILS (no
//      solution exists, Proposition 4(2)); otherwise a null is replaced
//      everywhere by the other value.
//
// Chase failure is an outcome, not a Status error.

#ifndef TDX_RELATIONAL_CHASE_H_
#define TDX_RELATIONAL_CHASE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/relational/dependency.h"
#include "src/relational/homomorphism.h"
#include "src/relational/instance.h"

namespace tdx {

enum class ChaseResultKind {
  kSuccess,  ///< target is a universal solution
  kFailure,  ///< an egd equated two distinct non-null values: no solution
  kAborted,  ///< a ChaseLimits budget was exhausted; target is PARTIAL
};

struct ChaseStats {
  std::size_t tgd_triggers = 0;  ///< body homomorphisms found
  std::size_t tgd_fires = 0;     ///< triggers that actually fired
  std::size_t egd_steps = 0;     ///< successful egd applications
  std::size_t fresh_nulls = 0;   ///< labeled nulls created
  /// Argument slots rewritten by egd merges ("replaced everywhere",
  /// Definition 16) — a measure of how much substitution work the egd
  /// fixpoint did beyond the merge decisions themselves.
  std::size_t values_rewritten = 0;
  /// Egd-fixpoint invocations skipped because the schedule proved every
  /// pass a no-op (every egd dead or effect-free). Counted only when the
  /// mapping has egds at all.
  std::size_t skipped_egd_passes = 0;
  /// C-chase only: loop-top re-normalization passes skipped because
  /// nothing changed since the last normalization.
  std::size_t skipped_normalize_passes = 0;
  /// Stratum count of the schedule the run consulted; 0 when the run was
  /// unscheduled (ChaseOptions::scheduled == false).
  std::size_t schedule_strata = 0;
  /// Homomorphism-engine index counters (probes answered by a mask index,
  /// candidates those probes returned, full relation scans). Deterministic
  /// for a given program and engine configuration — independent of job
  /// count, since parallel collection probes the same round-start state.
  IndexStats search;
  /// The termination certificate the run consulted: taken from
  /// Mapping::certificate when the parser filled it in, otherwise derived
  /// on entry. Runs whose certificate is kUnknown are refused upfront.
  std::optional<TerminationCertificate> certificate;
};

/// Execution knobs for the snapshot chase (the c-chase mirrors them in
/// CChaseOptions).
struct ChaseOptions {
  ChaseLimits limits;
  /// Delta-driven (semi-naive) target-tgd rounds: each round enumerates only
  /// the triggers whose body image touches at least one fact inserted since
  /// the frontier last advanced, instead of re-joining the entire target.
  /// Both modes produce identical outcomes — a trigger over wholly-old facts
  /// was already enumerated the round its newest fact arrived, and fired or
  /// found witnessed then — so the naive mode survives purely as the
  /// correctness oracle (tests/seminaive_chase_test.cc pins the equivalence).
  bool semi_naive = true;
  /// Consume the mapping's ChaseSchedule (deriving one when absent): skip
  /// dead rules, skip provably no-op egd-fixpoint passes, and collect the
  /// triggers of non-interfering tgds together (in parallel under `jobs`).
  /// Scheduled and unscheduled runs produce bit-identical outcomes — the
  /// schedule only removes work the graph proves is a no-op; rule firing
  /// order never changes. Off = the trivial plan (see TgdRunPlan), kept as
  /// the oracle.
  bool scheduled = true;
  /// Worker threads for trigger collection within a provably
  /// non-interfering parallel group (ChaseSchedule::parallel_groups); 1 =
  /// fully sequential. Firing stays sequential in the plan's fixed order
  /// regardless, so results are deterministic and jobs-independent.
  unsigned jobs = 1;
};

struct ChaseOutcome {
  explicit ChaseOutcome(Instance target_in) : target(std::move(target_in)) {}

  ChaseResultKind kind = ChaseResultKind::kSuccess;
  /// The chase target. A universal solution iff kind == kSuccess; on
  /// kAborted it holds whatever was materialized before the budget ran out
  /// (useful for diagnosis, NEVER a solution).
  Instance target;
  ChaseStats stats;
  /// Human-readable explanation when kind == kFailure.
  std::string failure_reason;
  /// The exhausted budget dimension and its description when kAborted.
  ResourceDimension abort_dimension = ResourceDimension::kNone;
  std::string abort_reason;
};

/// Runs the chase of `source` with `mapping`, materializing a target
/// instance over the same Schema. Fresh labeled nulls come from `universe`.
/// `limits` bounds the run; the default is unlimited. A run that exhausts
/// its budget returns kAborted with partial stats — rerunning with a larger
/// budget from the same source reproduces the identical solution
/// (determinism is unaffected by where the budget cut the previous run).
///
/// Deterministic: tgds fire in a fixed order (s-t tgds full-first, see
/// TgdPhase; target tgds in declaration order) with triggers in canonical
/// order; egds in declaration order. The result of a successful chase is a
/// universal solution (Fagin et al., Theorem 3.3).
Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseLimits& limits = {});

/// Same, with execution knobs (semi-naive vs naive rounds).
Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseOptions& options);

// ---------------------------------------------------------------------------
// Building blocks, shared with the concrete chase (core/cchase.h), which
// differs only in how fresh nulls are minted (interval-annotated with h(t))
// and in the normalization steps between phases.
//
// Both engines run one tgd path. A TgdRunPlan lists the rules to run as
// consecutive groups whose trigger collections commute: each group collects
// the triggers of all its members (concurrently under `jobs`) over the
// instance as it stands, then fires the members in group order. The
// engine variants are parameters of that one path: an unscheduled run is the
// plan of singleton groups with nothing dead, and a naive round is a round
// whose frontier covers the whole instance and whose tgds each get a cold
// finder. Firing is ALWAYS sequential in an order fixed by the mapping alone
// (the s-t phase full tgds first, target rounds declaration order), which
// keeps fresh-null identities and therefore the whole outcome bit-identical
// across schedules and job counts.
// ---------------------------------------------------------------------------

/// Mints the value substituted for an existential variable when `tgd` fires
/// with `trigger`. The snapshot chase returns a fresh labeled null; the
/// concrete chase returns a fresh null annotated with trigger(t).
using FreshNullFactory =
    std::function<Value(const Tgd& tgd, const Binding& trigger)>;

/// The facts an EgdFixpoint run rewrote, as positions in the final
/// instance. A rewrite changes data values only, never a fact's interval.
struct EgdRewriteLog {
  /// Distinct rewritten facts in (relation, position) order. Complete only
  /// while `stable`.
  std::vector<FactRef> rows;
  /// False once any merge shifted or rebuilt fact positions (a heavy
  /// rebuild, or an in-place rewrite that compacted colliding facts);
  /// `rows` then no longer names the changed facts.
  bool stable = true;
};

/// Phase 2: applies egd steps on `target` until fixpoint. Returns kFailure
/// (and fills `failure_reason`) when an egd equates two distinct non-null
/// values, kAborted when `guard` trips (budget, deadline, or the armed
/// fault point "chase/egd-fixpoint"). Handles labeled and
/// interval-annotated nulls uniformly.
///
/// Merges are applied through an in-place substitution over only the facts
/// that mention a merged value (found via a reverse value->fact index kept
/// across passes), falling back to a full instance rebuild when a pass
/// touches more than half the facts. Slots rewritten either way accrue to
/// ChaseStats::values_rewritten.
///
/// When `log` is non-null it is reset on entry and records which facts the
/// run changed, for callers that keep position-based state across it (the
/// incremental normalizer, core/normalize_incremental.h).
ChaseResultKind EgdFixpoint(Instance* target, const std::vector<Egd>& egds,
                            ChaseStats* stats, std::string* failure_reason,
                            ResourceGuard* guard,
                            EgdRewriteLog* log = nullptr);

/// Per-relation delta frontier for semi-naive target-tgd rounds: facts of
/// relation r at positions >= mark(r) form the frontier (inserted since the
/// frontier last advanced). A fresh or Reset frontier covers every fact —
/// round 0 seeds semi-naive evaluation with the full instance; callers also
/// Reset after anything rewrites existing facts (egd merges, normalization),
/// since rewritten facts can participate in triggers the frontier would
/// otherwise skip.
class DeltaFrontier {
 public:
  DeltaFrontier() = default;

  /// True while the frontier covers the whole instance.
  bool full() const { return full_; }

  /// First frontier position of `rel` (0 while full or for relations that
  /// appeared after the last advance).
  std::uint32_t mark(RelationId rel) const {
    return rel < marks_.size() ? marks_[rel] : 0;
  }

  /// Re-seed with the full instance.
  void Reset() {
    full_ = true;
    marks_.clear();
  }

  /// Raw per-relation marks, for checkpointing. Meaningful when !full().
  const std::vector<std::uint32_t>& marks() const { return marks_; }

  /// Advances the frontier: facts of `rel` below `sizes[rel]` stop being
  /// frontier. Callers pass the per-relation sizes captured at round start,
  /// so everything a round inserts is the next round's frontier.
  void AdvanceTo(std::vector<std::uint32_t> sizes) {
    full_ = false;
    marks_ = std::move(sizes);
  }

 private:
  bool full_ = true;
  std::vector<std::uint32_t> marks_;
};

/// The runtime form of a ChaseSchedule for one tgd vector.
struct TgdRunPlan {
  /// Indices into the tgd vector. Target tgds: live rules in declaration
  /// order, partitioned into runs where no earlier member's head may feed a
  /// later member's body. S-t tgds: one group of every rule in fire order
  /// (see TgdPhase).
  std::vector<std::vector<std::size_t>> groups;
  /// Per tgd (all indices, dead included): its head-visible universal
  /// variables, precomputed once per run instead of once per round.
  std::vector<std::vector<VarId>> key_vars;
  /// Worker threads for group collection; <= 1 disables concurrency.
  unsigned jobs = 1;
  /// Delta-driven target rounds (ChaseOptions::semi_naive). Off, every
  /// round re-enumerates the whole instance through a cold finder per tgd:
  /// the oracle the persistent finder's incremental index is checked
  /// against. The s-t phase ignores it.
  bool semi_naive = true;
};

/// Phase 1: fires every s-t tgd trigger from `source` into `target`
/// (restricted chase: triggers whose head is already witnessed are skipped).
/// Every collection reads only the immutable source, so the plan's rules
/// run as one group, collected in full before the first fire. The group
/// fires full tgds (no existential variable) first, then by existential
/// count, declaration order breaking ties: a full tgd's head then witnesses
/// an existential trigger on the same source fragment, so the trigger mints
/// no null that an egd would merge away. A restricted chase yields a
/// universal solution in any fire order, so the order changes null ids and
/// the amount of egd work, never the solution up to homomorphic
/// equivalence. Charges `guard` per fire/null/fact and stops early once it
/// trips; the caller checks guard->tripped() to surface the abort.
void TgdPhase(const Instance& source, Instance* target,
              const std::vector<Tgd>& tgds, const TgdRunPlan& plan,
              const FreshNullFactory& fresh, ChaseStats* stats,
              ResourceGuard* guard);

/// One round of target-tgd firing over the plan's groups: collects the
/// triggers whose body image touches `frontier`, fires those without an
/// extension witness, advances `frontier` past the facts that existed at
/// round start, and returns true if anything was inserted. Callers loop
/// rounds to a fixpoint (guaranteed to exist for weakly acyclic target
/// tgds) and interleave with EgdFixpoint. `finder` is a persistent
/// HomomorphismFinder over `target` whose indexes catch up incrementally;
/// naive rounds (plan.semi_naive false) reset the frontier first and use a
/// cold finder per tgd instead.
bool TargetTgdRound(Instance* target, const std::vector<Tgd>& tgds,
                    const TgdRunPlan& plan, const FreshNullFactory& fresh,
                    ChaseStats* stats, ResourceGuard* guard,
                    DeltaFrontier* frontier, HomomorphismFinder* finder);

/// What a chase run derives from its mapping and execution options before
/// its first step. The schedule (the mapping's, or one derived on the spot)
/// steers only provably-no-op skips and parallel trigger collection; the
/// fire order, and with it every fresh-null id, is the unscheduled one, so
/// checkpoint config strings carry no scheduling fields. That fire order is
/// a function of the mapping alone: `st` fires full s-t tgds before
/// existential ones (see TgdPhase), `target` declaration order.
struct ChaseRunPlan {
  TgdRunPlan st;
  TgdRunPlan target;
  /// The egds the fixpoint consults: the live ones when scheduled, all of
  /// them otherwise.
  std::vector<Egd> egds;
  /// False when the schedule proves every egd-fixpoint pass a no-op (every
  /// egd dead or effect-free): such a pass would collect nothing and return
  /// success without touching the target.
  bool egd_pass_live = true;
  /// ChaseStats::schedule_strata: the schedule's stratum count, 0 when
  /// unscheduled.
  std::size_t strata = 0;
};

/// Resolves the run plan of `mapping` over `schema`. `scheduled` consults
/// (or derives) the mapping's ChaseSchedule; otherwise every rule runs.
ChaseRunPlan PlanChaseRun(const Mapping& mapping, const Schema& schema,
                          bool scheduled, bool semi_naive, unsigned jobs);

/// Publishes a run's stats deltas, round count and latency as
/// "<prefix>.*" metrics when the engine returns by any path — success,
/// chase failure, abort, or Status error. Published once per run, as bulk
/// deltas of the ChaseStats the engine maintains anyway, so the chase
/// interior pays nothing per trigger. `prefix` is "snapshot" or "cchase";
/// only the c-chase publishes skipped_normalize_passes. See
/// docs/INTERNALS.md ("Observability") for the name registry.
class ChaseRunScope {
 public:
  ChaseRunScope(std::string_view prefix, const ChaseStats* stats,
                const std::size_t* rounds, const ChaseResultKind* kind);
  ~ChaseRunScope();
  ChaseRunScope(const ChaseRunScope&) = delete;
  ChaseRunScope& operator=(const ChaseRunScope&) = delete;

 private:
  struct Metrics;
  /// The engine's metric handles, registered on its first run.
  static Metrics* MetricsFor(std::string_view prefix);

  Metrics* metrics_;
  const ChaseStats* stats_;
  const std::size_t* rounds_;
  const ChaseResultKind* kind_;
  ChaseStats entry_;
  std::size_t entry_rounds_;
  obs::ScopedLatency latency_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_CHASE_H_
