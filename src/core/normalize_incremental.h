// One normalization pass (Section 4.2's Algorithm 1), full or incremental.
//
// Across c-chase rounds, every normalize_target call after the first sees
// an instance that is the previous normalized output PLUS facts appended by
// tgd rounds since, some of its old facts perhaps rewritten in place by egd
// merges. NormalizeState runs Algorithm 1 as a single pass
// parameterized by a *watermark* describing that shape:
//
//  * The watermark remembers, per relation, how many facts the previous
//    output had (its prefix sizes), the output's component labels, and the
//    Instance generation it was recorded at. Insert only appends and does
//    not bump the generation, so "generation unchanged and columns only
//    grew" proves the old prefix IS the previous normalized output,
//    verbatim. Any other generation bump (erase, assignment, an egd
//    rewrite nobody reported) invalidates the watermark — the generation
//    contract of relational/instance.h is the invalidation rule.
//
//  * An egd merge that rewrote facts in place without moving any
//    (EgdRewriteLog::stable, relational/chase.h) keeps the watermark:
//    NoteRewrite rebinds it to the post-rewrite generation and queues the
//    rewritten old rows as extra seeds. A rewrite changes data values,
//    never intervals, so every hom made only of unrewritten old facts
//    existed in the previous output; the homs through a rewritten row are
//    found by seeding from it, exactly as for an appended fact.
//
//  * With no valid watermark every fact is delta, and the pass is the full
//    Algorithm 1: the homomorphism sweep enumerates each phi* over the whole
//    instance. The free Normalize (normalize.h) is this case. Fault site:
//    "normalize/algorithm1".
//
//  * With a watermark, the sweep is seeded only from the delta suffix
//    (ForEachSeeded per atom over [mark, size)) and from rewritten rows,
//    finding exactly the homs that touch at least one new or rewritten
//    fact. Old facts pulled into a group are expanded transitively (all
//    homs through them, again via single-fact seeds), so every connected
//    component containing such a fact is discovered in full. Fault site:
//    "normalize/incremental".
//
//  * Components without any delta or rewritten fact are provably already
//    normalized: the old prefix has the empty intersection property, so an
//    all-old hom with a nonempty intersection has all-equal intervals, such
//    components carry one shared interval, and fragmenting them is the
//    identity. Their facts pass through unchanged, exactly like ungrouped
//    facts; the one emission loop fragments the dirty components' facts at
//    their cut points. The output is therefore bit-identical to a full
//    pass.
//
// When no grouped fact has a cut strictly inside its interval, the output
// equals the input and the pass installs nothing: the instance is left as
// it is (its generation does not bump, so indexes over it stay warm) and
// only the watermark is re-recorded. Otherwise the output is move-assigned
// into the instance's fact store. Either way ONE persistent state stays
// alive across the whole chase loop.

#ifndef TDX_CORE_NORMALIZE_INCREMENTAL_H_
#define TDX_CORE_NORMALIZE_INCREMENTAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/core/normalize.h"
#include "src/core/normalize_detail.h"
#include "src/relational/homomorphism.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// Persistent normalization state for one chase target. Not thread-safe.
class NormalizeState {
 public:
  /// Normalizes `*instance` w.r.t. `phis`, replacing its fact store with
  /// the normalized output, or leaving it untouched (generation included)
  /// when no fact needs cutting. Runs the incremental pass when the watermark
  /// matches `*instance`, the full pass otherwise. Guard contract as in
  /// normalize.h: on a trip the instance holds its input or a partially
  /// normalized result (garbage), stats->partial is set, and the state
  /// invalidates itself.
  void Normalize(ConcreteInstance* instance,
                 const std::vector<Conjunction>& phis,
                 NormalizeStats* stats = nullptr,
                 ResourceGuard* guard = nullptr);

  /// Drops the watermark; the next pass is a full one. Idempotent.
  void Invalidate();

  /// Carries the watermark across an in-place egd rewrite of `instance`.
  /// `rows` must name every fact the rewrite changed, at positions that did
  /// not move (a stable EgdRewriteLog), and the watermark must have matched
  /// `instance` immediately before the rewrite. Rebinds the watermark to
  /// the post-rewrite generation and queues the rewritten old rows as seeds
  /// of the next pass.
  void NoteRewrite(const ConcreteInstance& instance,
                   const std::vector<FactRef>& rows);

  /// True when the next Normalize of `instance` would take the incremental
  /// path (watermark bound to it, generation unchanged, columns only grew).
  bool MatchesWatermark(const ConcreteInstance& instance) const;

  /// Serializable image of the watermark for checkpointing. `labels` is the
  /// per-relation component labels flattened in relation order; sum(marks)
  /// == labels.size().
  struct Watermark {
    std::vector<std::uint32_t> marks;
    std::vector<std::uint32_t> labels;
    std::uint32_t num_components = 0;
  };

  /// Exports the watermark when it is currently valid for `facts` (same
  /// binding, same generation — i.e. the old-prefix proof still holds) and
  /// no rewritten rows are pending; nullopt otherwise. The checkpoint format
  /// has no room for pending rows, so a checkpoint taken between an egd
  /// rewrite and the next pass carries no watermark and resumes with a full
  /// pass, whose output is identical to the uninterrupted run's
  /// rewrite-seeded pass.
  std::optional<Watermark> Export(const Instance* facts) const;

  /// Rebinds a checkpointed watermark to a freshly deserialized instance.
  /// Validates shape (marks within column sizes, labels parallel to marks,
  /// label values dense); InvalidArgument on a torn checkpoint.
  Status Restore(const Watermark& wm, const ConcreteInstance& instance);

 private:
  /// Component label of a fact that belongs to no component.
  static constexpr std::uint32_t kUngrouped = 0xFFFFFFFFu;

  friend ConcreteInstance tdx::Normalize(const ConcreteInstance& instance,
                                         const std::vector<Conjunction>& phis,
                                         NormalizeStats* stats,
                                         ResourceGuard* guard);

  enum class PassResult {
    /// `*out` holds the output; the labels are filled for Record.
    kRebuilt,
    /// The output equals `in` (no fact was cut), `*out` is untouched; the
    /// labels are filled for Record.
    kUnchanged,
    /// Nothing to record: `in` is untouched since the watermark, or the
    /// guard tripped before emission (the state is then invalidated).
    kKept,
  };
  /// One pass over `in` into the empty `*out`: incremental when the
  /// watermark matches `in`, full otherwise. Fills `*stats` (non-null).
  PassResult Pass(const ConcreteInstance& in,
                  const std::vector<Conjunction>& phis, NormalizeStats* stats,
                  ResourceGuard* guard, Instance* out);
  /// Records `instance` (the last pass's output, now in place) as the new
  /// watermark and drops the pending rewritten rows.
  void Record(const ConcreteInstance& instance);
  /// Mark of relation `r` (0 when the schema grew past the watermark).
  std::uint32_t MarkOf(std::size_t r) const {
    return r < marks_.size() ? marks_[r] : 0;
  }

  // ---- watermark -----------------------------------------------------
  bool valid_ = false;
  const Instance* bound_ = nullptr;
  std::uint64_t generation_ = 0;
  std::vector<std::uint32_t> marks_;
  /// Per-relation component labels of the previous output (positions
  /// [0, marks_[r])); kUngrouped for facts in no component.
  std::vector<std::vector<std::uint32_t>> comp_of_;
  std::uint32_t num_components_ = 0;
  /// Old rows rewritten in place since the watermark was recorded (see
  /// NoteRewrite); the next pass seeds from them.
  std::vector<FactRef> rewritten_;

  // ---- reusable machinery --------------------------------------------
  normalize_detail::UnionFind uf_;
  std::vector<char> grouped_;
  std::vector<char> enqueued_;
  std::vector<std::size_t> queue_;
  std::vector<std::size_t> base_;
  /// The last pass's output labels in emission order, and its component
  /// count.
  std::vector<std::uint32_t> flat_labels_;
  std::uint32_t flat_components_ = 0;
};

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_INCREMENTAL_H_
