// One normalization pass (Section 4.2's Algorithm 1), full or incremental.
//
// Across c-chase rounds, every normalize_target call after the first sees
// an instance that is the previous normalized output PLUS facts appended by
// tgd rounds since. NormalizeState runs Algorithm 1 as a single pass
// parameterized by a *watermark* describing that shape:
//
//  * The watermark remembers, per relation, how many facts the previous
//    output had (its prefix sizes), the output's component labels, and the
//    Instance generation it was recorded at. Insert only appends and does
//    not bump the generation, so "generation unchanged and columns only
//    grew" proves the old prefix IS the previous normalized output,
//    verbatim. Any generation bump (egd in-place rewrite, erase,
//    assignment) invalidates the watermark — the generation contract of
//    relational/instance.h is the whole invalidation rule.
//
//  * With no valid watermark every fact is delta, and the pass is the full
//    Algorithm 1: the homomorphism sweep enumerates each phi* over the whole
//    instance. The free Normalize (normalize.h) is this case. Fault site:
//    "normalize/algorithm1".
//
//  * With a watermark, the sweep is seeded only from the delta suffix
//    (ForEachSeeded per atom over [mark, size)), finding exactly the homs
//    that touch at least one new fact. Old facts pulled into a group are
//    expanded transitively (all homs through them, again via single-fact
//    seeds), so every connected component containing a delta fact is
//    discovered in full. Fault site: "normalize/incremental".
//
//  * Components without any delta fact are provably already normalized: the
//    old prefix has the empty intersection property, so an all-old hom with
//    a nonempty intersection has all-equal intervals, such components carry
//    one shared interval, and fragmenting them is the identity. Their facts
//    pass through unchanged, exactly like ungrouped facts; the one emission
//    loop fragments the dirty components' facts at their cut points. The
//    output is therefore bit-identical to a full pass.
//
// The output is installed in place (move-assigned into the instance's fact
// store) and the watermark re-recorded, keeping ONE persistent state alive
// across the whole chase loop.

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
  /// the normalized output. Runs the incremental pass when the watermark
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
  /// binding, same generation — i.e. the old-prefix proof still holds);
  /// nullopt otherwise. Checkpoints taken after an egd rewrite therefore
  /// carry no watermark and resume with a full pass, exactly like the
  /// uninterrupted run.
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

  /// One pass over `in` into the empty `*out`: incremental when the
  /// watermark matches `in`, full otherwise. Fills `*stats` (non-null) and
  /// the output's labels for Record. Returns false when `in` must be kept
  /// as is: nothing was appended since the watermark, or the guard tripped
  /// before emission (the state is then invalidated).
  bool Pass(const ConcreteInstance& in, const std::vector<Conjunction>& phis,
            NormalizeStats* stats, ResourceGuard* guard, Instance* out);
  /// Records `instance` (the last pass's output, just installed) as the new
  /// watermark.
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
