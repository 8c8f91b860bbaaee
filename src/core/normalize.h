// Normalization of concrete instances (Section 4.2).
//
// To chase a concrete instance, homomorphisms from dependency bodies — in
// which every atom shares one temporal variable t — must be able to map t
// to a single interval. A concrete instance is *normalized* w.r.t. a set of
// temporal conjunctions Phi+ (Definition 7) iff it has the *empty
// intersection property* (Definition 10, equivalent by Theorem 11): for
// every homomorphism from a phi* in N(Phi+) (phi with the temporal variable
// renamed apart per atom) to the instance, the time intervals of the image
// facts are either pairwise-equal or have empty intersection. Intervals
// then "behave as constants".
//
// Two normalizers, mirroring the paper's trade-off discussion:
//
//  * NaiveNormalize — ignores Phi+: fragments every fact at every distinct
//    endpoint of the whole instance. O(n log n) time, but possibly many
//    unnecessary fragments (Figure 6).
//
//  * Normalize (Algorithm 1, norm(Ic, Phi+)) — fragments only the facts
//    that co-occur in the image of some phi* with overlapping intervals,
//    merging overlapping groups first (implemented with union-find).
//    Polynomial for fixed Phi+, and the output never has more facts than
//    the naive normalizer's (Figure 5 vs Figure 6). It is the full pass of
//    NormalizeState (normalize_incremental.h), whose incremental pass the
//    c-chase uses across its target normalizations.
//
// Before that pass, Normalize tries to *certify* the instance normalized
// (normalize_detail::CertifyNormalized), a sufficient check of Def. 10 in
// O(n log n) per atom pair, in the endpoint-sweep style of period
// normalization: for every phi* and every pair of its atoms (i, j), the
// facts of R_i and R_j are bucketed by their values at the data variables
// the two atoms share, and each bucket is sorted by interval and swept for
// two facts, one per atom, whose intervals overlap but differ. If no bucket
// has such a pair, every hom image with a nonempty intersection has
// all-equal intervals (two of its facts with unequal overlapping intervals
// would be such a pair), so every component of Algorithm 1 shares one
// interval and the pass is the identity: the input is returned without a
// hom sweep. Ignoring constants, the other atoms and hash collisions only
// adds candidate pairs, so the check may decline a normalized instance
// (the pass then runs and returns it unchanged) but never certifies one
// that is not. A c-chase solution usually passes it, the source of a
// mapping whose tgds join facts with overlapping intervals usually not.
//
// NormalizeState passes keep the hom sweep even on a certifiable instance:
// their component labels feed the incremental watermark, the checkpoint
// format and the reused-component count, and the sweep alone cannot
// reproduce those labels.
//
// Both preserve the [[.]] semantics: fragments carry the original data
// values, and annotated nulls are re-annotated to each fragment's interval
// (fragments of one null still project onto the same null sequence).

#ifndef TDX_CORE_NORMALIZE_H_
#define TDX_CORE_NORMALIZE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/resource.h"
#include "src/relational/homomorphism.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

struct NormalizeStats {
  std::size_t input_facts = 0;
  std::size_t output_facts = 0;
  /// Homomorphisms from renamed-apart conjunctions found while building S.
  /// The incremental normalizer sweeps only delta-seeded homs, so this
  /// counts fewer enumerations than a full pass over the same instance.
  std::size_t homomorphisms = 0;
  /// Connected components of overlapping fact groups (the merged S of
  /// Algorithm 1). Always 0 for the naive normalizer.
  std::size_t groups = 0;
  /// Facts appended since the last pass. Full passes (and the naive
  /// normalizer) count every input fact here; old facts an egd rewrote in
  /// place are seeded too but not counted (see the
  /// normalize.incremental.rewrite_seeds metric).
  std::size_t delta_facts = 0;
  /// Components re-fragmented this pass. A full pass dirties every group.
  std::size_t dirty_components = 0;
  /// Components of the previous pass copied through untouched. Always 0 for
  /// full passes.
  std::size_t reused_components = 0;
  /// True when the guard tripped mid-pass and the output is partially
  /// normalized (garbage per the guard contract below).
  bool partial = false;
};

/// N(phi): renames the temporal position of every atom to a fresh variable,
/// yielding phi*. Precondition: every atom's relation is temporal (the
/// conjunction is a lifted lhs). The data variables keep their ids.
Conjunction RenameTemporalApart(const Conjunction& phi);

/// The naive endpoint normalizer (Section 4.2): fragments every fact at all
/// distinct endpoints occurring in the instance.
///
/// Both normalizers charge `guard` (when non-null) one unit per emitted
/// fragment and poll its deadline; a run whose guard trips stops early and
/// returns a PARTIALLY normalized instance — callers must check
/// guard->tripped() (mirrored in NormalizeStats::partial) and treat the
/// result as garbage. The fragment budget is per pass: the counter is reset
/// on entry. Fault sites: "normalize/naive" and "normalize/algorithm1"
/// (plus "normalize/incremental" in normalize_incremental.h).
ConcreteInstance NaiveNormalize(const ConcreteInstance& instance,
                                NormalizeStats* stats = nullptr,
                                ResourceGuard* guard = nullptr);

/// Algorithm 1, norm(Ic, Phi+), without the copy: nullopt when the output
/// equals `instance` (certified normalized, or no fact needed cutting),
/// the normalized instance otherwise. `phis` are temporal conjunctions — in
/// the chase they are the lifted lhs of the s-t tgds or of the egds. An
/// uncertified pass is the empty-watermark pass of NormalizeState
/// (normalize_incremental.h). A certified pass keeps the guard contract of
/// NaiveNormalize: it resets the fragment count, fires the
/// "normalize/algorithm1" site, polls the deadline and charges one
/// fragment per fact, as the identity pass would; its stats count no homs
/// and no groups. Counted by the normalize.certified_passes metric.
std::optional<ConcreteInstance> NormalizeIfNeeded(
    const ConcreteInstance& instance, const std::vector<Conjunction>& phis,
    NormalizeStats* stats = nullptr, ResourceGuard* guard = nullptr);

/// NormalizeIfNeeded, returning a copy of `instance` when no fact needs
/// cutting. See NaiveNormalize for the `guard` contract.
ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats = nullptr,
                           ResourceGuard* guard = nullptr);

/// Definition 10: checks the empty intersection property of `instance`
/// w.r.t. `phis` — by Theorem 11, equivalent to being normalized.
bool HasEmptyIntersectionProperty(const ConcreteInstance& instance,
                                  const std::vector<Conjunction>& phis);

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_H_
