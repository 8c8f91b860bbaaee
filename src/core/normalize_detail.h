// Internals shared by the normalization pass (normalize_incremental.h) and
// the empty-intersection-property checks (normalize.h).

#ifndef TDX_CORE_NORMALIZE_DETAIL_H_
#define TDX_CORE_NORMALIZE_DETAIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "src/common/interval.h"
#include "src/relational/homomorphism.h"
#include "src/temporal/concrete_instance.h"

namespace tdx::normalize_detail {

/// Intersection of the time intervals of an atom image, or nullopt when
/// empty. `image` must be non-empty.
inline std::optional<Interval> IntersectIntervals(const AtomImage& image) {
  std::optional<Interval> acc = image.front().interval();
  for (std::size_t i = 1; i < image.size() && acc.has_value(); ++i) {
    acc = acc->Intersect(image[i].interval());
  }
  return acc;
}

/// A sufficient check of the empty intersection property (Definition 10)
/// of `instance` w.r.t. `phis` by a sort-and-sweep per atom pair of each
/// phi*; see normalize.h for the argument. True means `instance` is
/// normalized and Algorithm 1 would return it unchanged; false means
/// nothing.
bool CertifyNormalized(const ConcreteInstance& instance,
                       const std::vector<Conjunction>& phis);

/// Union-find over dense fact indices, resettable so the incremental
/// normalizer can reuse its allocation across passes.
class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(std::size_t n) { Reset(n); }
  void Reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace tdx::normalize_detail

#endif  // TDX_CORE_NORMALIZE_DETAIL_H_
