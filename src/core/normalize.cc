#include "src/core/normalize.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/normalize_detail.h"
#include "src/core/normalize_incremental.h"
#include "src/obs/metrics.h"

namespace tdx {

using normalize_detail::IntersectIntervals;

Conjunction RenameTemporalApart(const Conjunction& phi) {
  Conjunction out = phi;
  VarId next = static_cast<VarId>(out.num_vars);
  for (Atom& atom : out.atoms) {
    assert(!atom.terms.empty());
    atom.terms.back() = Term::Var(next++);
  }
  out.num_vars = next;
  out.var_names.resize(next);
  for (std::size_t i = phi.num_vars; i < next; ++i) {
    std::string name = "t";
    name += std::to_string(i - phi.num_vars + 1);
    out.var_names[i] = std::move(name);
  }
  return out;
}

ConcreteInstance NaiveNormalize(const ConcreteInstance& instance,
                                NormalizeStats* stats, ResourceGuard* guard) {
  const std::vector<TimePoint> cuts = instance.Endpoints();
  ConcreteInstance out(&instance.schema());
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault("normalize/naive");
  }
  std::vector<Interval> subs;
  instance.facts().ForEach([&](FactView fact) {
    if (guard != nullptr && (guard->tripped() || !guard->CheckDeadline())) {
      return;
    }
    subs.clear();
    AppendFragments(fact.interval(), cuts, &subs);
    for (const Interval& sub : subs) {
      if (guard != nullptr && !guard->ChargeFragment()) return;
      out.mutable_facts().Insert(fact.WithInterval(sub));
    }
  });
  if (stats != nullptr) {
    stats->input_facts = instance.size();
    stats->output_facts = out.size();
    stats->homomorphisms = 0;
    stats->groups = 0;
    stats->delta_facts = instance.size();
    stats->dirty_components = 0;
    stats->reused_components = 0;
    stats->partial = guard != nullptr && guard->tripped();
  }
  return out;
}

namespace normalize_detail {
namespace {

/// One fact in the sweep of an atom pair: the hash of its values at the
/// shared variables' positions, its interval, and the atoms (bit 0: i,
/// bit 1: j) it is a candidate image of.
struct SweepEntry {
  std::size_t key;
  TimePoint start;
  TimePoint end;
  std::uint8_t atoms;
};

std::size_t KeyHash(FactView fact, const std::vector<std::size_t>& positions) {
  std::size_t h = 0;
  for (const std::size_t p : positions) {
    h ^= fact.arg(p).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// False when two entries with equal keys, one a candidate image of atom
/// i and the other of atom j, carry overlapping but unequal intervals.
bool SweepIsClean(std::vector<SweepEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const SweepEntry& a, const SweepEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });
  const std::vector<SweepEntry>& sorted = *entries;
  // Per atom, the latest end among the bucket's entries that start before
  // the current group of entries sharing one start.
  TimePoint max_end[2] = {0, 0};
  for (std::size_t group = 0; group < sorted.size();) {
    const SweepEntry& head = sorted[group];
    if (group == 0 || sorted[group - 1].key != head.key) {
      max_end[0] = max_end[1] = 0;  // a new bucket
    }
    std::size_t next = group;
    std::uint8_t atoms = 0;
    bool one_end = true;
    for (; next < sorted.size() && sorted[next].key == head.key &&
           sorted[next].start == head.start;
         ++next) {
      atoms |= sorted[next].atoms;
      one_end = one_end && sorted[next].end == head.end;
    }
    // An earlier entry of the other atom that is still open overlaps the
    // group and starts before it.
    if (((atoms & 1) != 0 && max_end[1] > head.start) ||
        ((atoms & 2) != 0 && max_end[0] > head.start)) {
      return false;
    }
    // Entries sharing a start overlap; they differ iff their ends do.
    if (atoms == 3 && !one_end) return false;
    for (; group < next; ++group) {
      for (int atom = 0; atom < 2; ++atom) {
        if (((sorted[group].atoms >> atom) & 1) != 0) {
          max_end[atom] = std::max(max_end[atom], sorted[group].end);
        }
      }
    }
  }
  return true;
}

}  // namespace

bool CertifyNormalized(const ConcreteInstance& instance,
                       const std::vector<Conjunction>& phis) {
  const Instance& facts = instance.facts();
  std::vector<std::size_t> keys[2];
  std::vector<SweepEntry> entries;
  for (const Conjunction& phi : phis) {
    const Conjunction star = RenameTemporalApart(phi);
    for (std::size_t i = 0; i < star.atoms.size(); ++i) {
      for (std::size_t j = i + 1; j < star.atoms.size(); ++j) {
        const Atom* atom[2] = {&star.atoms[i], &star.atoms[j]};
        // Every hom maps a variable the two atoms share to one value, so
        // its two image facts agree at each such pair of positions. The
        // last position is phi*'s per-atom temporal variable.
        keys[0].clear();
        keys[1].clear();
        for (std::size_t p = 0; p + 1 < atom[0]->terms.size(); ++p) {
          const Term& a = atom[0]->terms[p];
          if (!a.is_var()) continue;
          for (std::size_t q = 0; q + 1 < atom[1]->terms.size(); ++q) {
            const Term& b = atom[1]->terms[q];
            if (b.is_var() && b.var() == a.var()) {
              keys[0].push_back(p);
              keys[1].push_back(q);
            }
          }
        }
        // A self-join on the same positions sees each fact once, as a
        // candidate image of both atoms.
        const bool same = atom[0]->rel == atom[1]->rel && keys[0] == keys[1];
        entries.clear();
        for (int side = 0; side < (same ? 1 : 2); ++side) {
          const std::uint8_t atoms =
              same ? 3 : static_cast<std::uint8_t>(1 << side);
          for (const FactView f : facts.facts(atom[side]->rel)) {
            const Interval& iv = f.interval();
            entries.push_back(
                {KeyHash(f, keys[side]), iv.start(), iv.end(), atoms});
          }
        }
        if (!SweepIsClean(&entries)) return false;
      }
    }
  }
  return true;
}

}  // namespace normalize_detail

namespace {

obs::Counter& CertifiedPasses() {
  static auto* counter = new obs::Counter("normalize.certified_passes");
  return *counter;
}

}  // namespace

std::optional<ConcreteInstance> NormalizeIfNeeded(
    const ConcreteInstance& instance, const std::vector<Conjunction>& phis,
    NormalizeStats* stats, ResourceGuard* guard) {
  NormalizeStats scratch;
  if (stats == nullptr) stats = &scratch;
  if (!normalize_detail::CertifyNormalized(instance, phis)) {
    NormalizeState state;
    ConcreteInstance out(&instance.schema());
    if (state.Pass(instance, phis, stats, guard, &out.mutable_facts()) ==
        NormalizeState::PassResult::kUnchanged) {
      return std::nullopt;
    }
    return out;
  }
  CertifiedPasses().Inc();
  // The guard sees what the identity pass would have charged.
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault("normalize/algorithm1");
    if (guard->CheckDeadline()) {
      for (std::size_t i = 0; i < instance.size(); ++i) {
        if (!guard->ChargeFragment()) break;
      }
    }
  }
  *stats = NormalizeStats{};
  stats->input_facts = instance.size();
  stats->output_facts = instance.size();
  stats->delta_facts = instance.size();
  stats->partial = guard != nullptr && guard->tripped();
  return std::nullopt;
}

ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats, ResourceGuard* guard) {
  std::optional<ConcreteInstance> out =
      NormalizeIfNeeded(instance, phis, stats, guard);
  return out.has_value() ? std::move(*out) : instance;
}

bool HasEmptyIntersectionProperty(const ConcreteInstance& instance,
                                  const std::vector<Conjunction>& phis) {
  HomomorphismFinder finder(instance.facts());
  for (const Conjunction& phi : phis) {
    const Conjunction star = RenameTemporalApart(phi);
    bool ok = true;
    finder.ForEach(star, Binding(star.num_vars),
                   [&](const Binding&, const AtomImage& image) {
                     const std::optional<Interval> inter =
                         IntersectIntervals(image);
                     if (!inter.has_value()) return true;  // condition 1
                     // Condition 2: intersection == union, i.e. all image
                     // facts carry one identical interval.
                     for (FactView f : image) {
                       if (f.interval() != *inter) {
                         ok = false;
                         return false;
                       }
                     }
                     return true;
                   });
    if (!ok) return false;
  }
  return true;
}

}  // namespace tdx
