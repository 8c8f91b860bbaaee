#include "src/core/normalize.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/normalize_detail.h"
#include "src/core/normalize_incremental.h"

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

ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats, ResourceGuard* guard) {
  NormalizeStats scratch;
  NormalizeState state;
  ConcreteInstance out(&instance.schema());
  if (state.Pass(instance, phis, stats != nullptr ? stats : &scratch, guard,
                 &out.mutable_facts()) ==
      NormalizeState::PassResult::kUnchanged) {
    return instance;
  }
  return out;
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
