#include "src/relational/homomorphism.h"

#include <algorithm>

namespace tdx {

std::string Conjunction::ToString(const Schema& schema,
                                  const Universe& u) const {
  std::string out;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += " & ";
    out += schema.relation(atoms[i].rel).name;
    out += "(";
    for (std::size_t j = 0; j < atoms[i].terms.size(); ++j) {
      if (j > 0) out += ", ";
      const Term& t = atoms[i].terms[j];
      if (t.is_var() && t.var() < var_names.size() &&
          !var_names[t.var()].empty()) {
        out += var_names[t.var()];
      } else if (t.is_var()) {
        out += '?';
        out += std::to_string(t.var());
      } else {
        out += u.Render(t.value());
      }
    }
    out += ")";
  }
  return out;
}

bool HomomorphismFinder::MatchAtom(const Atom& atom, FactView fact,
                                   Binding& binding,
                                   std::vector<VarId>& newly_bound) {
  if (fact.relation() != atom.rel || fact.arity() != atom.terms.size()) {
    return false;
  }
  const std::size_t first_new = newly_bound.size();
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = fact.arg(i);
    if (t.is_var()) {
      if (binding.IsBound(t.var())) {
        if (binding.Get(t.var()) != v) goto fail;
      } else {
        binding.Bind(t.var(), v);
        newly_bound.push_back(t.var());
      }
    } else if (t.value() != v) {
      goto fail;
    }
  }
  return true;
fail:
  for (std::size_t i = first_new; i < newly_bound.size(); ++i) {
    binding.Unbind(newly_bound[i]);
  }
  newly_bound.resize(first_new);
  return false;
}

bool HomomorphismFinder::Search(const Conjunction& conj, Scratch& scratch,
                                std::size_t depth, std::size_t remaining,
                                Binding& binding, const HomCallback& cb) {
  if (remaining == 0) return cb(binding, scratch.image);

  // Pick the undone atom with the most bound terms (most selective first);
  // among equally-bound atoms prefer the one whose relation has fewer facts
  // (cheap selectivity estimate).
  std::size_t best = conj.atoms.size();
  std::size_t best_bound = 0;
  std::size_t best_size = 0;
  for (std::size_t i = 0; i < conj.atoms.size(); ++i) {
    if (scratch.done[i] != 0) continue;
    std::size_t bound = 0;
    for (const Term& t : conj.atoms[i].terms) {
      if (!t.is_var() || binding.IsBound(t.var())) ++bound;
    }
    const std::size_t rel_size = instance_->facts(conj.atoms[i].rel).size();
    if (best == conj.atoms.size() || bound > best_bound ||
        (bound == best_bound && rel_size < best_size)) {
      best = i;
      best_bound = bound;
      best_size = rel_size;
    }
  }
  assert(best < conj.atoms.size());
  const Atom& atom = conj.atoms[best];

  // Probe key: the atom's bound positions and their values, into this
  // depth's reusable frame (frames are pre-sized to the atom count, so the
  // reference stays valid across the recursion below).
  assert(depth < scratch.frames.size());
  Frame& frame = scratch.frames[depth];
  frame.positions.clear();
  frame.values.clear();
  for (std::uint32_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      frame.positions.push_back(i);
      frame.values.push_back(t.value());
    } else if (binding.IsBound(t.var())) {
      frame.positions.push_back(i);
      frame.values.push_back(binding.Get(t.var()));
    }
  }

  const FactColumn rel_facts = instance_->facts(atom.rel);
  scratch.done[best] = 1;
  bool keep_going = true;

  auto try_fact = [&](FactView fact) {
    frame.newly_bound.clear();
    if (!MatchAtom(atom, fact, binding, frame.newly_bound)) return true;
    scratch.image[best] = fact;
    const bool cont =
        Search(conj, scratch, depth + 1, remaining - 1, binding, cb);
    for (VarId v : frame.newly_bound) binding.Unbind(v);
    return cont;
  };

  // Index probe on bound positions; an uncovered probe (nothing bound, or a
  // wide relation beyond the mask width) falls back to a full scan.
  CandidateRange candidates;
  if (!frame.positions.empty()) {
    candidates = cache_.Probe(atom.rel, frame.positions.data(),
                              frame.values.data(), frame.positions.size());
  }
  if (candidates.covered) {
    ++stats_->index_probes;
    stats_->index_candidates += candidates.size();
    for (std::uint32_t idx : candidates) {
      if (!try_fact(rel_facts[idx])) {
        keep_going = false;
        break;
      }
    }
  } else {
    ++stats_->full_scans;
    for (std::size_t i = 0; i < rel_facts.size(); ++i) {
      if (!try_fact(rel_facts[i])) {
        keep_going = false;
        break;
      }
    }
  }
  scratch.done[best] = 0;
  return keep_going;
}

bool HomomorphismFinder::ForEach(const Conjunction& conj, Binding* initial,
                                 const HomCallback& cb) {
  assert(initial->size() >= conj.num_vars);
  if (conj.atoms.empty()) {
    const AtomImage empty_image;
    return cb(*initial, empty_image);
  }
  ScratchLease scratch(this);
  scratch->done.assign(conj.atoms.size(), 0);
  scratch->image.assign(conj.atoms.size(), FactView());
  if (scratch->frames.size() < conj.atoms.size()) {
    scratch->frames.resize(conj.atoms.size());
  }
  return Search(conj, *scratch, 0, conj.atoms.size(), *initial, cb);
}

bool HomomorphismFinder::ForEachSeeded(const Conjunction& conj,
                                       std::size_t seed_atom,
                                       std::uint32_t seed_begin,
                                       std::uint32_t seed_end,
                                       Binding* initial, const HomCallback& cb) {
  assert(initial->size() >= conj.num_vars);
  assert(seed_atom < conj.atoms.size());
  const Atom& atom = conj.atoms[seed_atom];
  const FactColumn rel_facts = instance_->facts(atom.rel);
  assert(seed_end <= rel_facts.size());
  ScratchLease scratch(this);
  scratch->done.assign(conj.atoms.size(), 0);
  scratch->image.assign(conj.atoms.size(), FactView());
  // Frame slot 0 serves the seed loop; recursion starts at depth 1.
  if (scratch->frames.size() < conj.atoms.size() + 1) {
    scratch->frames.resize(conj.atoms.size() + 1);
  }
  scratch->done[seed_atom] = 1;
  std::vector<VarId>& newly_bound = scratch->frames[0].newly_bound;
  for (std::uint32_t i = seed_begin; i < seed_end; ++i) {
    newly_bound.clear();
    if (!MatchAtom(atom, rel_facts[i], *initial, newly_bound)) continue;
    scratch->image[seed_atom] = rel_facts[i];
    const bool cont =
        Search(conj, *scratch, 1, conj.atoms.size() - 1, *initial, cb);
    for (VarId v : newly_bound) initial->Unbind(v);
    if (!cont) return false;
  }
  return true;
}

bool HomomorphismFinder::Exists(const Conjunction& conj, Binding* initial) {
  bool found = false;
  ForEach(conj, initial, [&](const Binding&, const AtomImage&) {
    found = true;
    return false;  // stop at the first one
  });
  return found;
}

std::optional<Binding> HomomorphismFinder::FindFirst(const Conjunction& conj,
                                                     Binding initial) {
  std::optional<Binding> result;
  ForEach(conj, &initial, [&](const Binding& binding, const AtomImage&) {
    result = binding;
    return false;
  });
  return result;
}

}  // namespace tdx
