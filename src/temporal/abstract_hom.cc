#include "src/temporal/abstract_hom.h"

#include <unordered_map>
#include <unordered_set>

#include "src/relational/homomorphism.h"

namespace tdx {

namespace {

/// Per-piece symbolic conjunction: which variable stands for which null.
struct PieceProblem {
  Conjunction conj;
  /// Local var -> the labeled null id it stands for (only for labeled nulls
  /// of the domain; annotated nulls are piece-local and unconstrained).
  std::vector<std::pair<VarId, NullId>> labeled_vars;
};

PieceProblem BuildPieceProblem(const Instance& snapshot) {
  PieceProblem problem;
  std::unordered_map<Value, VarId, ValueHash> var_of;
  snapshot.ForEach([&](FactView fact) {
    Atom atom;
    atom.rel = fact.relation();
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) {
        auto [it, inserted] = var_of.emplace(
            v, static_cast<VarId>(var_of.size()));
        if (inserted && v.is_null()) {
          problem.labeled_vars.emplace_back(it->second, v.null_id());
        }
        atom.terms.push_back(Term::Var(it->second));
      } else {
        atom.terms.push_back(Term::Val(v));
      }
    }
    problem.conj.atoms.push_back(std::move(atom));
  });
  problem.conj.num_vars = var_of.size();
  return problem;
}

class AbstractHomSearch {
 public:
  AbstractHomSearch(const AbstractInstance& from, const AbstractInstance& to)
      : from_(&from), to_(&to) {
    // A labeled null may take an annotated (projected) image only when it
    // occupies a single snapshot: exactly one piece, of span length 1.
    std::unordered_map<NullId, std::pair<std::size_t, std::size_t>>
        occurrence;  // null -> (#pieces it occurs in, index of last one)
    for (std::size_t i = 0; i < from.pieces().size(); ++i) {
      std::unordered_set<NullId> here;
      from.pieces()[i].snapshot.ForEach([&](FactView fact) {
        for (const Value& v : fact.args()) {
          if (v.is_null()) here.insert(v.null_id());
        }
      });
      for (NullId n : here) {
        auto [it, inserted] = occurrence.emplace(n, std::make_pair(1u, i));
        if (!inserted) {
          ++it->second.first;
          it->second.second = i;
        }
      }
    }
    for (const auto& [n, occ] : occurrence) {
      const auto& [count, piece] = occ;
      const auto len = from.pieces()[piece].span.length();
      if (count == 1 && len.has_value() && *len == 1) {
        single_snapshot_nulls_.insert(n);
      }
    }
  }

  bool Run() { return SearchPiece(0); }

 private:
  bool SearchPiece(std::size_t i) {
    if (i == from_->pieces().size()) return true;
    PieceProblem problem = BuildPieceProblem(from_->pieces()[i].snapshot);
    Binding initial(problem.conj.num_vars);
    for (const auto& [var, null] : problem.labeled_vars) {
      auto it = global_.find(null);
      if (it != global_.end()) initial.Bind(var, it->second);
    }
    HomomorphismFinder finder(to_->pieces()[i].snapshot);
    bool found = false;
    finder.ForEach(
        problem.conj, std::move(initial),
        [&](const Binding& binding, const AtomImage&) {
          // Validate and collect global extensions for labeled nulls.
          std::vector<NullId> added;
          bool valid = true;
          for (const auto& [var, null] : problem.labeled_vars) {
            const Value& image = binding.Get(var);
            if (image.is_annotated_null() &&
                single_snapshot_nulls_.count(null) == 0) {
              valid = false;  // would violate condition 2 across snapshots
              break;
            }
            if (global_.count(null) == 0) {
              global_.emplace(null, image);
              added.push_back(null);
            }
          }
          if (valid && SearchPiece(i + 1)) found = true;
          for (NullId n : added) global_.erase(n);
          return !found;  // stop enumeration once a full hom is found
        });
    return found;
  }

  const AbstractInstance* from_;
  const AbstractInstance* to_;
  std::unordered_map<NullId, Value> global_;
  std::unordered_set<NullId> single_snapshot_nulls_;
};

/// Re-annotates every annotated null to its piece's span. Fragments of one
/// null carry different annotations (N^[11,14) and N^[13,14)), yet at each
/// snapshot of a piece they project onto the same unknown (projection keys
/// on the null id only). Matching piece templates by Value would miss the
/// joins they form at every snapshot; one annotation per piece restores
/// them.
AbstractInstance AnnotateWithPieceSpans(const AbstractInstance& inst) {
  AbstractInstance out(&inst.schema());
  std::vector<Value> args;
  for (const AbstractPiece& piece : inst.pieces()) {
    Instance snapshot(&inst.schema());
    piece.snapshot.ForEach([&](FactView fact) {
      args.clear();
      for (const Value& v : fact.args()) {
        args.push_back(v.is_annotated_null()
                           ? Value::AnnotatedNull(v.null_id(), piece.span)
                           : v);
      }
      snapshot.InsertSpan(fact.relation(), args.data(), args.size());
    });
    out.AddPiece(piece.span, std::move(snapshot));
  }
  return out;
}

}  // namespace

bool AbstractHomomorphismExists(const AbstractInstance& from,
                                const AbstractInstance& to) {
  auto [a, b] = AlignPieces(from, to);
  assert(a.pieces().size() == b.pieces().size());
  const AbstractInstance a_spans = AnnotateWithPieceSpans(a);
  const AbstractInstance b_spans = AnnotateWithPieceSpans(b);
  return AbstractHomSearch(a_spans, b_spans).Run();
}

bool AreAbstractEquivalent(const AbstractInstance& a,
                           const AbstractInstance& b) {
  return AbstractHomomorphismExists(a, b) &&
         AbstractHomomorphismExists(b, a);
}

}  // namespace tdx
