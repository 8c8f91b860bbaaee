#include "src/core/normalize_incremental.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

using normalize_detail::IntersectIntervals;

void NormalizeState::Invalidate() {
  valid_ = false;
  bound_ = nullptr;
  marks_.clear();
  comp_of_.clear();
  num_components_ = 0;
  rewritten_.clear();
}

void NormalizeState::NoteRewrite(const ConcreteInstance& instance,
                                 const std::vector<FactRef>& rows) {
  if (!valid_ || bound_ != &instance.facts()) return;
  generation_ = instance.facts().generation();
  // Rows past the mark are appended facts, seeded as delta anyway.
  for (const FactRef& row : rows) {
    if (row.pos < MarkOf(row.rel)) rewritten_.push_back(row);
  }
}

bool NormalizeState::MatchesWatermark(const ConcreteInstance& instance) const {
  if (!valid_ || bound_ != &instance.facts()) return false;
  const Instance& facts = instance.facts();
  if (generation_ != facts.generation()) return false;
  const std::size_t num_rels = instance.schema().relation_count();
  if (marks_.size() > num_rels) return false;
  for (std::size_t r = 0; r < marks_.size(); ++r) {
    if (facts.facts(static_cast<RelationId>(r)).size() < marks_[r]) {
      return false;
    }
  }
  return true;
}

std::optional<NormalizeState::Watermark> NormalizeState::Export(
    const Instance* facts) const {
  if (!valid_ || bound_ != facts || generation_ != facts->generation() ||
      !rewritten_.empty()) {
    return std::nullopt;
  }
  Watermark wm;
  wm.marks = marks_;
  for (const std::vector<std::uint32_t>& rel_labels : comp_of_) {
    wm.labels.insert(wm.labels.end(), rel_labels.begin(), rel_labels.end());
  }
  wm.num_components = num_components_;
  return wm;
}

Status NormalizeState::Restore(const Watermark& wm,
                               const ConcreteInstance& instance) {
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  if (wm.marks.size() > num_rels) {
    return Status::InvalidArgument(
        "normalize watermark names more relations than the schema has");
  }
  std::size_t flat = 0;
  for (std::size_t r = 0; r < wm.marks.size(); ++r) {
    if (facts.facts(static_cast<RelationId>(r)).size() < wm.marks[r]) {
      return Status::InvalidArgument(
          "normalize watermark mark exceeds its relation's fact count");
    }
    flat += wm.marks[r];
  }
  if (flat != wm.labels.size()) {
    return Status::InvalidArgument(
        "normalize watermark labels are not parallel to its marks");
  }
  for (const std::uint32_t label : wm.labels) {
    if (label != kUngrouped && label >= wm.num_components) {
      return Status::InvalidArgument(
          "normalize watermark label out of component range");
    }
  }
  marks_ = wm.marks;
  comp_of_.clear();
  comp_of_.reserve(marks_.size());
  std::size_t off = 0;
  for (const std::uint32_t mark : marks_) {
    comp_of_.emplace_back(wm.labels.begin() + off, wm.labels.begin() + off + mark);
    off += mark;
  }
  num_components_ = wm.num_components;
  rewritten_.clear();
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
  return Status::OK();
}

void NormalizeState::Record(const ConcreteInstance& instance) {
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  marks_.resize(num_rels);
  comp_of_.assign(num_rels, {});
  std::size_t off = 0;
  for (std::size_t r = 0; r < num_rels; ++r) {
    const std::size_t n = facts.facts(static_cast<RelationId>(r)).size();
    marks_[r] = static_cast<std::uint32_t>(n);
    comp_of_[r].assign(flat_labels_.begin() + off,
                       flat_labels_.begin() + off + n);
    off += n;
  }
  assert(off == flat_labels_.size() && "labels must be parallel to the output");
  num_components_ = flat_components_;
  rewritten_.clear();
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
}

namespace {

struct IncrementalNormMetrics {
  obs::Counter passes{"normalize.incremental.passes"};
  obs::Counter full_passes{"normalize.incremental.full_passes"};
  obs::Counter delta_facts{"normalize.incremental.delta_facts"};
  obs::Counter dirty_components{"normalize.incremental.dirty_components"};
  obs::Counter reused_components{"normalize.incremental.reused_components"};
  obs::Counter homomorphisms{"normalize.incremental.homomorphisms"};
  obs::Counter identity_passes{"normalize.incremental.identity_passes"};
  obs::Counter rewrite_seeds{"normalize.incremental.rewrite_seeds"};
};

IncrementalNormMetrics& GetIncrementalNormMetrics() {
  static auto* metrics = new IncrementalNormMetrics();
  return *metrics;
}

}  // namespace

void NormalizeState::Normalize(ConcreteInstance* instance,
                               const std::vector<Conjunction>& phis,
                               NormalizeStats* stats, ResourceGuard* guard) {
  TDX_TRACE_SPAN("normalize.incremental");
  // Per-pass metrics need the pass's own stats even when the caller passed
  // none; NormalizeStats is a flat value, so the scratch copy is cheap.
  NormalizeStats scratch;
  NormalizeStats* pass_stats = stats != nullptr ? stats : &scratch;
  IncrementalNormMetrics& metrics = GetIncrementalNormMetrics();
  metrics.passes.Inc();
  const bool incremental = MatchesWatermark(*instance);
  if (!incremental) metrics.full_passes.Inc();
  const std::size_t rewrite_seeds = incremental ? rewritten_.size() : 0;
  Instance out(&instance->schema());
  const PassResult result = Pass(*instance, phis, pass_stats, guard, &out);
  if (result == PassResult::kRebuilt) {
    instance->mutable_facts() = std::move(out);
  }
  if (result != PassResult::kKept) {
    if (pass_stats->partial) {
      Invalidate();
    } else {
      Record(*instance);
    }
  }
  // A partial (guard-tripped) pass's stats are garbage; publishing them
  // would count work that produced nothing.
  if (!pass_stats->partial) {
    metrics.delta_facts.Inc(pass_stats->delta_facts);
    metrics.dirty_components.Inc(pass_stats->dirty_components);
    metrics.reused_components.Inc(pass_stats->reused_components);
    metrics.homomorphisms.Inc(pass_stats->homomorphisms);
    metrics.rewrite_seeds.Inc(rewrite_seeds);
    if (result == PassResult::kUnchanged) metrics.identity_passes.Inc();
  }
}

NormalizeState::PassResult NormalizeState::Pass(
    const ConcreteInstance& in, const std::vector<Conjunction>& phis,
    NormalizeStats* stats, ResourceGuard* guard, Instance* out) {
  // Without a watermark bound to `in`, every fact is delta: the full pass.
  const bool incremental = MatchesWatermark(in);
  if (!incremental) Invalidate();
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault(incremental ? "normalize/incremental"
                                 : "normalize/algorithm1");
  }
  const auto give_up = [&]() {
    stats->partial = true;
    Invalidate();
    return PassResult::kKept;
  };
  if (guard != nullptr && guard->tripped()) return give_up();

  // Dense ids for the instance's facts: each relation column gets a base
  // offset, and a fact's id is base + its position in the column. No
  // hashing, no fact copies — the instance is immutable for the duration,
  // so views stay valid throughout.
  const Instance& facts = in.facts();
  const std::size_t num_rels = in.schema().relation_count();
  base_.assign(num_rels, 0);
  std::size_t total = 0;
  std::size_t delta = 0;
  for (RelationId r = 0; r < num_rels; ++r) {
    base_[r] = total;
    const std::size_t n = facts.facts(r).size();
    total += n;
    delta += n - MarkOf(r);
  }
  if (incremental && delta == 0 && rewritten_.empty()) {
    // Untouched since the last pass: the instance IS the previous output,
    // already normalized. Leave it (and the watermark) alone.
    *stats = NormalizeStats{};
    stats->input_facts = total;
    stats->output_facts = total;
    stats->reused_components = num_components_;
    return PassResult::kKept;
  }

  const auto dense_id = [&](FactView f) { return base_[f.relation()] + f.pos(); };
  // `base_` is sorted, so the owning relation is the last base offset <= id;
  // empty relations repeat their successor's offset and the upper_bound
  // lands past all of them.
  const auto fact_at = [&](std::size_t id) {
    const auto it = std::upper_bound(base_.begin(), base_.end(), id);
    const RelationId r = static_cast<RelationId>(it - base_.begin() - 1);
    return facts.facts(r)[static_cast<std::uint32_t>(id - base_[r])];
  };
  const auto is_old = [&](FactView f) { return f.pos() < MarkOf(f.relation()); };

  // Build S (Algorithm 1, line 3): for each phi* in N(Phi+), every
  // homomorphic image whose fact intervals intersect forms a group; then
  // merge groups sharing a fact (lines 4-10) — i.e., take connected
  // components of the overlap graph, implemented with union-find.
  //
  // A full pass enumerates every phi* over the whole instance. An
  // incremental pass seeds every atom of every phi* over its relation's
  // delta suffix, finding exactly the homs touching a new fact; each OLD
  // fact pulled into a group is then expanded (all homs through it,
  // single-fact seeds), so every component containing a delta fact is
  // discovered in full. Rewritten old rows start out queued for that
  // expansion, which finds every hom through a changed value. Homs found
  // more than once only repeat a union — harmless. Homs never reached this
  // way are made of unrewritten old facts only and belong to clean
  // components, which provably carry one shared interval (see header).
  uf_.Reset(total);
  grouped_.assign(total, 0);
  enqueued_.assign(total, 0);
  queue_.clear();
  // Previous components a dirty or rewritten fact belonged to.
  std::vector<char> prev_touched(num_components_, 0);
  for (const FactRef& row : rewritten_) {
    const std::size_t idx = base_[row.rel] + row.pos;
    if (enqueued_[idx] != 0) continue;
    enqueued_[idx] = 1;
    queue_.push_back(idx);
    const std::uint32_t prev = comp_of_[row.rel][row.pos];
    if (prev != kUngrouped) prev_touched[prev] = 1;
  }
  std::size_t hom_count = 0;
  bool deadline_ok = true;
  const HomCallback on_hom = [&](const Binding&, const AtomImage& image) {
    // The hom sweep dominates Algorithm 1's worst case (Theorem 13), so the
    // deadline is polled here too.
    if (guard != nullptr && !guard->CheckDeadline()) {
      deadline_ok = false;
      return false;
    }
    ++hom_count;
    if (!IntersectIntervals(image).has_value()) return true;
    const std::size_t first = dense_id(image.front());
    for (FactView f : image) {
      const std::size_t idx = dense_id(f);
      grouped_[idx] = 1;
      uf_.Union(first, idx);
      if (is_old(f) && enqueued_[idx] == 0) {
        enqueued_[idx] = 1;
        queue_.push_back(idx);
      }
    }
    return true;
  };
  HomomorphismFinder finder(facts);
  std::vector<Conjunction> stars;
  stars.reserve(phis.size());
  for (const Conjunction& phi : phis) stars.push_back(RenameTemporalApart(phi));
  for (const Conjunction& star : stars) {
    if (!deadline_ok) break;
    if (!incremental) {
      finder.ForEach(star, Binding(star.num_vars), on_hom);
      continue;
    }
    for (std::size_t a = 0; a < star.atoms.size() && deadline_ok; ++a) {
      const RelationId rel = star.atoms[a].rel;
      const std::uint32_t begin = MarkOf(rel);
      const std::uint32_t end =
          static_cast<std::uint32_t>(facts.facts(rel).size());
      if (begin >= end) continue;
      finder.ForEachSeeded(star, a, begin, end, Binding(star.num_vars),
                           on_hom);
    }
  }
  for (std::size_t head = 0; head < queue_.size() && deadline_ok; ++head) {
    const FactView f = fact_at(queue_[head]);
    for (const Conjunction& star : stars) {
      for (std::size_t a = 0; a < star.atoms.size() && deadline_ok; ++a) {
        if (star.atoms[a].rel != f.relation()) continue;
        finder.ForEachSeeded(star, a, f.pos(), f.pos() + 1,
                             Binding(star.num_vars), on_hom);
      }
    }
  }
  if (!deadline_ok || (guard != nullptr && guard->tripped())) return give_up();

  // Components of the overlap graph, keyed by union-find root. A component
  // whose facts all carry one interval cuts nothing: its distinct
  // start/end points (TP_Delta, lines 11-13) are that interval's own. Only
  // a *mixed* component, whose facts carry at least two intervals, needs
  // its cut points; they go into one CSR buffer.
  if (++pass_stamp_ == 0) {
    for (Component& c : components_) c.stamp = 0;
    pass_stamp_ = 1;
  }
  components_.resize(total);
  roots_.clear();
  std::size_t num_mixed = 0;
  for (RelationId r = 0; r < num_rels; ++r) {
    const FactColumn column = facts.facts(r);
    for (std::uint32_t pos = 0; pos < column.size(); ++pos) {
      const std::size_t i = base_[r] + pos;
      if (grouped_[i] == 0) continue;
      const Interval iv = column[pos].interval();
      const std::uint32_t points = iv.unbounded() ? 1 : 2;
      const std::size_t root = uf_.Find(i);
      Component& c = components_[root];
      if (c.stamp != pass_stamp_) {
        c = Component{pass_stamp_, iv.start(), iv.end(), false, 0, points,
                      kUngrouped};
        roots_.push_back(root);
      } else {
        c.cuts_size += points;
        if (!c.mixed && (iv.start() != c.start || iv.end() != c.end)) {
          c.mixed = true;
          ++num_mixed;
        }
      }
      if (pos < MarkOf(r)) {
        const std::uint32_t prev = comp_of_[r][pos];
        if (prev != kUngrouped) prev_touched[prev] = 1;
      }
    }
  }
  std::uint32_t cut_total = 0;
  for (const std::size_t root : roots_) {
    Component& c = components_[root];
    if (!c.mixed) continue;
    c.cuts_begin = cut_total;
    cut_total += c.cuts_size;
    c.cuts_size = 0;  // refilled below
  }
  cuts_.resize(cut_total);
  if (num_mixed > 0) {
    for (RelationId r = 0; r < num_rels; ++r) {
      const FactColumn column = facts.facts(r);
      for (std::uint32_t pos = 0; pos < column.size(); ++pos) {
        const std::size_t i = base_[r] + pos;
        if (grouped_[i] == 0) continue;
        Component& c = components_[uf_.Find(i)];
        if (!c.mixed) continue;
        const Interval iv = column[pos].interval();
        cuts_[c.cuts_begin + c.cuts_size++] = iv.start();
        if (!iv.unbounded()) cuts_[c.cuts_begin + c.cuts_size++] = iv.end();
      }
    }
    for (const std::size_t root : roots_) {
      Component& c = components_[root];
      if (!c.mixed) continue;
      const auto first = cuts_.begin() + c.cuts_begin;
      std::sort(first, first + c.cuts_size);
      c.cuts_size = static_cast<std::uint32_t>(
          std::unique(first, first + c.cuts_size) - first);
    }
  }

  // The output equals the input unless some grouped fact has a cut strictly
  // inside its interval, i.e. unless some component is mixed: every group
  // is a hom image with a nonempty intersection, so two unequal intervals
  // in one group overlap and an endpoint of one lies strictly inside the
  // other; and a component whose groups are all uniform is uniform, its
  // groups being linked by shared facts. An uncut fact's one fragment is
  // the fact itself (its nulls already carry its interval, see
  // ConcreteInstance::Validate). Then nothing is rebuilt: the emission loop
  // below only charges the guard and labels the facts where they stand.
  const bool identity = num_mixed == 0;

  // Fragment grouped facts at their component's cut points (lines 14-18);
  // every other fact passes through unchanged. Dirty components take labels
  // [0, d) in first-emission order; pass-through facts keep their previous
  // component identity, remapped densely above d. Each fragment is charged
  // to the guard before it is inserted (an identity pass charges one per
  // fact, as its rebuild would), and labels record only the rows the
  // Instance kept (Insert dedups; an identity pass keeps every row).
  const std::uint32_t num_dirty = static_cast<std::uint32_t>(roots_.size());
  flat_labels_.clear();
  std::vector<std::uint32_t> prev_remap(num_components_, kUngrouped);
  std::uint32_t num_reused = 0;
  std::uint32_t next_label = 0;
  std::vector<Interval> subs;
  bool tripped = false;
  for (RelationId r = 0; r < num_rels && !tripped; ++r) {
    const FactColumn column = facts.facts(r);
    for (std::uint32_t pos = 0; pos < column.size() && !tripped; ++pos) {
      const std::size_t i = base_[r] + pos;
      const FactView fact = column[pos];
      std::uint32_t label = kUngrouped;
      if (grouped_[i] != 0) {
        Component& component = components_[uf_.Find(i)];
        if (component.label == kUngrouped) component.label = next_label++;
        label = component.label;
        if (!identity) {
          subs.clear();
          if (component.mixed) {
            AppendFragments(fact.interval(),
                            std::span<const TimePoint>(
                                cuts_.data() + component.cuts_begin,
                                component.cuts_size),
                            &subs);
          } else {
            subs.push_back(fact.interval());
          }
          for (const Interval& sub : subs) {
            if (guard != nullptr && !guard->ChargeFragment()) {
              tripped = true;
              break;
            }
            if (out->Insert(fact.WithInterval(sub))) {
              flat_labels_.push_back(label);
            }
          }
          continue;
        }
      } else if (pos < MarkOf(r)) {
        const std::uint32_t prev = comp_of_[r][pos];
        if (prev != kUngrouped) {
          if (prev_remap[prev] == kUngrouped) {
            prev_remap[prev] = num_dirty + num_reused++;
          }
          label = prev_remap[prev];
        }
      }
      if (guard != nullptr && !guard->ChargeFragment()) {
        tripped = true;
        break;
      }
      if (identity || out->Insert(fact)) flat_labels_.push_back(label);
    }
  }
  flat_components_ = num_dirty + num_reused;

  std::uint32_t touched = 0;
  for (const char t : prev_touched) touched += t;
  stats->input_facts = total;
  stats->output_facts = identity ? total : out->size();
  stats->homomorphisms = hom_count;
  stats->groups = num_dirty;
  stats->delta_facts = delta;
  stats->dirty_components = num_dirty;
  // Reused = previous components no dirty fact touches.
  stats->reused_components = num_components_ - touched;
  stats->partial = tripped || (guard != nullptr && guard->tripped());
  return identity ? PassResult::kUnchanged : PassResult::kRebuilt;
}

}  // namespace tdx
