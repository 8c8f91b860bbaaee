#include "src/gen/workload.h"

#include <random>
#include <string>

namespace tdx {

namespace {

/// Convenience for building dependencies programmatically: terms by var id.
Atom MakeAtom(RelationId rel, std::initializer_list<Term> terms) {
  Atom atom;
  atom.rel = rel;
  atom.terms = terms;
  return atom;
}

/// Registers the employment schema and mapping into `w` (non-temporal M;
/// the lifted M+ is derived). Returns the concrete relation ids (E+, S+).
struct EmploymentRelations {
  RelationId e_plus;
  RelationId s_plus;
};

Result<EmploymentRelations> BuildEmploymentSetting(Workload* w) {
  TDX_ASSIGN_OR_RETURN(
      RelationId e_plus,
      w->schema.AddRelationPair("E", {"name", "company"}, SchemaRole::kSource));
  TDX_ASSIGN_OR_RETURN(
      RelationId s_plus,
      w->schema.AddRelationPair("S", {"name", "salary"}, SchemaRole::kSource));
  TDX_ASSIGN_OR_RETURN(RelationId emp_plus,
                       w->schema.AddRelationPair(
                           "Emp", {"name", "company", "salary"},
                           SchemaRole::kTarget));
  TDX_ASSIGN_OR_RETURN(RelationId e_rel, w->schema.TwinOf(e_plus));
  TDX_ASSIGN_OR_RETURN(RelationId s_rel, w->schema.TwinOf(s_plus));
  TDX_ASSIGN_OR_RETURN(RelationId emp_rel, w->schema.TwinOf(emp_plus));

  // sigma1: E(n, c) -> exists s: Emp(n, c, s);  vars n=0, c=1, s=2.
  Tgd sigma1;
  sigma1.label = "sigma1";
  sigma1.body.atoms = {MakeAtom(e_rel, {Term::Var(0), Term::Var(1)})};
  sigma1.head.atoms = {
      MakeAtom(emp_rel, {Term::Var(0), Term::Var(1), Term::Var(2)})};
  sigma1.body.num_vars = sigma1.head.num_vars = 3;
  sigma1.body.var_names = {"n", "c", "s"};
  TDX_RETURN_IF_ERROR(sigma1.Finalize());

  // sigma2: E(n, c) & S(n, s) -> Emp(n, c, s).
  Tgd sigma2;
  sigma2.label = "sigma2";
  sigma2.body.atoms = {MakeAtom(e_rel, {Term::Var(0), Term::Var(1)}),
                       MakeAtom(s_rel, {Term::Var(0), Term::Var(2)})};
  sigma2.head.atoms = {
      MakeAtom(emp_rel, {Term::Var(0), Term::Var(1), Term::Var(2)})};
  sigma2.body.num_vars = sigma2.head.num_vars = 3;
  sigma2.body.var_names = {"n", "c", "s"};
  TDX_RETURN_IF_ERROR(sigma2.Finalize());

  // e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2.
  Egd e1;
  e1.label = "e1";
  e1.body.atoms = {
      MakeAtom(emp_rel, {Term::Var(0), Term::Var(1), Term::Var(2)}),
      MakeAtom(emp_rel, {Term::Var(0), Term::Var(1), Term::Var(3)})};
  e1.body.num_vars = 4;
  e1.body.var_names = {"n", "c", "s", "s2"};
  e1.x1 = 2;
  e1.x2 = 3;
  TDX_RETURN_IF_ERROR(e1.Finalize());

  w->mapping.st_tgds = {std::move(sigma1), std::move(sigma2)};
  w->mapping.egds = {std::move(e1)};
  TDX_RETURN_IF_ERROR(ValidateMapping(w->mapping, w->schema));
  TDX_ASSIGN_OR_RETURN(w->lifted, LiftMapping(w->mapping, w->schema));
  return EmploymentRelations{e_plus, s_plus};
}

/// Crashes on generator-internal errors: generators are test/bench infra,
/// and their settings are built from validated building blocks.
template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    // Generators build fixed, known-good schemas; failure is a programming
    // error in the generator itself.
    assert(false && "workload generator failed to build its setting");
    abort();
  }
  return std::move(result).value();
}

void MustAdd(ConcreteInstance* instance, RelationId rel,
             std::vector<Value> data, const Interval& iv) {
  const Status status = instance->Add(rel, std::move(data), iv);
  if (!status.ok()) {
    assert(false && "workload generator produced an invalid fact");
    abort();
  }
}

}  // namespace

std::unique_ptr<Workload> MakeEmploymentWorkload(const EmploymentConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const EmploymentRelations rels = Unwrap(BuildEmploymentSetting(w.get()));
  std::mt19937_64 rng(cfg.seed);

  std::uniform_int_distribution<std::size_t> company_dist(
      0, cfg.num_companies == 0 ? 0 : cfg.num_companies - 1);
  std::uniform_int_distribution<TimePoint> start_dist(
      0, cfg.horizon > 2 ? cfg.horizon / 2 : 1);

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t p = 0; p < cfg.num_people; ++p) {
    const Value name = w->universe.Constant("person" + std::to_string(p));
    // Consecutive employment spans: [t0, t1), [t1, t2), ..., last may be inf.
    TimePoint t = start_dist(rng);
    const TimePoint first_start = t;
    std::optional<Interval> last_span;
    const std::size_t jobs =
        1 + (cfg.avg_jobs <= 1
                 ? 0
                 : rng() % (2 * cfg.avg_jobs - 1));  // mean ~= avg_jobs
    for (std::size_t j = 0; j < jobs; ++j) {
      const bool last = (j + 1 == jobs);
      const TimePoint remaining =
          cfg.horizon > t + 2 ? cfg.horizon - t : 2;
      const TimePoint len = 1 + rng() % std::max<TimePoint>(remaining / 2, 1);
      const Interval span = last && (rng() % 4 == 0)
                                ? Interval::FromStart(t)
                                : Interval(t, t + len);
      const Value company = w->universe.Constant(
          "company" + std::to_string(company_dist(rng)));
      MustAdd(&w->source, rels.e_plus, {name, company}, span);
      last_span = span;
      if (span.unbounded()) break;
      t = span.end();
      if (t + 2 >= cfg.horizon) break;
      // Occasional unemployment gap.
      if (rng() % 3 == 0) t += 1 + rng() % 2;
      if (t + 2 >= cfg.horizon) break;
    }

    // Salary history: change points independent of job boundaries (as in
    // the paper's Figure 4, where Ada's salary persists across the
    // IBM->Google move). Segments are disjoint per person, so the egd
    // cannot fail unless a conflict is injected.
    if (!last_span.has_value()) continue;
    const bool open_ended = last_span->unbounded();
    const TimePoint cap =
        open_ended ? std::max<TimePoint>(cfg.horizon, first_start + 2)
                   : last_span->end();
    TimePoint cur = first_start;
    while (cur < cap) {
      const TimePoint len =
          1 + rng() % std::max<TimePoint>(cfg.horizon / 6, 2);
      const TimePoint end = std::min(cur + len, cap);
      const bool final_segment = (end == cap);
      const Interval seg = (final_segment && open_ended)
                               ? Interval::FromStart(cur)
                               : Interval(cur, end);
      if (coin(rng) < cfg.salary_known_fraction) {
        const Value salary = w->universe.Constant(
            std::to_string(10 + rng() % 90) + "k");
        MustAdd(&w->source, rels.s_plus, {name, salary}, seg);
        if (cfg.inject_conflict && rng() % 8 == 0) {
          const Value clash = w->universe.Constant(
              std::to_string(100 + rng() % 90) + "k");
          MustAdd(&w->source, rels.s_plus, {name, clash}, seg);
        }
      }
      cur = end;
    }
  }
  return w;
}

std::unique_ptr<Workload> MakeWorstCaseNormalizationWorkload(std::size_t n) {
  auto w = std::make_unique<Workload>();
  const RelationId r_plus = Unwrap(
      w->schema.AddRelationPair("R", {"a"}, SchemaRole::kSource));
  const RelationId t_plus = Unwrap(
      w->schema.AddRelationPair("T", {"a", "b"}, SchemaRole::kTarget));
  const RelationId r_rel = Unwrap(w->schema.TwinOf(r_plus));
  const RelationId t_rel = Unwrap(w->schema.TwinOf(t_plus));

  // tgd: R(x) & R(y) -> T(x, y): its lhs pairs every two facts.
  Tgd tgd;
  tgd.label = "pairs";
  tgd.body.atoms = {MakeAtom(r_rel, {Term::Var(0)}),
                    MakeAtom(r_rel, {Term::Var(1)})};
  tgd.head.atoms = {MakeAtom(t_rel, {Term::Var(0), Term::Var(1)})};
  tgd.body.num_vars = tgd.head.num_vars = 2;
  tgd.body.var_names = {"x", "y"};
  if (!tgd.Finalize().ok()) abort();
  w->mapping.st_tgds = {std::move(tgd)};
  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  // Nested intervals [i, 2n - i): every pair overlaps, so normalization
  // forms one group with 2n distinct endpoints.
  for (std::size_t i = 0; i < n; ++i) {
    const Value a = w->universe.Constant("a" + std::to_string(i));
    MustAdd(&w->source, r_plus, {a},
            Interval(i, 2 * n - i));
  }
  return w;
}

std::unique_ptr<Workload> MakeRandomWorkload(const RandomConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const EmploymentRelations rels = Unwrap(BuildEmploymentSetting(w.get()));
  std::mt19937_64 rng(cfg.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  for (std::size_t i = 0; i < cfg.num_facts; ++i) {
    const Value name = w->universe.Constant(
        "n" + std::to_string(rng() % std::max<std::size_t>(cfg.num_names, 1)));
    const TimePoint start = rng() % cfg.horizon;
    const TimePoint len =
        1 + rng() % std::max<TimePoint>(cfg.max_interval_length, 1);
    const Interval iv = (coin(rng) < cfg.unbounded_probability)
                            ? Interval::FromStart(start)
                            : Interval(start, start + len);
    if (rng() % 2 == 0) {
      const Value company = w->universe.Constant(
          "c" + std::to_string(rng() %
                               std::max<std::size_t>(cfg.num_companies, 1)));
      MustAdd(&w->source, rels.e_plus, {name, company}, iv);
    } else {
      // Salaries are usually a deterministic function of the name so that a
      // fair share of random workloads admit a solution; the remainder pick
      // a random salary and may conflict, exercising the failure paths.
      const std::size_t salary_count =
          std::max<std::size_t>(cfg.num_salaries, 1);
      const std::size_t pick = (rng() % 10 < 8)
                                   ? (name.symbol() % salary_count)
                                   : (rng() % salary_count);
      const Value salary =
          w->universe.Constant("s" + std::to_string(pick));
      MustAdd(&w->source, rels.s_plus, {name, salary}, iv);
    }
  }
  return w;
}

std::unique_ptr<Workload> MakeRandomMappingWorkload(
    const RandomMappingConfig& cfg) {
  auto w = std::make_unique<Workload>();
  std::mt19937_64 rng(cfg.seed);
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return lo + rng() % (hi - lo + 1);
  };

  // ---- random schema ------------------------------------------------------
  const std::size_t num_src = pick(1, cfg.max_source_relations);
  const std::size_t num_tgt = pick(1, cfg.max_target_relations);
  std::vector<RelationId> src_snap, tgt_snap, src_conc;
  for (std::size_t i = 0; i < num_src; ++i) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < pick(1, cfg.max_arity); ++a) {
      attrs.push_back("a" + std::to_string(a));
    }
    const RelationId conc = Unwrap(w->schema.AddRelationPair(
        "S" + std::to_string(i), std::move(attrs), SchemaRole::kSource));
    src_conc.push_back(conc);
    src_snap.push_back(Unwrap(w->schema.TwinOf(conc)));
  }
  for (std::size_t i = 0; i < num_tgt; ++i) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < pick(1, cfg.max_arity); ++a) {
      attrs.push_back("a" + std::to_string(a));
    }
    const RelationId conc = Unwrap(w->schema.AddRelationPair(
        "T" + std::to_string(i), std::move(attrs), SchemaRole::kTarget));
    tgt_snap.push_back(Unwrap(w->schema.TwinOf(conc)));
  }

  // ---- random s-t tgds ----------------------------------------------------
  const std::size_t num_tgds = pick(1, cfg.max_st_tgds);
  for (std::size_t d = 0; d < num_tgds; ++d) {
    Tgd tgd;
    tgd.label = "g" + std::to_string(d);
    // Body: 1-2 source atoms over a small shared variable pool.
    const std::size_t pool = pick(1, 4);
    const std::size_t body_atoms = pick(1, 2);
    for (std::size_t i = 0; i < body_atoms; ++i) {
      const RelationId rel = src_snap[rng() % src_snap.size()];
      Atom atom;
      atom.rel = rel;
      for (std::size_t j = 0; j < w->schema.relation(rel).arity(); ++j) {
        atom.terms.push_back(Term::Var(static_cast<VarId>(rng() % pool)));
      }
      tgd.body.atoms.push_back(std::move(atom));
    }
    // Head: 1-2 target atoms mixing body variables and fresh existentials.
    const std::size_t head_atoms = pick(1, 2);
    VarId next_var = static_cast<VarId>(pool);
    for (std::size_t i = 0; i < head_atoms; ++i) {
      const RelationId rel = tgt_snap[rng() % tgt_snap.size()];
      Atom atom;
      atom.rel = rel;
      for (std::size_t j = 0; j < w->schema.relation(rel).arity(); ++j) {
        if (rng() % 3 == 0) {
          atom.terms.push_back(Term::Var(next_var++));  // existential
        } else {
          atom.terms.push_back(Term::Var(static_cast<VarId>(rng() % pool)));
        }
      }
      tgd.head.atoms.push_back(std::move(atom));
    }
    tgd.body.num_vars = tgd.head.num_vars = next_var;
    if (!tgd.Finalize().ok()) continue;  // skip malformed combinations
    w->mapping.st_tgds.push_back(std::move(tgd));
  }
  if (w->mapping.st_tgds.empty()) {
    // Guarantee at least one tgd: copy the first source relation into the
    // first target relation position-wise (arities may differ; use min).
    Tgd tgd;
    tgd.label = "g_fallback";
    const RelationId s0 = src_snap[0];
    const RelationId t0 = tgt_snap[0];
    const std::size_t arity = std::min(w->schema.relation(s0).arity(),
                                       w->schema.relation(t0).arity());
    Atom body, head;
    body.rel = s0;
    head.rel = t0;
    for (std::size_t j = 0; j < w->schema.relation(s0).arity(); ++j) {
      body.terms.push_back(Term::Var(static_cast<VarId>(j % arity)));
    }
    VarId next = static_cast<VarId>(arity);
    for (std::size_t j = 0; j < w->schema.relation(t0).arity(); ++j) {
      head.terms.push_back(j < arity ? Term::Var(static_cast<VarId>(j))
                                     : Term::Var(next++));
    }
    tgd.body.atoms = {std::move(body)};
    tgd.head.atoms = {std::move(head)};
    tgd.body.num_vars = tgd.head.num_vars = next;
    if (!tgd.Finalize().ok()) abort();
    w->mapping.st_tgds.push_back(std::move(tgd));
  }

  // ---- random egds ---------------------------------------------------------
  const std::size_t num_egds = rng() % (cfg.max_egds + 1);
  for (std::size_t d = 0; d < num_egds; ++d) {
    // Pick a target relation with arity >= 2: first column is the key,
    // a random later column is determined by it.
    std::vector<RelationId> candidates;
    for (RelationId rel : tgt_snap) {
      if (w->schema.relation(rel).arity() >= 2) candidates.push_back(rel);
    }
    if (candidates.empty()) break;
    const RelationId rel = candidates[rng() % candidates.size()];
    const std::size_t arity = w->schema.relation(rel).arity();
    const std::size_t dep_col = 1 + rng() % (arity - 1);
    Egd egd;
    egd.label = "k" + std::to_string(d);
    Atom a1, a2;
    a1.rel = a2.rel = rel;
    VarId next = 0;
    std::vector<VarId> vars1, vars2;
    for (std::size_t j = 0; j < arity; ++j) {
      vars1.push_back(next++);
    }
    for (std::size_t j = 0; j < arity; ++j) {
      vars2.push_back(j == 0 ? vars1[0] : next++);  // shared key column
    }
    for (std::size_t j = 0; j < arity; ++j) a1.terms.push_back(Term::Var(vars1[j]));
    for (std::size_t j = 0; j < arity; ++j) a2.terms.push_back(Term::Var(vars2[j]));
    egd.body.atoms = {std::move(a1), std::move(a2)};
    egd.body.num_vars = next;
    egd.x1 = vars1[dep_col];
    egd.x2 = vars2[dep_col];
    if (!egd.Finalize().ok()) continue;
    w->mapping.egds.push_back(std::move(egd));
  }

  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  // ---- random facts ---------------------------------------------------------
  for (std::size_t i = 0; i < cfg.num_facts; ++i) {
    const RelationId conc = src_conc[rng() % src_conc.size()];
    const std::size_t data_arity = w->schema.relation(conc).data_arity();
    std::vector<Value> data;
    for (std::size_t j = 0; j < data_arity; ++j) {
      data.push_back(w->universe.Constant(
          "c" + std::to_string(rng() % cfg.num_constants)));
    }
    const TimePoint start = rng() % cfg.horizon;
    const TimePoint len =
        1 + rng() % std::max<TimePoint>(cfg.max_interval_length, 1);
    const Interval iv = (rng() % 10 == 0) ? Interval::FromStart(start)
                                          : Interval(start, start + len);
    MustAdd(&w->source, conc, std::move(data), iv);
  }
  return w;
}

std::unique_ptr<Workload> MakeFlightWorkload(const FlightConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const RelationId flight_plus = Unwrap(w->schema.AddRelationPair(
      "Flight", {"from", "to"}, SchemaRole::kSource));
  const RelationId reach_plus = Unwrap(w->schema.AddRelationPair(
      "Reach", {"from", "to"}, SchemaRole::kTarget));
  const RelationId flight = Unwrap(w->schema.TwinOf(flight_plus));
  const RelationId reach = Unwrap(w->schema.TwinOf(reach_plus));

  Tgd copy;
  copy.label = "direct";
  copy.body.atoms = {MakeAtom(flight, {Term::Var(0), Term::Var(1)})};
  copy.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)})};
  copy.body.num_vars = copy.head.num_vars = 2;
  copy.body.var_names = {"x", "y"};
  if (!copy.Finalize().ok()) abort();

  Tgd trans;
  trans.label = "transitive";
  trans.body.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)}),
                      MakeAtom(reach, {Term::Var(1), Term::Var(2)})};
  trans.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(2)})};
  trans.body.num_vars = trans.head.num_vars = 3;
  trans.body.var_names = {"x", "y", "z"};
  if (!trans.Finalize().ok()) abort();

  w->mapping.st_tgds = {std::move(copy)};
  w->mapping.target_tgds = {std::move(trans)};
  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  std::mt19937_64 rng(cfg.seed);
  for (std::size_t i = 0; i < cfg.num_flights; ++i) {
    const Value from = w->universe.Constant(
        "ap" + std::to_string(rng() % cfg.num_airports));
    Value to = from;
    while (to == from) {
      to = w->universe.Constant(
          "ap" + std::to_string(rng() % cfg.num_airports));
    }
    const TimePoint start = rng() % cfg.horizon;
    const TimePoint len =
        1 + rng() % std::max<TimePoint>(cfg.max_interval_length, 1);
    MustAdd(&w->source, flight_plus, {from, to},
            Interval(start, start + len));
  }
  return w;
}

std::unique_ptr<Workload> MakeChainWorkload(const ChainConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const RelationId flight_plus = Unwrap(w->schema.AddRelationPair(
      "Flight", {"from", "to"}, SchemaRole::kSource));
  const RelationId edge_plus = Unwrap(w->schema.AddRelationPair(
      "Edge", {"from", "to"}, SchemaRole::kTarget));
  const RelationId reach_plus = Unwrap(w->schema.AddRelationPair(
      "Reach", {"from", "to"}, SchemaRole::kTarget));
  const RelationId flight = Unwrap(w->schema.TwinOf(flight_plus));
  const RelationId edge = Unwrap(w->schema.TwinOf(edge_plus));
  const RelationId reach = Unwrap(w->schema.TwinOf(reach_plus));

  Tgd copy_edge;
  copy_edge.label = "edge";
  copy_edge.body.atoms = {MakeAtom(flight, {Term::Var(0), Term::Var(1)})};
  copy_edge.head.atoms = {MakeAtom(edge, {Term::Var(0), Term::Var(1)})};
  copy_edge.body.num_vars = copy_edge.head.num_vars = 2;
  copy_edge.body.var_names = {"x", "y"};
  if (!copy_edge.Finalize().ok()) abort();

  Tgd copy_reach;
  copy_reach.label = "direct";
  copy_reach.body.atoms = {MakeAtom(flight, {Term::Var(0), Term::Var(1)})};
  copy_reach.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)})};
  copy_reach.body.num_vars = copy_reach.head.num_vars = 2;
  copy_reach.body.var_names = {"x", "y"};
  if (!copy_reach.Finalize().ok()) abort();

  Tgd extend;
  extend.label = "extend";
  extend.body.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)}),
                       MakeAtom(edge, {Term::Var(1), Term::Var(2)})};
  extend.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(2)})};
  extend.body.num_vars = extend.head.num_vars = 3;
  extend.body.var_names = {"x", "y", "z"};
  if (!extend.Finalize().ok()) abort();

  w->mapping.st_tgds = {std::move(copy_edge), std::move(copy_reach)};
  w->mapping.target_tgds = {std::move(extend)};
  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  const Interval span(0, std::max<TimePoint>(cfg.horizon, 1));
  for (std::size_t i = 0; i < cfg.hops; ++i) {
    const Value a = w->universe.Constant("ap" + std::to_string(i));
    const Value b = w->universe.Constant("ap" + std::to_string(i + 1));
    MustAdd(&w->source, flight_plus, {a, b}, span);
  }
  return w;
}

std::unique_ptr<Workload> MakeStratifiedWorkload(const StratifiedConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const RelationId src_plus = Unwrap(
      w->schema.AddRelationPair("Src", {"from", "to"}, SchemaRole::kSource));
  const RelationId edge_plus = Unwrap(
      w->schema.AddRelationPair("Edge", {"from", "to"}, SchemaRole::kTarget));
  const RelationId reach_plus = Unwrap(
      w->schema.AddRelationPair("Reach", {"from", "to"}, SchemaRole::kTarget));
  const RelationId audit_plus = Unwrap(w->schema.AddRelationPair(
      "Audit", {"from", "to", "status"}, SchemaRole::kTarget));
  const RelationId src = Unwrap(w->schema.TwinOf(src_plus));
  const RelationId edge = Unwrap(w->schema.TwinOf(edge_plus));
  const RelationId reach = Unwrap(w->schema.TwinOf(reach_plus));
  const RelationId audit = Unwrap(w->schema.TwinOf(audit_plus));

  Tgd copy_edge;
  copy_edge.label = "s1";
  copy_edge.body.atoms = {MakeAtom(src, {Term::Var(0), Term::Var(1)})};
  copy_edge.head.atoms = {MakeAtom(edge, {Term::Var(0), Term::Var(1)})};
  copy_edge.body.num_vars = copy_edge.head.num_vars = 2;
  copy_edge.body.var_names = {"x", "y"};
  if (!copy_edge.Finalize().ok()) abort();

  Tgd copy_reach;
  copy_reach.label = "s2";
  copy_reach.body.atoms = {MakeAtom(src, {Term::Var(0), Term::Var(1)})};
  copy_reach.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)})};
  copy_reach.body.num_vars = copy_reach.head.num_vars = 2;
  copy_reach.body.var_names = {"x", "y"};
  if (!copy_reach.Finalize().ok()) abort();

  Tgd extend;
  extend.label = "t1";
  extend.body.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)}),
                       MakeAtom(edge, {Term::Var(1), Term::Var(2)})};
  extend.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(2)})};
  extend.body.num_vars = extend.head.num_vars = 3;
  extend.body.var_names = {"x", "y", "z"};
  if (!extend.Finalize().ok()) abort();

  const Value ok = w->universe.Constant("ok");
  Tgd tag;
  tag.label = "t2";
  tag.body.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)})};
  tag.head.atoms = {
      MakeAtom(audit, {Term::Var(0), Term::Var(1), Term::Val(ok)})};
  tag.body.num_vars = tag.head.num_vars = 2;
  tag.body.var_names = {"x", "y"};
  if (!tag.Finalize().ok()) abort();

  Egd status_agrees;
  status_agrees.label = "e1";
  status_agrees.body.atoms = {
      MakeAtom(audit, {Term::Var(0), Term::Var(1), Term::Var(2)}),
      MakeAtom(audit, {Term::Var(0), Term::Var(1), Term::Var(3)})};
  status_agrees.body.num_vars = 4;
  status_agrees.body.var_names = {"x", "y", "s", "s2"};
  status_agrees.x1 = 2;
  status_agrees.x2 = 3;
  if (!status_agrees.Finalize().ok()) abort();

  w->mapping.st_tgds = {std::move(copy_edge), std::move(copy_reach)};
  w->mapping.target_tgds = {std::move(extend), std::move(tag)};
  w->mapping.egds = {std::move(status_agrees)};
  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  const Interval span(0, std::max<TimePoint>(cfg.horizon, 1));
  for (std::size_t i = 0; i < cfg.hops; ++i) {
    const Value a = w->universe.Constant("n" + std::to_string(i));
    const Value b = w->universe.Constant("n" + std::to_string(i + 1));
    MustAdd(&w->source, src_plus, {a, b}, span);
  }
  return w;
}

std::unique_ptr<Workload> MakeCascadeWorkload(const CascadeConfig& cfg) {
  auto w = std::make_unique<Workload>();
  const RelationId schain_plus = Unwrap(w->schema.AddRelationPair(
      "SChain", {"from", "to"}, SchemaRole::kSource));
  const RelationId sseed_plus = Unwrap(
      w->schema.AddRelationPair("SSeed", {"node"}, SchemaRole::kSource));
  const RelationId stok_plus = Unwrap(w->schema.AddRelationPair(
      "STok", {"node", "code"}, SchemaRole::kSource));
  const RelationId sb_plus = Unwrap(w->schema.AddRelationPair(
      "SB", {"key", "idx"}, SchemaRole::kSource));
  const RelationId next_plus = Unwrap(
      w->schema.AddRelationPair("Next", {"from", "to"}, SchemaRole::kTarget));
  const RelationId cur_plus = Unwrap(
      w->schema.AddRelationPair("Cur", {"node"}, SchemaRole::kTarget));
  const RelationId hop_plus = Unwrap(
      w->schema.AddRelationPair("Hop", {"node", "code"}, SchemaRole::kTarget));
  const RelationId token_plus = Unwrap(w->schema.AddRelationPair(
      "Token", {"node", "code"}, SchemaRole::kTarget));
  const RelationId b_plus = Unwrap(w->schema.AddRelationPair(
      "B", {"key", "idx", "tag"}, SchemaRole::kTarget));
  const RelationId schain = Unwrap(w->schema.TwinOf(schain_plus));
  const RelationId sseed = Unwrap(w->schema.TwinOf(sseed_plus));
  const RelationId stok = Unwrap(w->schema.TwinOf(stok_plus));
  const RelationId sb = Unwrap(w->schema.TwinOf(sb_plus));
  const RelationId next = Unwrap(w->schema.TwinOf(next_plus));
  const RelationId cur = Unwrap(w->schema.TwinOf(cur_plus));
  const RelationId hop = Unwrap(w->schema.TwinOf(hop_plus));
  const RelationId token = Unwrap(w->schema.TwinOf(token_plus));
  const RelationId b = Unwrap(w->schema.TwinOf(b_plus));

  Tgd copy_chain;
  copy_chain.label = "s1";
  copy_chain.body.atoms = {MakeAtom(schain, {Term::Var(0), Term::Var(1)})};
  copy_chain.head.atoms = {MakeAtom(next, {Term::Var(0), Term::Var(1)})};
  copy_chain.body.num_vars = copy_chain.head.num_vars = 2;
  copy_chain.body.var_names = {"x", "y"};
  if (!copy_chain.Finalize().ok()) abort();

  Tgd copy_seed;
  copy_seed.label = "s2";
  copy_seed.body.atoms = {MakeAtom(sseed, {Term::Var(0)})};
  copy_seed.head.atoms = {MakeAtom(cur, {Term::Var(0)})};
  copy_seed.body.num_vars = copy_seed.head.num_vars = 1;
  copy_seed.body.var_names = {"x"};
  if (!copy_seed.Finalize().ok()) abort();

  Tgd copy_token;
  copy_token.label = "s3";
  copy_token.body.atoms = {MakeAtom(stok, {Term::Var(0), Term::Var(1)})};
  copy_token.head.atoms = {MakeAtom(token, {Term::Var(0), Term::Var(1)})};
  copy_token.body.num_vars = copy_token.head.num_vars = 2;
  copy_token.body.var_names = {"x", "v"};
  if (!copy_token.Finalize().ok()) abort();

  const Value tag_w = w->universe.Constant("w");
  Tgd copy_ballast;
  copy_ballast.label = "s4";
  copy_ballast.body.atoms = {MakeAtom(sb, {Term::Var(0), Term::Var(1)})};
  copy_ballast.head.atoms = {
      MakeAtom(b, {Term::Var(0), Term::Var(1), Term::Val(tag_w)})};
  copy_ballast.body.num_vars = copy_ballast.head.num_vars = 2;
  copy_ballast.body.var_names = {"k", "j"};
  if (!copy_ballast.Finalize().ok()) abort();

  // t1: Cur(x) & Next(x, y) -> exists s: Hop(y, s); vars x=0, y=1, s=2.
  Tgd step;
  step.label = "t1";
  step.body.atoms = {MakeAtom(cur, {Term::Var(0)}),
                     MakeAtom(next, {Term::Var(0), Term::Var(1)})};
  step.head.atoms = {MakeAtom(hop, {Term::Var(1), Term::Var(2)})};
  step.body.num_vars = step.head.num_vars = 3;
  step.body.var_names = {"x", "y", "s"};
  if (!step.Finalize().ok()) abort();

  // t2: Hop(y, v) & Token(y, v) -> Cur(y) — gated on e1 merging the hop's
  // null into the token constant; fires one outer iteration after t1.
  Tgd advance;
  advance.label = "t2";
  advance.body.atoms = {MakeAtom(hop, {Term::Var(0), Term::Var(1)}),
                        MakeAtom(token, {Term::Var(0), Term::Var(1)})};
  advance.head.atoms = {MakeAtom(cur, {Term::Var(0)})};
  advance.body.num_vars = advance.head.num_vars = 2;
  advance.body.var_names = {"y", "v"};
  if (!advance.Finalize().ok()) abort();

  Egd resolve;
  resolve.label = "e1";
  resolve.body.atoms = {MakeAtom(hop, {Term::Var(0), Term::Var(1)}),
                        MakeAtom(token, {Term::Var(0), Term::Var(2)})};
  resolve.body.num_vars = 3;
  resolve.body.var_names = {"y", "s", "v"};
  resolve.x1 = 1;
  resolve.x2 = 2;
  if (!resolve.Finalize().ok()) abort();

  Egd ballast_agrees;
  ballast_agrees.label = "eB";
  ballast_agrees.body.atoms = {
      MakeAtom(b, {Term::Var(0), Term::Var(1), Term::Var(2)}),
      MakeAtom(b, {Term::Var(0), Term::Var(3), Term::Var(4)})};
  ballast_agrees.body.num_vars = 5;
  ballast_agrees.body.var_names = {"k", "j", "s", "j2", "s2"};
  ballast_agrees.x1 = 2;
  ballast_agrees.x2 = 4;
  if (!ballast_agrees.Finalize().ok()) abort();

  w->mapping.st_tgds = {std::move(copy_chain), std::move(copy_seed),
                        std::move(copy_token), std::move(copy_ballast)};
  w->mapping.target_tgds = {std::move(step), std::move(advance)};
  w->mapping.egds = {std::move(resolve), std::move(ballast_agrees)};
  if (!ValidateMapping(w->mapping, w->schema).ok()) abort();
  w->lifted = Unwrap(LiftMapping(w->mapping, w->schema));

  const Interval span(0, std::max<TimePoint>(cfg.horizon, 1));
  const Value tok = w->universe.Constant("tok");
  for (std::size_t i = 0; i < cfg.stages; ++i) {
    const Value a = w->universe.Constant("n" + std::to_string(i));
    const Value bnode = w->universe.Constant("n" + std::to_string(i + 1));
    MustAdd(&w->source, schain_plus, {a, bnode}, span);
    MustAdd(&w->source, stok_plus, {bnode, tok}, span);
  }
  MustAdd(&w->source, sseed_plus, {w->universe.Constant("n0")}, span);
  // Co-valid distinct facts per key: eB's key-only join pairs all of them,
  // so every full pass sweeps ballast_dup^2 homomorphisms per key, while
  // their shared interval makes each component's fragmentation a pure
  // copy. None of them is ever in a delta, so the incremental pass skips
  // the whole block — hom work grows quadratically in ballast_dup but
  // emission only linearly.
  const Interval covalid(0, 4);
  for (std::size_t k = 0; k < cfg.ballast_keys; ++k) {
    const Value key = w->universe.Constant("b" + std::to_string(k));
    for (std::size_t j = 0; j < cfg.ballast_dup; ++j) {
      std::string item = "i";
      item += std::to_string(j);
      MustAdd(&w->source, sb_plus, {key, w->universe.Constant(item)}, covalid);
    }
  }
  return w;
}

}  // namespace tdx
