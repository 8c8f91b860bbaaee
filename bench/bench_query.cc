// Experiment C-QA (Section 5): naive evaluation throughput on concrete
// solutions, and the cost split between per-disjunct normalization and
// match enumeration.
//
// certain(q, [[Ic]], M) = [[q+(Jc)!]] (Corollary 22): answering over the
// compact concrete solution replaces an unbounded number of per-snapshot
// evaluations; BM_SnapshotEval shows what one snapshot costs for contrast.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/core/cchase.h"
#include "src/core/naive_eval.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"

namespace {

struct Setup {
  std::unique_ptr<tdx::Workload> workload;
  std::unique_ptr<tdx::ConcreteInstance> solution;
  tdx::UnionQuery lifted;
};

Setup MakeSetup(std::int64_t people) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(people);
  cfg.num_companies = 10;
  cfg.avg_jobs = 3;
  cfg.horizon = 100;
  cfg.salary_known_fraction = 0.7;
  cfg.seed = 5;
  Setup setup{tdx::MakeEmploymentWorkload(cfg), nullptr, {}};
  auto outcome = tdx::CChase(setup.workload->source, setup.workload->lifted,
                             &setup.workload->universe);
  setup.solution = std::make_unique<tdx::ConcreteInstance>(
      std::move(outcome).value().target);

  const tdx::RelationId emp = *setup.workload->schema.Find("Emp");
  tdx::ConjunctiveQuery q;
  q.name = "salaries";
  tdx::Atom atom;
  atom.rel = emp;
  atom.terms = {tdx::Term::Var(0), tdx::Term::Var(1), tdx::Term::Var(2)};
  q.body.atoms = {atom};
  q.body.num_vars = 3;
  q.head = {0, 2};
  tdx::UnionQuery uq;
  uq.name = q.name;
  uq.disjuncts = {q};
  setup.lifted =
      std::move(tdx::LiftUnionQuery(uq, setup.workload->schema)).value();
  return setup;
}

/// Value of a registry counter so far in this process.
std::uint64_t RegistryCounter(const char* name) {
  const tdx::obs::MetricsSnapshot snap =
      tdx::obs::MetricsRegistry::Instance().Snapshot();
  const tdx::obs::MetricValue* v = snap.Find(name);
  return v != nullptr ? v->value : 0;
}

// The c-chase solution is certified normalized for the one-atom query, so
// every evaluation skips its normalization pass; `certified_passes` (per
// evaluation) is gated in CI at >= 1 so a fallback to the hom sweep shows.
void BM_NaiveEvalConcrete(benchmark::State& state) {
  Setup setup = MakeSetup(state.range(0));
  std::size_t answers = 0;
  const std::uint64_t certified_before =
      RegistryCounter("normalize.certified_passes");
  for (auto _ : state) {
    auto result = tdx::NaiveEvaluateConcrete(setup.lifted, *setup.solution);
    benchmark::DoNotOptimize(result);
    if (result.ok()) answers = result->size();
  }
  state.counters["solution_facts"] =
      static_cast<double>(setup.solution->size());
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["certified_passes"] =
      static_cast<double>(RegistryCounter("normalize.certified_passes") -
                          certified_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_NaiveEvalConcrete)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// A two-atom join query: P(n, c, s) at time t joined with itself on the
// company — stresses normalization w.r.t. the query and the match engine.
void BM_NaiveEvalJoinQuery(benchmark::State& state) {
  Setup setup = MakeSetup(state.range(0));
  const tdx::RelationId emp = *setup.workload->schema.Find("Emp");
  tdx::ConjunctiveQuery q;
  q.name = "colleagues";
  tdx::Atom a1, a2;
  a1.rel = emp;
  a1.terms = {tdx::Term::Var(0), tdx::Term::Var(1), tdx::Term::Var(2)};
  a2.rel = emp;
  a2.terms = {tdx::Term::Var(3), tdx::Term::Var(1), tdx::Term::Var(4)};
  q.body.atoms = {a1, a2};
  q.body.num_vars = 5;
  q.head = {0, 3};
  tdx::UnionQuery uq;
  uq.name = q.name;
  uq.disjuncts = {q};
  auto lifted = tdx::LiftUnionQuery(uq, setup.workload->schema);

  std::size_t answers = 0;
  for (auto _ : state) {
    auto result = tdx::NaiveEvaluateConcrete(*lifted, *setup.solution);
    benchmark::DoNotOptimize(result);
    if (result.ok()) answers = result->size();
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_NaiveEvalJoinQuery)->Arg(25)->Arg(50)->Arg(100);

// Contrast: evaluating the non-temporal query on ONE materialized snapshot.
void BM_SnapshotEval(benchmark::State& state) {
  Setup setup = MakeSetup(state.range(0));
  auto ja = tdx::AbstractInstance::FromConcrete(*setup.solution);
  if (!ja.ok()) {
    state.SkipWithError("FromConcrete failed");
    return;
  }
  tdx::UnionQuery snapshot_query;
  snapshot_query.name = "salaries";
  snapshot_query.disjuncts = {setup.lifted.disjuncts[0]};
  // De-lift: rebuild the non-temporal query.
  const tdx::RelationId emp = *setup.workload->schema.Find("Emp");
  tdx::ConjunctiveQuery q;
  tdx::Atom atom;
  atom.rel = emp;
  atom.terms = {tdx::Term::Var(0), tdx::Term::Var(1), tdx::Term::Var(2)};
  q.body.atoms = {atom};
  q.body.num_vars = 3;
  q.head = {0, 2};
  snapshot_query.disjuncts = {q};

  for (auto _ : state) {
    auto answers = tdx::NaiveEvaluateAbstractAt(snapshot_query, *ja, 50,
                                                &setup.workload->universe);
    benchmark::DoNotOptimize(answers);
  }
}
BENCHMARK(BM_SnapshotEval)->Arg(100);

}  // namespace
