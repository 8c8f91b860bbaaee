// Experiment C-CORE (Section 7 future work; Fagin-Kolaitis-Popa cores).
//
// Measures core computation on chase results and on deliberately redundant
// instances:
//  * chase results of the employment mapping are (near-)cores already —
//    the bench quantifies the cost of *certifying* that (one full
//    endomorphism search that finds nothing to fold);
//  * instances padded with k redundant null rows per complete row measure
//    the folding path (k rounds of proper endomorphisms).

#include <benchmark/benchmark.h>

#include "src/core/cchase.h"
#include "src/core/solution_core.h"
#include "src/gen/workload.h"

namespace {

void BM_CoreOfChaseResult(benchmark::State& state) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(state.range(0));
  cfg.horizon = 60;
  cfg.seed = 17;
  auto w = tdx::MakeEmploymentWorkload(cfg);
  auto chase = tdx::CChase(w->source, w->lifted, &w->universe);
  if (!chase.ok() || chase->kind == tdx::ChaseResultKind::kFailure) {
    state.SkipWithError("chase failed");
    return;
  }
  tdx::CoreStats stats;
  for (auto _ : state) {
    tdx::ConcreteInstance core =
        tdx::ComputeConcreteCore(chase->target, &stats);
    benchmark::DoNotOptimize(core);
  }
  state.counters["facts"] = static_cast<double>(chase->target.size());
  state.counters["removed"] = static_cast<double>(stats.facts_removed);
}
BENCHMARK(BM_CoreOfChaseResult)->Arg(10)->Arg(25)->Arg(50);

void BM_CoreOfRedundantInstance(benchmark::State& state) {
  // One complete row plus k redundant null rows per entity.
  const std::int64_t redundancy = state.range(0);
  tdx::Universe u;
  tdx::Schema schema;
  const tdx::RelationId emp = *schema.AddRelation(
      "Emp", {"name", "company", "salary"}, tdx::SchemaRole::kTarget);
  tdx::Instance instance(&schema);
  for (int person = 0; person < 20; ++person) {
    std::string person_name = "p";
    person_name += std::to_string(person);
    std::string company_name = "c";
    company_name += std::to_string(person % 3);
    const tdx::Value name = u.Constant(person_name);
    const tdx::Value company = u.Constant(company_name);
    instance.Insert(emp, {name, company, u.Constant("10k")});
    for (std::int64_t k = 0; k < redundancy; ++k) {
      instance.Insert(emp, {name, company, u.FreshNull()});
    }
  }
  tdx::CoreStats stats;
  for (auto _ : state) {
    tdx::Instance core = tdx::ComputeCore(instance, &stats);
    benchmark::DoNotOptimize(core);
  }
  state.counters["in_facts"] = static_cast<double>(instance.size());
  state.counters["removed"] = static_cast<double>(stats.facts_removed);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
}
BENCHMARK(BM_CoreOfRedundantInstance)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
