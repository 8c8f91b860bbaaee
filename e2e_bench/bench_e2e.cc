// End-to-end exchange benchmark: generated program text through the public
// pipeline ParseProgram -> AnalyzeProgram -> CChase -> RenderConcreteInstance
// -> LiftUnionQuery + NaiveEvaluateConcrete, timed from outside and checked on
// every iteration. See README.md in this directory for the workloads, the
// metric map and how to read the trace.
//
//   bench_e2e --workload employment|closure|cascade --seed N --seconds S
//             --trace 0|1 [--expected FILE] [--trace-out FILE] [size flags]
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}: end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1. Everything runs single-threaded with library defaults.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/common/checkpoint.h"
#include "src/core/cchase.h"
#include "src/core/naive_eval.h"
#include "src/core/query.h"
#include "src/core/satisfaction.h"
#include "src/gen/workload.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/lexer.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/parser/serialize.h"

namespace {

using tdx::obs::Json;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_path;
  std::string trace_out;
  // Workload sizes (defaults are the committed benchmark sizes).
  std::size_t people = 4000;
  std::size_t companies = 50;
  std::size_t flights = 330;
  std::size_t airports = 60;
  std::size_t stages = 80;
  std::size_t ballast_keys = 1500;
  std::size_t ballast_dup = 4;
  // Self-test hook: erase one solution fact after every timed c-chase. The
  // set-up runs stay intact and pass, so the per-iteration fingerprint check
  // must report every timed iteration as failed.
  bool drop_fact = false;
  // Prints the case key and fingerprint of one checked run, then exits;
  // record_expected.py uses it to refresh expected.json.
  bool fingerprint_only = false;
};

constexpr const char* kUsage =
    "usage: bench_e2e --workload employment|closure|cascade [--seed N]\n"
    "  [--seconds S] [--trace 0|1] [--expected FILE] [--trace-out FILE]\n"
    "  [--people N] [--companies N]\n"
    "  [--flights N] [--airports N] [--stages N] [--ballast-keys N]\n"
    "  [--ballast-dup N] [--drop-fact] [--fingerprint-only]\n";

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--drop-fact") {
      o.drop_fact = true;
      continue;
    }
    if (flag == "--fingerprint-only") {
      o.fingerprint_only = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    // Finite and bounded, so the integer conversion below is defined.
    const bool numeric = end != value.c_str() && *end == '\0' &&
                         number >= 0 && number <= 1e15;
    const auto count = [&](std::size_t* out) {
      if (!numeric || number != std::floor(number)) return false;
      *out = static_cast<std::size_t>(number);
      return true;
    };
    std::size_t n = 0;
    bool ok = true;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      ok = count(&n);
      o.seed = n;
    } else if (flag == "--seconds") {
      ok = numeric;
      o.seconds = number;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--expected") {
      o.expected_path = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--people") {
      ok = count(&o.people);
    } else if (flag == "--companies") {
      ok = count(&o.companies) && o.companies > 0;
    } else if (flag == "--flights") {
      ok = count(&o.flights);
    } else if (flag == "--airports") {
      ok = count(&o.airports) && o.airports > 0;
    } else if (flag == "--stages") {
      ok = count(&o.stages);
    } else if (flag == "--ballast-keys") {
      ok = count(&o.ballast_keys);
    } else if (flag == "--ballast-dup") {
      ok = count(&o.ballast_dup);
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  if (o.workload != "employment" && o.workload != "closure" &&
      o.workload != "cascade") {
    return std::nullopt;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Workload generation: the program under test sees only this text.
// ---------------------------------------------------------------------------

/// The flight network the closure workload is built on. The closure's size
/// swings from 19K to 37K facts across generator seeds at 400 flights, so a
/// seed-driven network would make run-to-run spread a property of the seed;
/// instead --seed reorders this one network's facts.
constexpr std::uint64_t kClosureNetworkSeed = 9;

/// `facts` (one `fact` statement per line) in a seed-driven order: each seed
/// gives a different program text with the same solution.
std::string ShuffleLines(const std::string& facts, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream in(facts);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::mt19937_64 rng(seed);
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

struct Generated {
  std::string text;
  std::size_t source_facts = 0;
  std::vector<std::string> queries;  ///< query names, answered in order
  /// Names the workload and the sizes and seed that determine its text; the
  /// key into expected.json.
  std::string case_key;
};

tdx::Result<Generated> Generate(const Options& o) {
  Generated g;
  std::unique_ptr<tdx::Workload> w;
  std::string query_text;
  if (o.workload == "employment") {
    tdx::EmploymentConfig cfg;
    cfg.num_people = o.people;
    cfg.num_companies = o.companies;
    cfg.seed = o.seed;
    w = tdx::MakeEmploymentWorkload(cfg);
    // A per-person self-join only: a cross-person join on the company is
    // quadratic in the people per company.
    query_text =
        "query salaries(n, s): Emp(n, _, s);\n"
        "query moves(n, c, d): Emp(n, c, _) & Emp(n, d, _);\n";
    g.queries = {"salaries", "moves"};
    g.case_key = "employment people=" + std::to_string(o.people) +
                 " companies=" + std::to_string(o.companies) +
                 " seed=" + std::to_string(o.seed);
  } else if (o.workload == "closure") {
    tdx::FlightConfig cfg;
    cfg.num_flights = o.flights;
    cfg.num_airports = o.airports;
    cfg.seed = kClosureNetworkSeed;
    w = tdx::MakeFlightWorkload(cfg);
    query_text = "query reach(x, y): Reach(x, y);\n";
    g.queries = {"reach"};
    // Every seed orders the same network's facts: one committed case.
    g.case_key = "closure flights=" + std::to_string(o.flights) +
                 " airports=" + std::to_string(o.airports);
  } else {
    tdx::CascadeConfig cfg;
    cfg.stages = o.stages;
    cfg.ballast_keys = o.ballast_keys;
    cfg.ballast_dup = o.ballast_dup;
    w = tdx::MakeCascadeWorkload(cfg);
    query_text =
        "query reached(x): Cur(x);\n"
        "query tags(k, s): B(k, _, s);\n";
    g.queries = {"reached", "tags"};
    // The cascade generator takes no seed; --seed only orders the facts.
    g.case_key = "cascade stages=" + std::to_string(o.stages) +
                 " ballast_keys=" + std::to_string(o.ballast_keys) +
                 " ballast_dup=" + std::to_string(o.ballast_dup);
  }
  auto facts = tdx::SerializeInstanceFacts(w->source, w->universe);
  if (!facts.ok()) return facts.status();
  if (o.workload != "employment") *facts = ShuffleLines(*facts, o.seed);
  g.text = tdx::SerializeSchema(w->schema) +
           tdx::SerializeMapping(w->mapping, w->schema, w->universe) + *facts +
           query_text;
  g.source_facts = w->source.size();
  return g;
}

// ---------------------------------------------------------------------------
// One iteration of the pipeline
// ---------------------------------------------------------------------------

struct Iteration {
  std::string error;  ///< empty iff every call succeeded
  double parse_s = 0;
  double lint_s = 0;
  double cchase_s = 0;
  double render_s = 0;
  double query_s = 0;
  double solution_s() const { return parse_s + lint_s + cchase_s; }
  double e2e_s() const { return solution_s() + render_s + query_s; }

  std::size_t diagnostics = 0;
  std::size_t render_bytes = 0;
  std::size_t answers = 0;
  std::vector<std::vector<tdx::Tuple>> answer_sets;  ///< per query
  std::unique_ptr<tdx::ParsedProgram> program;
  std::optional<tdx::CChaseOutcome> outcome;
};

/// Runs `fn` inside a span named `span` and adds its wall time to `*secs`.
template <typename Fn>
auto Stage(const char* span, double* secs, Fn&& fn) {
  tdx::obs::TraceSpan trace_span(span);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  *secs += SecondsSince(start);
  return result;
}

Iteration RunPipeline(const Generated& g, bool drop_fact) {
  Iteration it;
  tdx::obs::TraceSpan iteration_span("bench.iteration");
  auto parsed = Stage("parser.parse", &it.parse_s,
                      [&] { return tdx::ParseProgram(g.text); });
  if (!parsed.ok()) {
    it.error = "parse: " + parsed.status().ToString();
    return it;
  }
  it.program = std::move(parsed).value();
  tdx::ParsedProgram& program = *it.program;

  const tdx::AnalysisReport report = Stage(
      "analysis.lint", &it.lint_s, [&] { return tdx::AnalyzeProgram(program); });
  it.diagnostics = report.diagnostics.size();
  if (report.HasErrors()) {
    it.error = "lint reported errors";
    return it;
  }

  auto chased = Stage("core.cchase", &it.cchase_s, [&] {
    return tdx::CChase(program.source, program.lifted, &program.universe);
  });
  if (!chased.ok()) {
    it.error = "cchase: " + chased.status().ToString();
    return it;
  }
  it.outcome.emplace(std::move(chased).value());
  if (it.outcome->kind != tdx::ChaseResultKind::kSuccess) {
    it.error = it.outcome->kind == tdx::ChaseResultKind::kFailure
                   ? "cchase failed: " + it.outcome->failure_reason
                   : "cchase aborted: " + it.outcome->abort_reason;
    return it;
  }
  tdx::ConcreteInstance& target = it.outcome->target;
  if (drop_fact) {
    const tdx::Instance& facts = target.facts();
    for (tdx::RelationId rel = 0; rel < facts.schema().relation_count();
         ++rel) {
      if (facts.facts(rel).size() == 0) continue;
      target.mutable_facts().Erase(facts.facts(rel)[0].ToFact());
      break;
    }
  }

  const std::string rendered =
      Stage("parser.render", &it.render_s, [&] {
        return tdx::RenderConcreteInstance(target, program.universe);
      });
  it.render_bytes = rendered.size();

  for (const std::string& name : g.queries) {
    auto answers = Stage(
        "core.query", &it.query_s,
        [&]() -> tdx::Result<std::vector<tdx::Tuple>> {
          auto query = program.FindQuery(name);
          if (!query.ok()) return query.status();
          auto lifted = tdx::LiftUnionQuery(**query, program.schema);
          if (!lifted.ok()) return lifted.status();
          return tdx::NaiveEvaluateConcrete(*lifted, target);
        });
    if (!answers.ok()) {
      it.error = "query " + name + ": " + answers.status().ToString();
      return it;
    }
    it.answers += answers->size();
    it.answer_sets.push_back(std::move(answers).value());
  }
  return it;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// What every correct iteration of one case reproduces exactly: the source
/// size, the solution's per-relation fact counts and, per query, the answer
/// count and a digest of the sorted rendered answers. Certain answers hold
/// no nulls and the digest sorts rendered lines, so neither null numbering
/// nor the order values are interned in can change it.
Json Fingerprint(const Generated& g, const Iteration& it) {
  Json fp = Json::Object();
  fp.Set("source_facts", Json::Uint(g.source_facts));
  Json counts = Json::Object();
  const tdx::Instance& facts = it.outcome->target.facts();
  const tdx::Schema& schema = facts.schema();
  for (tdx::RelationId rel = 0; rel < schema.relation_count(); ++rel) {
    const std::size_t n = facts.facts(rel).size();
    if (n != 0) counts.Set(schema.relation(rel).name, Json::Uint(n));
  }
  fp.Set("counts", std::move(counts));
  Json answers = Json::Object();
  for (std::size_t q = 0; q < g.queries.size(); ++q) {
    std::vector<std::string> lines;
    lines.reserve(it.answer_sets[q].size());
    for (const tdx::Tuple& tuple : it.answer_sets[q]) {
      lines.push_back(tdx::TupleToString(tuple, it.program->universe));
    }
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const std::string& line : lines) joined += line + "\n";
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      tdx::FingerprintText(joined)));
    Json entry = Json::Object();
    entry.Set("answers", Json::Uint(lines.size()));
    entry.Set("digest", Json::Str(digest));
    answers.Set(g.queries[q], std::move(entry));
  }
  fp.Set("queries", std::move(answers));
  return fp;
}

/// The fingerprint committed for `key` in expected.json, if any.
tdx::Result<std::optional<std::string>> LoadExpected(const std::string& path,
                                                     const std::string& key) {
  if (path.empty()) return std::optional<std::string>();
  std::ifstream in(path);
  if (!in) return tdx::Status::NotFound("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = tdx::obs::ParseJson(buffer.str());
  if (!doc.ok()) return doc.status();
  const Json* cases = doc->Find("cases");
  if (cases == nullptr || !cases->is_object()) {
    return tdx::Status::InvalidArgument(path + ": no \"cases\" object");
  }
  const Json* entry = cases->Find(key);
  if (entry == nullptr) return std::optional<std::string>();
  return std::optional<std::string>(entry->Dump());
}

/// The full check of a setup iteration: the library's chase-independent
/// solution oracle, then the fingerprint against the committed value.
std::string CheckSetupIteration(const Iteration& it, const std::string& fp,
                                const std::optional<std::string>& expected) {
  if (!it.error.empty()) return it.error;
  auto report = tdx::CheckSolution(it.program->source, it.outcome->target,
                                   it.program->mapping,
                                   &it.program->universe);
  if (!report.ok()) return "CheckSolution: " + report.status().ToString();
  if (!report->satisfied) {
    return "CheckSolution: not a solution (" + report->violation + ")";
  }
  if (expected.has_value() && fp != *expected) {
    return "fingerprint " + fp + " differs from expected " + *expected;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Traced-run analysis: per-iteration self times from the Chrome trace
// ---------------------------------------------------------------------------

/// Per traced iteration: self time per span name, plus the two inclusive
/// times the coverage checks need.
struct SpanTimes {
  std::map<std::string, double> self_s;
  double iteration_s = 0;         ///< bench.iteration duration
  double iteration_children_s = 0;
  double cchase_s = 0;            ///< core.cchase duration
  double cchase_phases_s = 0;     ///< children of the engine's cchase.run
};

/// Tie-break for spans that start and end in the same microsecond: the
/// benchmark's spans enclose the engine's, and cchase.run encloses its
/// phases.
int NestingRank(const std::string& name) {
  if (name == "bench.iteration") return 0;
  if (name == "cchase.run") return 2;
  if (name.rfind("cchase.", 0) == 0 || name.rfind("normalize.", 0) == 0) {
    return 3;
  }
  if (name.rfind("parser.", 0) == 0 || name.rfind("analysis.", 0) == 0 ||
      name.rfind("core.", 0) == 0) {
    return 1;
  }
  return 4;
}

tdx::Result<std::vector<SpanTimes>> AnalyzeTrace(const std::string& json) {
  auto doc = tdx::obs::ParseJson(json);
  if (!doc.ok()) return doc.status();
  const Json* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return tdx::Status::InvalidArgument("trace has no traceEvents array");
  }
  struct Event {
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    int rank = 0;
  };
  std::vector<Event> list;
  for (const Json& e : events->items()) {
    const Json* name = e.Find("name");
    const Json* ts = e.Find("ts");
    const Json* dur = e.Find("dur");
    if (name == nullptr || ts == nullptr || dur == nullptr) {
      return tdx::Status::InvalidArgument("trace event without name/ts/dur");
    }
    list.push_back({name->as_string(),
                    static_cast<std::uint64_t>(ts->as_number()),
                    static_cast<std::uint64_t>(dur->as_number()),
                    NestingRank(name->as_string())});
  }
  std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.dur != b.dur) return a.dur > b.dur;
    return a.rank < b.rank;
  });

  // Children sum per event, found with a containment stack (spans on one
  // thread nest strictly; jobs=1 keeps every span on this thread).
  std::vector<std::uint64_t> child_us(list.size(), 0);
  std::vector<std::size_t> parent(list.size(), SIZE_MAX);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < list.size(); ++i) {
    while (!stack.empty()) {
      const Event& top = list[stack.back()];
      if (list[i].ts >= top.ts &&
          list[i].ts + list[i].dur <= top.ts + top.dur) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      parent[i] = stack.back();
      child_us[stack.back()] += list[i].dur;
    }
    stack.push_back(i);
  }

  // Events after an iteration's span (the standalone lexer pass) belong to
  // that iteration.
  std::vector<SpanTimes> out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Event& e = list[i];
    if (e.name == "bench.iteration") out.emplace_back();
    if (out.empty()) continue;
    SpanTimes& t = out.back();
    t.self_s[e.name] += static_cast<double>(e.dur - child_us[i]) / 1e6;
    if (e.name == "bench.iteration") {
      t.iteration_s = static_cast<double>(e.dur) / 1e6;
      t.iteration_children_s = static_cast<double>(child_us[i]) / 1e6;
    } else if (e.name == "core.cchase") {
      t.cchase_s += static_cast<double>(e.dur) / 1e6;
    } else if (e.name == "cchase.run") {
      t.cchase_phases_s += static_cast<double>(child_us[i]) / 1e6;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class MetricsOut {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    Json m = Json::Object();
    m.Set("value", Json::Number(value));
    m.Set("unit", Json::Str(unit));
    metrics_.Set(name, std::move(m));
  }
  void AddCount(const std::string& name, std::uint64_t value) {
    Json m = Json::Object();
    m.Set("value", Json::Uint(value));
    m.Set("unit", Json::Str("count"));
    metrics_.Set(name, std::move(m));
  }
  Json Take() { return std::move(metrics_); }

 private:
  Json metrics_ = Json::Object();
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Set-ups per untraced run; setup_s is their median. A traced run, which
/// does not report setup_s, sets up once.
constexpr std::size_t kSetupReps = 15;

/// Timed iterations between two set-ups of an untraced run.
constexpr std::size_t kTimedPerSetUp = 2;

/// Timed iterations a run makes even when --seconds has already passed.
constexpr std::size_t kMinIterations = 3;

/// Registry counters the traced run reads, as deltas over one iteration.
constexpr const char* kRegistryCounters[] = {
    "normalize.incremental.passes",
    "normalize.incremental.full_passes",
    "normalize.incremental.homomorphisms",
    "normalize.incremental.dirty_components",
    "normalize.incremental.reused_components",
    "cchase.rounds",
    "cchase.tgd_triggers",
    "cchase.tgd_fires",
    "cchase.egd_steps",
    "cchase.values_rewritten",
    "cchase.fresh_nulls",
};

std::map<std::string, std::uint64_t> ReadCounters() {
  const tdx::obs::MetricsSnapshot snap =
      tdx::obs::MetricsRegistry::Instance().Snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kRegistryCounters) {
    const tdx::obs::MetricValue* v = snap.Find(name);
    out[name] = v != nullptr ? v->value : 0;
  }
  return out;
}

/// Exact per-iteration work counts for the per-layer report. Every traced
/// iteration must reproduce them.
std::map<std::string, std::uint64_t> IterationCounts(
    const Iteration& it, const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  const auto delta = [&](const char* name) {
    return after.at(name) - before.at(name);
  };
  const tdx::NormalizeStats& src = it.outcome->source_norm_stats;
  const tdx::IndexStats& search = it.outcome->stats.search;
  return {
      {"parser.render_bytes", it.render_bytes},
      {"analysis.diagnostics", it.diagnostics},
      {"core.normalize.source_facts_in", src.input_facts},
      {"core.normalize.source_facts_out", src.output_facts},
      {"core.normalize.source_homs", src.homomorphisms},
      {"core.normalize.passes", delta("normalize.incremental.passes")},
      {"core.normalize.full_passes",
       delta("normalize.incremental.full_passes")},
      {"core.normalize.homs", delta("normalize.incremental.homomorphisms")},
      {"core.normalize.dirty_components",
       delta("normalize.incremental.dirty_components")},
      {"core.normalize.reused_components",
       delta("normalize.incremental.reused_components")},
      {"relational.chase.rounds", delta("cchase.rounds")},
      {"relational.chase.triggers", delta("cchase.tgd_triggers")},
      {"relational.chase.fires", delta("cchase.tgd_fires")},
      {"relational.chase.egd_steps", delta("cchase.egd_steps")},
      {"relational.chase.values_rewritten", delta("cchase.values_rewritten")},
      {"relational.chase.fresh_nulls", delta("cchase.fresh_nulls")},
      {"relational.index.probes", search.index_probes},
      {"relational.index.candidates", search.index_candidates},
      {"relational.index.full_scans", search.full_scans},
      {"core.query.answers", it.answers},
  };
}

/// Per-layer self times: a metric sums the self times of its spans.
/// Benchmark spans wrap the public calls; cchase.* and normalize.* are the
/// engine's own spans, read as their children.
struct LayerSpans {
  const char* metric;
  const char* spans[2];  ///< unused slots are null
};
const LayerSpans kLayers[] = {
    {"parser.parse_s", {"parser.parse"}},
    {"parser.lex_s", {"parser.lex"}},
    {"analysis.lint_s", {"analysis.lint"}},
    {"core.normalize_source_s", {"cchase.normalize_source"}},
    {"relational.st_tgd_s", {"cchase.st_tgd"}},
    {"core.normalize_target_s",
     {"cchase.normalize_pass", "normalize.incremental"}},
    {"relational.tgd_round_s", {"cchase.tgd_round"}},
    {"relational.egd_fixpoint_s", {"cchase.egd_fixpoint"}},
    {"parser.render_s", {"parser.render"}},
    {"core.query_s", {"core.query"}},
};

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

/// The speed of a shared host drifts by up to 1.7x over minutes: on a shared
/// 4-vCPU x86-64 host, the same cascade iteration took 0.50 s in one half
/// hour and 0.31 s in the next (README.md, Steadiness). So a fixed reference
/// kernel runs after every timed sample, and a sample is reported as
/// sample / kernel * kReferenceSeconds, where kernel is the mean of the
/// kernel runs just before and just after it: the time the sample would take
/// on a host where the kernel takes kReferenceSeconds.
constexpr double kReferenceSeconds = 0.04;

/// Work of the same kinds as the pipeline's, written without the library so
/// that no change to the library changes it: tokenize fact text and intern
/// its tokens, then join hash-set facts to a fixpoint (transitive closures of
/// random graphs). Its inputs are fixed; --seed does not change them. It
/// allocates only from its own arena, so it neither shares the heap with the
/// pipeline nor moves peak_rss_mb by more than a constant.
class ReferenceKernel {
 public:
  ReferenceKernel() : arena_(new std::byte[kArenaBytes]) {
    std::mt19937_64 rng(20160626);
    for (int i = 0; i < kLines; ++i) {
      text_ += "fact E(\"p" + std::to_string(rng() % 5000) + "\", \"c" +
               std::to_string(rng() % 50) + "\") @ [" +
               std::to_string(rng() % 30) + ", inf);\n";
    }
    graphs_.resize(kGraphs);
    for (auto& edges : graphs_) {
      edges.resize(kNodes);
      for (int i = 0; i < kNodes * 3 / 2; ++i) {
        edges[rng() % kNodes].push_back(
            static_cast<std::uint32_t>(rng() % kNodes));
      }
    }
  }

  /// Wall seconds of one run.
  double Run() {
    const Clock::time_point start = Clock::now();
    std::size_t work = 0;
    for (int i = 0; i < kTokenizeReps; ++i) work += Tokenize();
    for (const Graph& edges : graphs_) work += Closure(edges);
    const double secs = SecondsSince(start);
    if (work_ != 0 && work != work_) std::abort();  // inputs are fixed
    work_ = work;
    return secs;
  }

 private:
  using Graph = std::vector<std::vector<std::uint32_t>>;
  static constexpr int kLines = 60000;
  static constexpr int kTokenizeReps = 1;
  static constexpr int kGraphs = 1;
  static constexpr int kNodes = 700;
  static constexpr std::size_t kArenaBytes = std::size_t{48} << 20;

  static bool IsWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '"';
  }

  /// An arena over arena_, released when it goes out of scope. Running out
  /// of it throws: the kernel's inputs are fixed, so it never does.
  std::pmr::monotonic_buffer_resource Arena() const {
    return std::pmr::monotonic_buffer_resource(
        arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
  }

  /// Token count plus distinct token count.
  std::size_t Tokenize() const {
    std::pmr::monotonic_buffer_resource arena = Arena();
    std::pmr::unordered_map<std::pmr::string, std::uint32_t> ids(&arena);
    std::pmr::vector<std::uint32_t> tokens(&arena);
    std::size_t i = 0;
    while (i < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[i])) != 0) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      if (IsWordChar(text_[i])) {
        while (j < text_.size() && IsWordChar(text_[j])) ++j;
      }
      const auto id = static_cast<std::uint32_t>(ids.size());
      tokens.push_back(
          ids.try_emplace(std::pmr::string(text_.substr(i, j - i), &arena), id)
              .first->second);
      i = j;
    }
    return tokens.size() + ids.size();
  }

  /// Size of the transitive closure of `edges`, computed semi-naively.
  std::size_t Closure(const Graph& edges) const {
    std::pmr::monotonic_buffer_resource arena = Arena();
    std::pmr::unordered_set<std::uint64_t> reach(&arena);
    std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>> delta(&arena);
    std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>> next(&arena);
    const auto add = [&](std::uint32_t a, std::uint32_t b) {
      if (reach.insert(std::uint64_t{a} << 32 | b).second) {
        next.emplace_back(a, b);
      }
    };
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b : edges[a]) add(a, b);
    }
    while (!next.empty()) {
      delta.swap(next);
      next.clear();
      for (const auto& [a, b] : delta) {
        for (std::uint32_t c : edges[b]) add(a, c);
      }
    }
    return reach.size();
  }

  std::unique_ptr<std::byte[]> arena_;  // uninitialized: pages stay untouched
                                        // until the kernel first uses them
  std::string text_;
  std::vector<Graph> graphs_;
  std::size_t work_ = 0;
};

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct RunState {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void Record(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(error);
  }
};

int Run(const Options& o) {
  RunState state;
  ReferenceKernel kernel;
  std::vector<double> kernel_s{kernel.Run()};  // every kernel run, in order
  // Runs the kernel after a sample; returns the sample's scale factor.
  const auto reference_scale = [&] {
    kernel_s.push_back(kernel.Run());
    const double around = (kernel_s.end()[-2] + kernel_s.back()) / 2;
    return kReferenceSeconds / around;
  };

  // ---- Set-up: generate, serialize, warm up, check. Returns false when
  // the run cannot go on. ---------------------------------------------------
  std::optional<Generated> gen;
  std::optional<std::string> reference;  // fingerprint every iteration hits
  std::vector<double> setup_s;  // at reference speed
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    gen.reset();  // so a repeated set-up does not hold two programs at once
    auto generated = Generate(o);
    if (!generated.ok()) {
      std::cerr << "generation failed: " << generated.status() << "\n";
      return false;
    }
    gen = std::move(generated).value();
    auto expected = LoadExpected(o.expected_path, gen->case_key);
    if (!expected.ok()) {
      std::cerr << "expected values: " << expected.status() << "\n";
      return false;
    }
    const Iteration warm = RunPipeline(*gen, /*drop_fact=*/false);
    const std::string fp =
        warm.error.empty() ? Fingerprint(*gen, warm).Dump() : "";
    std::string error = CheckSetupIteration(warm, fp, *expected);
    if (error.empty() && reference.has_value() && fp != *reference) {
      error = "set-up fingerprint changed between repetitions";
    }
    state.Record(error);
    // Later iterations must reproduce the committed fingerprint or, for a
    // case without one, that of the first set-up run that passed the check.
    if (!reference.has_value() && error.empty()) reference = fp;
    const double wall = SecondsSince(start);
    setup_s.push_back(wall * reference_scale());
    return true;
  };

  if (!set_up()) return 1;
  if (o.fingerprint_only) {
    Json out = Json::Object();
    out.Set("case", Json::Str(gen->case_key));
    out.Set("correct", Json::Bool(reference.has_value()));
    auto parsed = tdx::obs::ParseJson(reference.value_or("null"));
    out.Set("fingerprint", parsed.ok() ? *parsed : Json::Null());
    for (const std::string& error : state.errors) std::cerr << error << "\n";
    std::cout << out.Dump() << "\n";
    return reference.has_value() ? 0 : 1;
  }
  std::cout << "workload " << gen->case_key << ": " << gen->source_facts
            << " source facts, " << gen->text.size() << " bytes of text\n";

  const auto check = [&](const Iteration& it) {
    if (!it.error.empty()) return it.error;
    if (!reference.has_value()) return std::string("no set-up run passed");
    if (Fingerprint(*gen, it).Dump() != *reference) {
      return std::string("solution or answers differ from the checked run");
    }
    return std::string();
  };

  MetricsOut metrics;
  const Clock::time_point loop_start = Clock::now();
  const auto keep_going = [&](std::size_t done) {
    return done < kMinIterations || SecondsSince(loop_start) < o.seconds;
  };

  if (!o.trace) {
    // ---- Timed iterations, no tracer installed. --------------------------
    // The first set-up ran before the first timed iteration. The others are
    // spread over the run, one after every kTimedPerSetUp timed iterations,
    // so setup_s samples the host's speed over the same stretch as e2e_s.
    // Times are at reference speed; wall_e2e is printed only.
    std::vector<double> e2e, solution, answer, wall_e2e;
    while (keep_going(e2e.size())) {
      const Iteration it = RunPipeline(*gen, o.drop_fact);
      state.Record(check(it));
      const double scale = reference_scale();
      wall_e2e.push_back(it.e2e_s());
      e2e.push_back(it.e2e_s() * scale);
      solution.push_back(it.solution_s() * scale);
      answer.push_back(it.query_s * scale);
      if (setup_s.size() < kSetupReps && e2e.size() % kTimedPerSetUp == 0 &&
          !set_up()) {
        return 1;
      }
    }
    while (setup_s.size() < kSetupReps) {
      if (!set_up()) return 1;
    }
    // The high-water mark of the whole run, read after the last iteration.
    // It climbs while the heap fragments (employment, seed 1: 62, 92, 96,
    // 96, 98 MB after each of the first five iterations), so an early
    // reading would miss what later iterations keep or add. Ten 30 s
    // employment runs ended within 121-126 MB.
    const double peak_rss_mb = PeakRssMb();
    const double e2e_median = Median(e2e);
    std::printf("e2e_s median %.6f over %zu iterations (min %.6f, max %.6f)\n",
                e2e_median, e2e.size(),
                *std::min_element(e2e.begin(), e2e.end()),
                *std::max_element(e2e.begin(), e2e.end()));
    std::printf("wall clock: e2e median %.6f s, reference kernel median "
                "%.6f s (kReferenceSeconds %.3f)\n",
                Median(wall_e2e), Median(kernel_s), kReferenceSeconds);
    std::printf("error_rate %zu/%zu\n", state.failed, state.attempted);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("e2e_s", e2e_median, "s");
    metrics.Add("solution_s", Median(solution), "s");
    metrics.Add("answer_s", Median(answer), "s");
    metrics.Add("facts_per_s",
                Ratio(static_cast<double>(gen->source_facts), e2e_median),
                "1/s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // ---- Traced run: untraced and traced iterations alternate, so the
    // difference of their medians is the tracing overhead. -----------------
    tdx::obs::Tracer tracer;
    std::vector<double> untraced_e2e, traced_e2e;
    std::optional<std::map<std::string, std::uint64_t>> counts;
    while (keep_going(traced_e2e.size())) {
      {
        const Iteration it = RunPipeline(*gen, o.drop_fact);
        state.Record(check(it));
        untraced_e2e.push_back(it.e2e_s());
      }
      const auto before = ReadCounters();
      tdx::obs::ScopedTracer install(&tracer);
      const Iteration it = RunPipeline(*gen, o.drop_fact);
      std::string error = check(it);
      traced_e2e.push_back(it.e2e_s());
      if (error.empty()) {
        const auto now = IterationCounts(it, before, ReadCounters());
        if (counts.has_value() && *counts != now) {
          error = "per-layer counts differ between iterations";
        }
        counts = now;
      }
      state.Record(error);
      // The lexer alone, outside the iteration span: ParseProgram tokenizes
      // internally, so this is the lexing share of parser.parse.
      tdx::obs::TraceSpan lex_span("parser.lex");
      if (!tdx::Tokenize(gen->text).ok()) state.Record("Tokenize failed");
    }
    const std::string trace_json = tracer.ToChromeTraceJson();
    if (!o.trace_out.empty()) {
      std::ofstream out(o.trace_out);
      out << trace_json << "\n";
      if (!out) state.Record("cannot write trace to " + o.trace_out);
    }
    auto spans = AnalyzeTrace(trace_json);
    if (!spans.ok() || spans->size() != traced_e2e.size()) {
      state.Record("trace analysis: " + (spans.ok()
                                             ? std::string("iteration count")
                                             : spans.status().ToString()));
      spans = std::vector<SpanTimes>();
    }

    const auto median_of = [&](const auto& get) {
      std::vector<double> v;
      for (const SpanTimes& t : *spans) v.push_back(get(t));
      return Median(v);
    };
    const double iteration_s =
        median_of([](const SpanTimes& t) { return t.iteration_s; });
    // Coverage is asserted on the median iteration: a preemption that lands
    // in the ~1% of an iteration between spans must not fail the run.
    const double iteration_cov = median_of([](const SpanTimes& t) {
      return Ratio(t.iteration_children_s, t.iteration_s);
    });
    const double cchase_cov = median_of([](const SpanTimes& t) {
      return Ratio(t.cchase_phases_s, t.cchase_s);
    });
    if (iteration_cov < 0.95) {
      state.Record("benchmark spans cover under 95% of an iteration");
    }
    if (cchase_cov < 0.95) {
      state.Record("cchase.* spans cover under 95% of core.cchase_s");
    }

    // Self-time table over every span name, then the named layers.
    std::map<std::string, double> span_self;
    for (const SpanTimes& t : *spans) {
      for (const auto& [name, secs] : t.self_s) span_self[name] = 0;
    }
    for (auto& [name, secs] : span_self) {
      secs = median_of([&](const SpanTimes& t) {
        auto found = t.self_s.find(name);
        return found == t.self_s.end() ? 0.0 : found->second;
      });
    }
    std::printf("span self times, median of %zu traced iterations "
                "(iteration %.6f s):\n",
                spans->size(), iteration_s);
    for (const auto& [name, secs] : span_self) {
      std::printf("  %-28s %10.6f s %6.2f%%\n", name.c_str(), secs,
                  100 * Ratio(secs, iteration_s));
    }
    std::printf("layer self times:\n");
    for (const LayerSpans& layer : kLayers) {
      const double secs = median_of([&](const SpanTimes& t) {
        double sum = 0;
        for (const char* name : layer.spans) {
          if (name == nullptr) continue;
          auto found = t.self_s.find(name);
          if (found != t.self_s.end()) sum += found->second;
        }
        return sum;
      });
      std::printf("  %-28s %10.6f s %6.2f%%\n", layer.metric, secs,
                  100 * Ratio(secs, iteration_s));
      metrics.Add(layer.metric, secs, "s");
    }
    const double cchase_s =
        median_of([](const SpanTimes& t) { return t.cchase_s; });
    std::printf("coverage (median iteration): benchmark spans %.2f%% of the "
                "iteration, cchase.* phases %.2f%% of core.cchase_s\n",
                100 * iteration_cov, 100 * cchase_cov);

    const double overhead = Median(traced_e2e) - Median(untraced_e2e);
    std::printf("tracing overhead %.6f s (traced e2e %.6f s - untraced "
                "%.6f s)\n",
                overhead, Median(traced_e2e), Median(untraced_e2e));

    metrics.Add("core.cchase_s", cchase_s, "s");
    metrics.Add("parser.parse_mb_per_s",
                Ratio(static_cast<double>(gen->text.size()) / 1e6,
                      span_self["parser.parse"]),
                "MB/s");
    if (!counts.has_value()) counts.emplace();
    for (const auto& [name, value] : *counts) metrics.AddCount(name, value);
    const auto count = [&](const char* name) {
      auto found = counts->find(name);
      return found == counts->end() ? 0.0
                                    : static_cast<double>(found->second);
    };
    const double reused = count("core.normalize.reused_components");
    metrics.Add("core.normalize.reuse_ratio",
                Ratio(reused, reused + count("core.normalize.dirty_components")),
                "ratio");
    metrics.Add("relational.chase.fire_ratio",
                Ratio(count("relational.chase.fires"),
                      count("relational.chase.triggers")),
                "ratio");
    metrics.Add("relational.index.candidates_per_probe",
                Ratio(count("relational.index.candidates"),
                      count("relational.index.probes")),
                "ratio");
    metrics.Add("obs.tracing_overhead_s", overhead, "s");
    metrics.Add("bench.iteration_coverage", iteration_cov, "ratio");
    metrics.Add("core.cchase_coverage", cchase_cov, "ratio");
  }

  for (const std::string& error : state.errors) {
    std::cout << "check failed: " << error << "\n";
  }
  Json result = Json::Object();
  result.Set("correct", Json::Bool(state.failed == 0));
  result.Set("attempted", Json::Uint(state.attempted));
  result.Set("failed", Json::Uint(state.failed));
  result.Set("metrics", metrics.Take());
  std::cout << result.Dump() << std::endl;
  return state.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::cerr << kUsage;
    return 2;
  }
  return Run(*options);
}
