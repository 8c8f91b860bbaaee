// Shared helpers for the tdx test suite.

#ifndef TDX_TESTS_TEST_UTIL_H_
#define TDX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/normalize_detail.h"
#include "src/core/normalize_incremental.h"
#include "src/parser/parser.h"
#include "src/temporal/concrete_instance.h"

namespace tdx::testing {

/// The paper's running example: Example 1/6 mapping and the Figure 4 source
/// instance, plus the query of Section 5 style.
inline constexpr std::string_view kPaperProgram = R"(
  # Example 1 / Example 6 of the paper.
  source E(name, company);
  source S(name, salary);
  target Emp(name, company, salary);

  tgd sigma1: E(n, c) -> exists s: Emp(n, c, s);
  tgd sigma2: E(n, c) & S(n, s) -> Emp(n, c, s);
  egd e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2;

  # Figure 4.
  fact E("Ada", "IBM")    @ [2012, 2014);
  fact E("Ada", "Google") @ [2014, inf);
  fact E("Bob", "IBM")    @ [2013, 2018);
  fact S("Ada", "18k")    @ [2013, inf);
  fact S("Bob", "13k")    @ [2015, inf);

  query salaries(n, s): Emp(n, _, s);
)";

/// `prefix` followed by the decimal `n`, e.g. Numbered("p", 3) == "p3".
inline std::string Numbered(std::string_view prefix, long long n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Parses or fails the test.
inline std::unique_ptr<ParsedProgram> ParseOrDie(std::string_view text) {
  auto result = ParseProgram(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

/// True if `instance` contains a fact over the relation named `rel` whose
/// data arguments are the given constants (by spelling) and whose interval
/// is `iv`. Positions holding "_" match any value.
inline bool HasConcreteFact(const ConcreteInstance& instance,
                            const Universe& u, std::string_view rel,
                            const std::vector<std::string>& data,
                            const Interval& iv) {
  auto rel_id = instance.schema().Find(rel);
  if (!rel_id.ok()) return false;
  bool found = false;
  for (const FactView fact : instance.facts().facts(*rel_id)) {
    if (fact.interval() != iv) continue;
    if (fact.arity() != data.size() + 1) continue;
    bool match = true;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data[i] == "_") continue;
      if (u.Render(fact.arg(i)) != data[i]) {
        match = false;
        break;
      }
    }
    if (match) found = true;
  }
  return found;
}

/// Counts facts of a relation.
inline std::size_t CountFacts(const ConcreteInstance& instance,
                              std::string_view rel) {
  auto rel_id = instance.schema().Find(rel);
  if (!rel_id.ok()) return 0;
  return instance.facts().facts(*rel_id).size();
}

/// Checks the sort-and-sweep certificate of normalize.h on `instance`
/// against the hom sweep, which a NormalizeState pass always runs: when the
/// certificate holds, `instance` must have the empty intersection property
/// and the reference pass must return it unchanged; either way the free
/// Normalize must produce the reference's output. Returns whether the
/// certificate held.
inline bool CheckCertificate(const ConcreteInstance& instance,
                             const std::vector<Conjunction>& phis,
                             const Universe& u) {
  const bool certified =
      normalize_detail::CertifyNormalized(instance, phis);
  ConcreteInstance reference = instance;
  NormalizeState state;
  NormalizeStats stats;
  state.Normalize(&reference, phis, &stats);
  const std::string expected = reference.facts().ToString(u);
  if (certified) {
    EXPECT_TRUE(HasEmptyIntersectionProperty(instance, phis));
    EXPECT_EQ(stats.output_facts, stats.input_facts);
    EXPECT_EQ(expected, instance.facts().ToString(u));
  }
  EXPECT_EQ(Normalize(instance, phis).facts().ToString(u), expected);
  return certified;
}

}  // namespace tdx::testing

#endif  // TDX_TESTS_TEST_UTIL_H_
