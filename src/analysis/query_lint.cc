#include "analysis/query_lint.h"

#include <numeric>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sparql/query_graph.h"

namespace shapestats::analysis {

Diagnostics QueryLint::Lint(const sparql::ParsedQuery& /*query*/,
                            const sparql::EncodedBgp& bgp) const {
  static obs::Counter* lint_warnings =
      obs::MetricsRegistry::Global().GetCounter("analysis.lint_warnings");
  Diagnostics out;

  // Connected components of the join graph (patterns as nodes, shared
  // variables as edges): more than one component forces Cartesian products
  // regardless of the join order the planner picks.
  const size_t n = bgp.patterns.size();
  if (n > 1) {
    std::vector<size_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&parent](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (sparql::Joinable(bgp.patterns[a], bgp.patterns[b])) {
          parent[find(a)] = find(b);
        }
      }
    }
    size_t components = 0;
    for (size_t i = 0; i < n; ++i) {
      if (find(i) == i) ++components;
    }
    if (components > 1) {
      out.push_back({Severity::kWarning, "query.cartesian", "query",
                     "the BGP has " + std::to_string(components) +
                         " disconnected components; every plan needs " +
                         std::to_string(components - 1) +
                         " Cartesian product(s)"});
    }
  }

  if (!out.empty()) lint_warnings->Add(out.size());
  return out;
}

}  // namespace shapestats::analysis
