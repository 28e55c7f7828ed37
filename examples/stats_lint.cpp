// stats_lint: static invariant analysis for the statistics artifacts that
// drive shape-statistics query optimization, plus optional query linting.
//
// Checks (see src/analysis/stats_audit.h for the rule catalog):
//   * global extended-VoID statistics: DSC/DOC <= count, per-predicate
//     counts contained in and summing to the dataset triple count,
//     rdf:type aggregates consistent;
//   * annotated SHACL shapes: distinctCount <= count, minCount/maxCount
//     bounds vs the node count, node/property counts contained in the
//     global statistics;
//   * optionally, a SPARQL query: the shape-aware satisfiability verdict
//     with its findings (missing constants, unknown predicates, empty
//     classes, ...; see src/analysis/shape_check.h) plus forced Cartesian
//     products (src/analysis/query_lint.h), each fact reported once;
//   * or a whole query corpus (--queries <file>): queries separated by
//     blank lines, '#' comment lines ignored. Each query gets lint +
//     shape check; the JSON report is machine-readable for CI gating.
//
// Usage:
//   stats_lint [--json] [--query <sparql>] [--queries <file>]
//              [data.nt [shapes.ttl]]
//
// With no data file a demo LUBM dataset is generated. Without shapes.ttl
// the shapes are generated from the data and annotated (so the audit sees
// the same artifacts the query engine would build). Exit status: 0 clean,
// 1 if any error-severity diagnostic fired, 2 on usage/load/parse failure.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/query_lint.h"
#include "analysis/shape_check.h"
#include "analysis/stats_audit.h"
#include "datagen/lubm.h"
#include "obs/metrics.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "util/file_view.h"
#include "util/string_util.h"

using namespace shapestats;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--query <sparql>] [--queries <file>] "
               "[data.nt [shapes.ttl]]\n",
               argv0);
  return 2;
}

// Splits a query corpus: queries separated by one or more blank lines,
// '#' comment lines dropped.
std::vector<std::string> SplitCorpus(const std::string& text) {
  std::vector<std::string> queries;
  std::string current;
  std::istringstream in(text);
  std::string line;
  auto flush = [&]() {
    if (current.find_first_not_of(" \t\r\n") != std::string::npos) {
      queries.push_back(current);
    }
    current.clear();
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      flush();
      continue;
    }
    current += line;
    current += "\n";
  }
  flush();
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string query_text;
  std::string queries_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--query") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      query_text = argv[++i];
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      queries_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 2) return Usage(argv[0]);

  // Load or generate the data graph.
  rdf::Graph graph;
  if (!positional.empty()) {
    Status st = rdf::LoadNTriplesFile(positional[0], &graph);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", positional[0].c_str(),
                   st.ToString().c_str());
      return 2;
    }
    graph.Finalize();
  } else {
    std::fprintf(stderr, "no data file given; generating a demo LUBM dataset\n");
    datagen::LubmOptions opts;
    opts.universities = 1;
    graph = datagen::GenerateLubm(opts);
  }
  stats::GlobalStats gs = stats::GlobalStats::Compute(graph);

  // Load shapes from a file, or generate + annotate them from the data.
  shacl::ShapesGraph shapes;
  if (positional.size() == 2) {
    auto file = FileView::Open(positional[1]);
    if (!file.ok()) {
      std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
      return 2;
    }
    auto parsed = shacl::ReadShapesTurtle(file->text());
    if (!parsed.ok()) {
      std::fprintf(stderr, "failed to parse %s: %s\n", positional[1].c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    shapes = std::move(parsed).value();
  } else {
    auto generated = shacl::GenerateShapes(graph);
    if (generated.ok()) {
      shapes = std::move(generated).value();
      auto report = stats::AnnotateShapes(graph, &shapes);
      if (!report.ok()) {
        std::fprintf(stderr, "annotation failed: %s\n",
                     report.status().ToString().c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "shape generation skipped: %s\n",
                   generated.status().ToString().c_str());
    }
  }

  analysis::Diagnostics diags =
      analysis::StatsAuditor().AuditAll(gs, shapes, &graph.dict());

  const analysis::QueryLint lint(gs, graph.dict());
  const analysis::ShapeChecker checker(
      gs, shapes.NumNodeShapes() > 0 ? &shapes : nullptr, graph.dict());

  if (!query_text.empty()) {
    auto query = sparql::ParseQuery(query_text);
    if (!query.ok()) {
      std::fprintf(stderr, "query parse error: %s\n",
                   query.status().ToString().c_str());
      return 2;
    }
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*query, graph.dict());
    analysis::Diagnostics qd = lint.Lint(*query, bgp);
    analysis::ShapeCheckResult check = checker.Check(*query, bgp);
    if (!json && check.provably_empty()) {
      std::printf("verdict: %s (%s)\n",
                  analysis::SatisfiabilityName(check.verdict),
                  check.rule.c_str());
    }
    diags.insert(diags.end(), qd.begin(), qd.end());
    diags.insert(diags.end(), check.diagnostics.begin(),
                 check.diagnostics.end());
  }

  // Corpus mode: lint + shape-check every query in the file, emit a
  // machine-readable report (one entry per query) for CI gating.
  if (!queries_path.empty()) {
    auto text = ReadFile(queries_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 2;
    }
    std::vector<std::string> corpus = SplitCorpus(*text);
    if (corpus.empty()) {
      std::fprintf(stderr, "no queries found in %s\n", queries_path.c_str());
      return 2;
    }
    size_t errors = analysis::CountSeverity(diags, analysis::Severity::kError);
    size_t warnings =
        analysis::CountSeverity(diags, analysis::Severity::kWarning);
    std::string report = "{\"corpus\":\"" + obs::JsonEscape(queries_path) +
                         "\",\"audit\":" + analysis::ToJson(diags) +
                         ",\"queries\":[";
    for (size_t i = 0; i < corpus.size(); ++i) {
      auto query = sparql::ParseQuery(corpus[i]);
      if (i > 0) report += ",";
      if (!query.ok()) {
        ++errors;
        report += "{\"index\":" + std::to_string(i + 1) +
                  ",\"parse_error\":\"" +
                  obs::JsonEscape(query.status().ToString()) + "\"}";
        if (!json) {
          std::printf("query %zu: parse error: %s\n", i + 1,
                      query.status().ToString().c_str());
        }
        continue;
      }
      sparql::EncodedBgp bgp = sparql::EncodeBgp(*query, graph.dict());
      analysis::Diagnostics qd = lint.Lint(*query, bgp);
      analysis::ShapeCheckResult check = checker.Check(*query, bgp);
      qd.insert(qd.end(), check.diagnostics.begin(), check.diagnostics.end());
      errors += analysis::CountSeverity(qd, analysis::Severity::kError);
      warnings += analysis::CountSeverity(qd, analysis::Severity::kWarning);
      report += "{\"index\":" + std::to_string(i + 1) + ",\"verdict\":\"" +
                analysis::SatisfiabilityName(check.verdict) + "\"";
      if (check.provably_empty()) {
        report += ",\"rule\":\"" + obs::JsonEscape(check.rule) + "\"";
      }
      report += ",\"inferred\":" + std::to_string(check.inferred.size()) +
                ",\"diagnostics\":" + analysis::ToJson(qd) + "}";
      if (!json) {
        std::printf("query %zu: %s, %zu finding(s)\n", i + 1,
                    analysis::SatisfiabilityName(check.verdict), qd.size());
        if (!qd.empty()) std::fputs(analysis::ToText(qd).c_str(), stdout);
      }
    }
    report += "],\"errors\":" + std::to_string(errors) +
              ",\"warnings\":" + std::to_string(warnings) + "}";
    if (json) {
      std::printf("%s\n", report.c_str());
    } else {
      std::printf("%zu quer%s checked, %zu error(s), %zu warning(s)\n",
                  corpus.size(), corpus.size() == 1 ? "y" : "ies", errors,
                  warnings);
    }
    return errors > 0 ? 1 : 0;
  }

  if (json) {
    std::printf("%s\n", analysis::ToJson(diags).c_str());
  } else if (diags.empty()) {
    std::printf("clean: %zu node shapes, %zu property shapes, %zu predicates "
                "audited, 0 findings\n",
                shapes.NumNodeShapes(), shapes.NumPropertyShapes(),
                gs.by_predicate.size());
  } else {
    std::fputs(analysis::ToText(diags).c_str(), stdout);
    std::printf("%zu error(s), %zu warning(s)\n",
                analysis::CountSeverity(diags, analysis::Severity::kError),
                analysis::CountSeverity(diags, analysis::Severity::kWarning));
  }
  return analysis::HasErrors(diags) ? 1 : 0;
}
