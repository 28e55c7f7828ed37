// SHACL validation — the substrate use-case the shapes originally serve
// (Section 1: "they are currently only used for validation purposes").
// Checks sh:minCount / sh:maxCount / sh:class / sh:datatype constraints of
// every node shape against a data graph.
#pragma once

#include <string>
#include <vector>

#include "rdf/graph.h"
#include "shacl/shapes.h"
#include "util/status.h"

namespace shapestats::shacl {

enum class ViolationKind {
  kMinCount,
  kMaxCount,
  kClass,
  kDatatype,
};

const char* ViolationKindName(ViolationKind kind);

/// One constraint violation: focus node + violated property shape.
struct Violation {
  ViolationKind kind;
  std::string focus_node;  // IRI/blank label of the failing instance
  std::string shape_iri;   // property shape
  std::string path;        // predicate
  std::string detail;      // human-readable explanation
};

struct ValidationReport {
  bool conforms = true;
  std::vector<Violation> violations;
  uint64_t focus_nodes_checked = 0;

  std::string ToString(size_t max_violations = 20) const;
};

/// Validates `data` against `shapes`, reporting every violation.
Result<ValidationReport> Validate(const rdf::Graph& data,
                                  const ShapesGraph& shapes);

}  // namespace shapestats::shacl
