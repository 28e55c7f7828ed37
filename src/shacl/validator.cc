#include "shacl/validator.h"

#include "rdf/vocab.h"

namespace shapestats::shacl {

namespace vocab = rdf::vocab;

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kMinCount: return "MinCount";
    case ViolationKind::kMaxCount: return "MaxCount";
    case ViolationKind::kClass: return "Class";
    case ViolationKind::kDatatype: return "Datatype";
  }
  return "?";
}

std::string ValidationReport::ToString(size_t max_violations) const {
  std::string out = conforms ? "conforms" : "does not conform";
  out += " (" + std::to_string(focus_nodes_checked) + " focus nodes, " +
         std::to_string(violations.size()) + " violations)\n";
  size_t shown = 0;
  for (const Violation& v : violations) {
    if (max_violations && shown++ >= max_violations) {
      out += "  ...\n";
      break;
    }
    out += std::string("  [") + ViolationKindName(v.kind) + "] " + v.focus_node +
           " " + v.path + ": " + v.detail + "\n";
  }
  return out;
}

Result<ValidationReport> Validate(const rdf::Graph& data,
                                  const ShapesGraph& shapes) {
  if (!data.finalized()) {
    return Status::InvalidArgument("data graph must be finalized");
  }
  const rdf::TermDictionary& dict = data.dict();
  auto type = dict.FindIri(vocab::kRdfType);
  ValidationReport report;
  auto add = [&](Violation v) {
    report.conforms = false;
    report.violations.push_back(std::move(v));
  };

  for (const NodeShape& ns : shapes.shapes()) {
    if (!type) break;
    auto cls = dict.FindIri(ns.target_class);
    if (!cls) continue;  // class absent from data: vacuously conforms
    for (const rdf::Triple& inst : data.Match(std::nullopt, *type, *cls)) {
      ++report.focus_nodes_checked;
      std::string focus = dict.Pretty(inst.s);
      for (const PropertyShape& ps : ns.properties) {
        auto pred = dict.FindIri(ps.path);
        uint64_t n = pred ? data.CountMatches(inst.s, *pred, std::nullopt) : 0;
        if (ps.min_count && n < *ps.min_count) {
          add({ViolationKind::kMinCount, focus, ps.iri, ps.path,
               "has " + std::to_string(n) + " values, needs >= " +
                   std::to_string(*ps.min_count)});
        }
        if (ps.max_count && n > *ps.max_count) {
          add({ViolationKind::kMaxCount, focus, ps.iri, ps.path,
               "has " + std::to_string(n) + " values, allows <= " +
                   std::to_string(*ps.max_count)});
        }
        if (!pred || n == 0) continue;
        if (!ps.node_class.empty()) {
          auto want = dict.FindIri(ps.node_class);
          for (const rdf::Triple& t : data.Match(inst.s, *pred, std::nullopt)) {
            bool ok = want && data.Contains(t.o, *type, *want);
            if (!ok) {
              add({ViolationKind::kClass, focus, ps.iri, ps.path,
                   dict.Pretty(t.o) + " is not an instance of " + ps.node_class});
            }
          }
        }
        if (!ps.datatype.empty()) {
          for (const rdf::Triple& t : data.Match(inst.s, *pred, std::nullopt)) {
            const rdf::TermView obj = dict.term(t.o);
            const std::string_view dt =
                !obj.is_literal() ? ""
                : obj.datatype.empty() ? vocab::kXsdString
                                       : obj.datatype;
            if (dt != ps.datatype) {
              add({ViolationKind::kDatatype, focus, ps.iri, ps.path,
                   "object is not a literal of " + ps.datatype});
            }
          }
        }
      }
    }
  }
  return report;
}

}  // namespace shapestats::shacl
