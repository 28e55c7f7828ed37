#include "shacl/generator.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/vocab.h"

namespace shapestats::shacl {

namespace vocab = rdf::vocab;

/// Namespace for generated shape IRIs.
constexpr std::string_view kShapeNamespace = "http://shapestats.org/shapes#";

Result<ShapesGraph> GenerateShapes(const rdf::Graph& data) {
  if (!data.finalized()) {
    return Status::InvalidArgument("data graph must be finalized");
  }
  const rdf::TermDictionary& dict = data.dict();
  auto type = dict.FindIri(vocab::kRdfType);
  if (!type) {
    return Status::InvalidArgument("data graph has no rdf:type triples");
  }

  // Collect classes in deterministic (IRI) order. The rdf:type run of POS is
  // grouped by object, so each class shows up as one run of equal objects.
  std::vector<std::pair<std::string_view, rdf::TermId>> classes;
  rdf::TermId prev_cls = rdf::kInvalidTermId;
  for (const rdf::Triple& t : data.PredicateByObject(*type)) {
    if (t.o == prev_cls) continue;
    prev_cls = t.o;
    const rdf::TermView cls = dict.term(t.o);
    if (cls.is_iri()) classes.emplace_back(cls.lexical, t.o);
  }
  if (classes.empty()) {
    return Status::InvalidArgument("no classes found in data graph");
  }
  std::sort(classes.begin(), classes.end());

  ShapesGraph shapes;
  for (const auto& [cls_iri, cls_id] : classes) {
    NodeShape ns;
    ns.iri = std::string(kShapeNamespace) + dict.Pretty(cls_id) + "Shape";
    ns.target_class = cls_iri;

    // Predicates used by instances of this class, with object samples.
    struct PredInfo {
      uint64_t instances_with = 0;  // instances having >= 1 such triple
      bool objects_all_literals = true;
      bool objects_all_iris = true;
      std::string common_datatype;   // "" until first literal; "-" if mixed
      rdf::TermId common_class = rdf::kInvalidTermId;  // 0 until first; ~0 mixed
    };
    std::unordered_map<rdf::TermId, PredInfo> preds;  // keyed by predicate
    uint64_t num_instances = 0;
    for (const rdf::Triple& inst : data.Match(std::nullopt, *type, cls_id)) {
      ++num_instances;
      // The subject's SPO run is grouped by predicate: each new predicate
      // starts a group, counted once for this instance.
      PredInfo* info = nullptr;
      rdf::TermId prev_pred = rdf::kInvalidTermId;
      for (const rdf::Triple& t : data.Match(inst.s, std::nullopt, std::nullopt)) {
        if (t.p == *type) continue;
        if (t.p != prev_pred) {
          prev_pred = t.p;
          info = &preds[t.p];
          ++info->instances_with;
        }
        const rdf::TermView obj = dict.term(t.o);
        if (obj.is_literal()) {
          info->objects_all_iris = false;
          const std::string_view dt =
              obj.datatype.empty() ? vocab::kXsdString : obj.datatype;
          if (info->common_datatype.empty()) {
            info->common_datatype = dt;
          } else if (info->common_datatype != dt) {
            info->common_datatype = "-";
          }
        } else {
          info->objects_all_literals = false;
          auto obj_types = data.Match(t.o, *type, std::nullopt);
          rdf::TermId obj_cls =
              obj_types.empty() ? static_cast<rdf::TermId>(~0u) : obj_types.front().o;
          if (info->common_class == rdf::kInvalidTermId) {
            info->common_class = obj_cls;
          } else if (info->common_class != obj_cls) {
            info->common_class = static_cast<rdf::TermId>(~0u);
          }
        }
      }
    }

    // Properties in predicate-IRI order.
    std::vector<std::pair<std::string_view, rdf::TermId>> by_iri;
    by_iri.reserve(preds.size());
    for (const auto& [pred, info] : preds) {
      by_iri.emplace_back(dict.term(pred).lexical, pred);
    }
    std::sort(by_iri.begin(), by_iri.end());
    for (const auto& [pred_iri, pred] : by_iri) {
      const PredInfo& info = preds.at(pred);
      PropertyShape ps;
      ps.iri = ns.iri + "-";
      ps.iri += pred_iri.substr(pred_iri.find_last_of("#/") + 1);
      ps.path = pred_iri;
      if (info.objects_all_literals &&
          !info.common_datatype.empty() && info.common_datatype != "-") {
        ps.datatype = info.common_datatype;
      }
      if (info.objects_all_iris &&
          info.common_class != rdf::kInvalidTermId &&
          info.common_class != static_cast<rdf::TermId>(~0u)) {
        ps.node_class = dict.term(info.common_class).lexical;
      }
      if (info.instances_with == num_instances) {
        ps.min_count = 1;
      }
      ns.properties.push_back(std::move(ps));
    }
    RETURN_NOT_OK(shapes.Add(std::move(ns)));
  }
  return shapes;
}

}  // namespace shapestats::shacl
