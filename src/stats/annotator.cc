#include "stats/annotator.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "rdf/vocab.h"
#include "util/timer.h"

namespace shapestats::stats {

namespace {

// Annotates one node shape. Touches only `ns` and read-only graph state, so
// node shapes can be processed concurrently.
void AnnotateNodeShape(const rdf::Graph& data, std::optional<rdf::TermId> type,
                       shacl::NodeShape& ns) {
  const rdf::TermDictionary& dict = data.dict();
  auto cls = dict.FindIri(ns.target_class);
  // SELECT COUNT(*) WHERE { ?x a <C> }
  uint64_t instances =
      (type && cls) ? data.CountMatches(std::nullopt, *type, *cls) : 0;
  ns.count = instances;

  // One pass per instance over its (SPO-contiguous) triples, bucketing
  // per predicate — O(triples of the class) rather than one index probe
  // per (instance, property shape) pair.
  struct Acc {
    uint64_t count = 0;
    uint64_t instances_with = 0;
    uint64_t min_per = std::numeric_limits<uint64_t>::max();
    uint64_t max_per = 0;
    uint64_t distinct = 0;
    std::vector<rdf::TermId> objects;
  };
  std::unordered_map<rdf::TermId, Acc> accs;
  if (type && cls) {
    for (const rdf::Triple& inst : data.Match(std::nullopt, *type, *cls)) {
      auto span = data.Match(inst.s, std::nullopt, std::nullopt);
      size_t i = 0;
      while (i < span.size()) {
        size_t j = i;
        while (j < span.size() && span[j].p == span[i].p) ++j;
        Acc& acc = accs[span[i].p];
        uint64_t run = j - i;
        acc.count += run;
        acc.instances_with += 1;
        acc.min_per = std::min(acc.min_per, run);
        acc.max_per = std::max(acc.max_per, run);
        for (size_t k = i; k < j; ++k) acc.objects.push_back(span[k].o);
        i = j;
      }
    }
  }
  for (shacl::PropertyShape& ps : ns.properties) {
    auto pred = dict.FindIri(ps.path);
    auto it = pred ? accs.find(*pred) : accs.end();
    if (it == accs.end() || instances == 0) {
      ps.count = 0;
      ps.min_count = 0;
      ps.max_count = 0;
      ps.distinct_count = 0;
    } else {
      Acc& acc = it->second;
      // Sort each accumulator at most once and cache the distinct count;
      // an already-drained accumulator (second property shape with the
      // same path) skips the sort pass entirely. Accumulators are created
      // only on append, so a fresh one is never empty.
      if (!acc.objects.empty()) {
        std::sort(acc.objects.begin(), acc.objects.end());
        acc.distinct = static_cast<uint64_t>(
            std::unique(acc.objects.begin(), acc.objects.end()) -
            acc.objects.begin());
        acc.objects.clear();
        acc.objects.shrink_to_fit();
      }
      ps.count = acc.count;
      // Instances without the predicate contribute a minimum of zero.
      ps.min_count = acc.instances_with == instances ? acc.min_per : 0;
      ps.max_count = acc.max_per;
      ps.distinct_count = acc.distinct;
    }
  }
}

}  // namespace

Result<AnnotatorReport> AnnotateShapes(const rdf::Graph& data,
                                       shacl::ShapesGraph* shapes,
                                       util::ThreadPool* pool) {
  if (!data.finalized()) {
    return Status::InvalidArgument("data graph must be finalized");
  }
  util::ThreadPool& tp = pool != nullptr ? *pool : util::ThreadPool::Shared();
  Timer timer;
  auto type = data.dict().FindIri(rdf::vocab::kRdfType);
  AnnotatorReport report;

  // Each class's accumulation reads only the immutable graph and writes
  // only its own node shape, so shapes annotate concurrently.
  std::vector<shacl::NodeShape>& all = *shapes->mutable_shapes();
  tp.ParallelFor(0, all.size(),
                 [&](size_t i) { AnnotateNodeShape(data, type, all[i]); });
  for (const shacl::NodeShape& ns : all) {
    ++report.node_shapes_annotated;
    report.property_shapes_annotated += ns.properties.size();
  }
  report.elapsed_ms = timer.ElapsedMs();
  return report;
}

}  // namespace shapestats::stats
