#include "stats/global_stats.h"

#include "rdf/vocab.h"

namespace shapestats::stats {

GlobalStats GlobalStats::Compute(const rdf::Graph& graph,
                                 util::ThreadPool* pool) {
  util::ThreadPool& tp = pool != nullptr ? *pool : util::ThreadPool::Shared();
  GlobalStats out;
  out.num_triples = graph.NumTriples();
  out.num_distinct_subjects = graph.CountDistinctSubjects();
  out.num_distinct_objects = graph.CountDistinctObjects();

  // Predicates come off the predicate head (no per-triple set insert);
  // each predicate's count/DSC/DOC scans only its own contiguous PSO/POS
  // runs, so the fan-out is embarrassingly parallel. The map is filled
  // sequentially in ascending predicate order afterwards, which keeps the
  // statistics (and their serialization) identical for every pool size.
  std::vector<rdf::TermId> preds = graph.Predicates();
  std::vector<PredicateStats> pstats(preds.size());
  tp.ParallelFor(0, preds.size(), [&](size_t i) {
    rdf::TermId p = preds[i];
    pstats[i].count = graph.PredicateBySubject(p).size();
    pstats[i].dsc = graph.CountDistinctSubjects(p);
    pstats[i].doc = graph.CountDistinctObjects(p);
  });
  out.by_predicate.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    out.by_predicate.emplace(preds[i], pstats[i]);
  }

  auto type = graph.dict().FindIri(rdf::vocab::kRdfType);
  if (type && out.by_predicate.count(*type)) {
    out.rdf_type_id = *type;
    const PredicateStats& ts = out.by_predicate[*type];
    out.num_type_triples = ts.count;
    out.num_type_subjects = ts.dsc;
    out.num_distinct_classes = ts.doc;
    // Per-class instance counts from the POS run of rdf:type.
    auto run = graph.PredicateByObject(*type);
    rdf::TermId current = rdf::kInvalidTermId;
    uint64_t count = 0;
    for (const rdf::Triple& t : run) {
      if (t.o != current) {
        if (current != rdf::kInvalidTermId) out.class_counts[current] = count;
        current = t.o;
        count = 0;
      }
      ++count;
    }
    if (current != rdf::kInvalidTermId) out.class_counts[current] = count;
  }
  return out;
}

size_t GlobalStats::MemoryBytes() const {
  return sizeof(GlobalStats) +
         by_predicate.size() * (sizeof(rdf::TermId) + sizeof(PredicateStats) + 16) +
         class_counts.size() * (sizeof(rdf::TermId) + sizeof(uint64_t) + 16);
}

std::string WriteVoidTurtle(const GlobalStats& stats,
                            const rdf::TermDictionary& dict) {
  std::string out;
  out += "@prefix void: <http://rdfs.org/ns/void#> .\n";
  out += "@prefix ss: <http://shapestats.org/void-ext#> .\n\n";
  out += "<http://shapestats.org/dataset> void:triples " +
         std::to_string(stats.num_triples) + " ;\n";
  out += "    void:distinctSubjects " + std::to_string(stats.num_distinct_subjects) +
         " ;\n";
  out += "    void:distinctObjects " + std::to_string(stats.num_distinct_objects) +
         " ;\n";
  out += "    ss:typeTriples " + std::to_string(stats.num_type_triples) + " ;\n";
  out += "    ss:distinctClasses " + std::to_string(stats.num_distinct_classes) +
         " .\n\n";
  for (const auto& [p, ps] : stats.by_predicate) {
    out += "[ void:property <";
    out += dict.term(p).lexical;
    out += "> ;\n";
    out += "  void:triples " + std::to_string(ps.count) + " ;\n";
    out += "  void:distinctSubjects " + std::to_string(ps.dsc) + " ;\n";
    out += "  void:distinctObjects " + std::to_string(ps.doc) + " ] .\n";
  }
  return out;
}

}  // namespace shapestats::stats
