#include "baselines/sumrdf/summary.h"

#include <algorithm>
#include <map>
#include <set>

#include "card/estimator.h"
#include "sparql/query_graph.h"
#include "util/timer.h"

namespace shapestats::baselines {

using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;

Result<SumRdfSummary> SumRdfSummary::Build(const rdf::Graph& graph,
                                           const SumRdfOptions& options) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  Timer timer;
  SumRdfSummary s;
  s.options_ = options;
  s.gs_ = stats::GlobalStats::Compute(graph);
  s.dict_ = &graph.dict();

  // Class-set signature per typed resource.
  std::unordered_map<rdf::TermId, std::string> signature;
  std::set<rdf::TermId> class_resources;
  if (s.gs_.rdf_type_id != rdf::kInvalidTermId) {
    auto run = graph.PredicateBySubject(s.gs_.rdf_type_id);
    size_t i = 0;
    while (i < run.size()) {
      size_t j = i;
      std::string sig;
      while (j < run.size() && run[j].s == run[i].s) {
        sig += std::to_string(run[j].o) + ",";
        class_resources.insert(run[j].o);
        ++j;
      }
      signature.emplace(run[i].s, std::move(sig));
      i = j;
    }
  }

  // Group keys for every term occurring in the data.
  std::map<std::string, std::vector<rdf::TermId>> groups;
  auto group_key = [&](rdf::TermId t) -> std::string {
    if (class_resources.count(t)) return "class:" + std::to_string(t);
    auto sig = signature.find(t);
    if (sig != signature.end()) return "sig:" + sig->second;
    const rdf::TermView term = graph.dict().term(t);
    if (term.is_literal()) return "lit:" + std::string(term.datatype);
    return "iri";
  };
  {
    std::set<rdf::TermId> seen;
    for (const rdf::Triple& t : graph.triples()) {
      for (rdf::TermId x : {t.s, t.o}) {
        if (seen.insert(x).second) groups[group_key(x)].push_back(x);
      }
    }
  }

  // Greedy merge of the smallest non-class groups until the target size is
  // reached. Class singletons are always preserved (the summary keeps the
  // schema, as SumRDF does).
  struct Group {
    std::vector<rdf::TermId> members;
    bool is_class;
  };
  std::vector<Group> all;
  for (auto& [key, members] : groups) {
    all.push_back({std::move(members), key.rfind("class:", 0) == 0});
  }
  std::vector<size_t> mergeable;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!all[i].is_class) mergeable.push_back(i);
  }
  std::sort(mergeable.begin(), mergeable.end(), [&](size_t a, size_t b) {
    return all[a].members.size() < all[b].members.size();
  });
  while (all.size() > options.target_size && mergeable.size() >= 2) {
    // Merge the two smallest mergeable groups.
    size_t a = mergeable[0];
    size_t b = mergeable[1];
    all[a].members.insert(all[a].members.end(), all[b].members.begin(),
                          all[b].members.end());
    all[b].members.clear();
    mergeable.erase(mergeable.begin() + 1);
    // Re-position group a by its new size (cheap insertion pass).
    std::stable_sort(mergeable.begin(), mergeable.end(), [&](size_t x, size_t y) {
      return all[x].members.size() < all[y].members.size();
    });
    // Drop emptied groups lazily below.
    size_t alive = 0;
    for (const Group& g : all) {
      if (!g.members.empty()) ++alive;
    }
    if (alive <= options.target_size) break;
  }

  for (const Group& g : all) {
    if (g.members.empty()) continue;
    BucketId id = static_cast<BucketId>(s.bucket_sizes_.size());
    s.bucket_sizes_.push_back(g.members.size());
    for (rdf::TermId m : g.members) s.bucket_of_term_.emplace(m, id);
  }

  // Summary edges.
  std::map<std::tuple<rdf::TermId, BucketId, BucketId>, double> weights;
  for (const rdf::Triple& t : graph.triples()) {
    weights[{t.p, s.bucket_of_term_.at(t.s), s.bucket_of_term_.at(t.o)}] += 1;
  }
  for (const auto& [key, w] : weights) {
    auto [p, from, to] = key;
    PredEdges& pe = s.by_predicate_[p];
    uint32_t idx = static_cast<uint32_t>(pe.edges.size());
    pe.edges.push_back({from, to, w});
    pe.by_from[from].push_back(idx);
    pe.by_to[to].push_back(idx);
    ++s.num_edges_;
  }
  s.build_ms_ = timer.ElapsedMs();
  return s;
}

size_t SumRdfSummary::MemoryBytes() const {
  size_t bytes = sizeof(*this) + bucket_sizes_.capacity() * sizeof(uint64_t);
  // bucket_of_term_ dominates: it maps every data term to its bucket, which
  // is what makes real SumRDF summaries "a few GBs" at paper scale.
  bytes += bucket_of_term_.size() * (sizeof(rdf::TermId) + sizeof(BucketId) + 16);
  for (const auto& [p, pe] : by_predicate_) {
    (void)p;
    bytes += pe.edges.capacity() * sizeof(Edge) + 64;
    bytes += (pe.by_from.size() + pe.by_to.size()) * 48;
  }
  return bytes;
}

namespace {

struct NodeRef {
  bool is_var;
  uint32_t id;  // VarId or TermId
};

NodeRef RefOf(const EncodedTerm& t) {
  if (t.is_var()) return {true, t.id};
  return {false, t.id};
}

}  // namespace

std::optional<double> SumRdfSummary::EstimateInternal(
    const std::vector<EncodedPattern>& patterns) const {
  // Order patterns greedily by connectivity so assigned variables prune the
  // edge candidates of later patterns.
  std::vector<uint32_t> order;
  std::vector<bool> used(patterns.size(), false);
  std::set<uint32_t> bound_vars;
  for (size_t step = 0; step < patterns.size(); ++step) {
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      int score = 0;
      if (patterns[i].s.is_bound()) score += 2;
      if (patterns[i].o.is_bound()) score += 2;
      if (patterns[i].s.is_var() && bound_vars.count(patterns[i].s.id)) score += 3;
      if (patterns[i].o.is_var() && bound_vars.count(patterns[i].o.id)) score += 3;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    used[best] = true;
    order.push_back(best);
    if (patterns[best].s.is_var()) bound_vars.insert(patterns[best].s.id);
    if (patterns[best].o.is_var()) bound_vars.insert(patterns[best].o.id);
  }

  std::unordered_map<uint32_t, BucketId> assign;  // var -> bucket
  uint64_t expansions = 0;
  bool budget_hit = false;

  // Recursive expected-count accumulation.
  std::function<double(size_t)> rec = [&](size_t k) -> double {
    if (k == order.size()) return 1.0;
    const EncodedPattern& tp = patterns[order[k]];
    if (tp.HasMissingConstant()) return 0.0;

    NodeRef sref = RefOf(tp.s);
    NodeRef oref = RefOf(tp.o);
    std::optional<BucketId> sb, ob;
    if (!sref.is_var) {
      auto it = bucket_of_term_.find(sref.id);
      if (it == bucket_of_term_.end()) return 0.0;
      sb = it->second;
    } else if (assign.count(sref.id)) {
      sb = assign.at(sref.id);
    }
    if (!oref.is_var) {
      auto it = bucket_of_term_.find(oref.id);
      if (it == bucket_of_term_.end()) return 0.0;
      ob = it->second;
    } else if (assign.count(oref.id)) {
      ob = assign.at(oref.id);
    }

    // Candidate edge lists for this pattern.
    auto process_edges = [&](const PredEdges& pe) -> double {
      const std::vector<uint32_t>* candidates = nullptr;
      std::vector<uint32_t> scratch;
      if (sb && pe.by_from.count(*sb)) {
        candidates = &pe.by_from.at(*sb);
      } else if (ob && pe.by_to.count(*ob)) {
        candidates = &pe.by_to.at(*ob);
      } else if (!sb && !ob) {
        scratch.resize(pe.edges.size());
        for (uint32_t i = 0; i < pe.edges.size(); ++i) scratch[i] = i;
        candidates = &scratch;
      } else {
        return 0.0;  // constrained bucket has no outgoing/incoming edges
      }
      double total = 0;
      for (uint32_t idx : *candidates) {
        const Edge& e = pe.edges[idx];
        if (sb && e.from != *sb) continue;
        if (ob && e.to != *ob) continue;
        // Same variable on both ends must map to the same bucket.
        if (sref.is_var && oref.is_var && sref.id == oref.id && e.from != e.to) {
          continue;
        }
        if (options_.expansion_budget &&
            ++expansions > options_.expansion_budget) {
          budget_hit = true;
          return 0.0;
        }
        double factor = e.weight / (static_cast<double>(bucket_sizes_[e.from]) *
                                    static_cast<double>(bucket_sizes_[e.to]));
        bool assigned_s = false, assigned_o = false;
        if (sref.is_var && !sb) {
          assign[sref.id] = e.from;
          factor *= static_cast<double>(bucket_sizes_[e.from]);
          assigned_s = true;
        }
        if (oref.is_var && !ob) {
          auto it = assign.find(oref.id);
          if (it != assign.end() && !(sref.is_var && sref.id == oref.id)) {
            // (already handled above for same-var; distinct lookup here is
            // for vars assigned earlier in recursion — covered by `ob`.)
          }
          if (!(sref.is_var && sref.id == oref.id)) {
            assign[oref.id] = e.to;
            factor *= static_cast<double>(bucket_sizes_[e.to]);
            assigned_o = true;
          } else if (e.from == e.to) {
            // same var both ends: single assignment, multiplier once
          }
        }
        total += factor * rec(k + 1);
        if (assigned_s) assign.erase(sref.id);
        if (assigned_o) assign.erase(oref.id);
        if (budget_hit) return 0.0;
      }
      return total;
    };

    if (tp.p.is_bound()) {
      auto it = by_predicate_.find(tp.p.id);
      if (it == by_predicate_.end()) return 0.0;
      return process_edges(it->second);
    }
    // Variable predicate: sum over all predicates. (A predicate variable
    // shared with another pattern is not tracked — acceptable for the
    // workloads, which always bind predicates.)
    double total = 0;
    for (const auto& [p, pe] : by_predicate_) {
      (void)p;
      total += process_edges(pe);
      if (budget_hit) return 0.0;
    }
    return total;
  };

  double result = rec(0);
  if (budget_hit) return std::nullopt;
  return result;
}

std::optional<double> SumRdfSummary::Estimate(const EncodedBgp& bgp) const {
  return EstimateInternal(bgp.patterns);
}

std::vector<card::TpEstimate> SumRdfSummary::EstimateAll(
    const EncodedBgp& bgp) const {
  card::CardinalityEstimator global(gs_, nullptr, *dict_,
                                    card::StatsMode::kGlobal);
  std::vector<card::TpEstimate> out = global.EstimateAll(bgp);
  for (size_t i = 0; i < bgp.patterns.size(); ++i) {
    auto est = EstimateInternal({bgp.patterns[i]});
    if (est) out[i].card = *est;
  }
  return out;
}

double SumRdfSummary::EstimateJoin(const EncodedPattern& a,
                                   const card::TpEstimate& ea,
                                   const EncodedPattern& b,
                                   const card::TpEstimate& eb) const {
  if (sparql::Joinable(a, b)) {
    auto est = EstimateInternal({a, b});
    if (est) return *est;
  }
  return card::JoinEstimateEq123(a, ea, b, eb);
}

double SumRdfSummary::EstimateResultCardinality(const EncodedBgp& bgp) const {
  auto est = Estimate(bgp);
  if (est) return *est;
  // Budget exhausted ("prohibitive computation cost"): fall back to the
  // chained pairwise default.
  return PlannerStatsProvider::EstimateResultCardinality(bgp);
}

}  // namespace shapestats::baselines
