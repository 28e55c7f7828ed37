#include "sparql/query_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace shapestats::sparql {

namespace {

struct VarAt {
  VarId var;
  TermPos pos;
};

/// The variable slots of one pattern (at most three), in s/p/o order.
struct VarSlots {
  VarAt at[3];
  size_t size = 0;
  const VarAt* begin() const { return at; }
  const VarAt* end() const { return at + size; }
};

VarSlots VarsOf(const EncodedPattern& tp) {
  VarSlots out;
  if (tp.s.is_var()) out.at[out.size++] = {tp.s.id, TermPos::kSubject};
  if (tp.p.is_var()) out.at[out.size++] = {tp.p.id, TermPos::kPredicate};
  if (tp.o.is_var()) out.at[out.size++] = {tp.o.id, TermPos::kObject};
  return out;
}

}  // namespace

std::vector<SharedVar> SharedVars(const EncodedPattern& a, const EncodedPattern& b) {
  std::vector<SharedVar> out;
  for (const VarAt& va : VarsOf(a)) {
    for (const VarAt& vb : VarsOf(b)) {
      if (va.var == vb.var) out.push_back({va.var, va.pos, vb.pos});
    }
  }
  return out;
}

bool Joinable(const EncodedPattern& a, const EncodedPattern& b) {
  for (const VarAt& va : VarsOf(a)) {
    for (const VarAt& vb : VarsOf(b)) {
      if (va.var == vb.var) return true;
    }
  }
  return false;
}

const char* QueryShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kStar: return "star";
    case QueryShape::kSnowflake: return "snowflake";
    case QueryShape::kComplex: return "complex";
  }
  return "?";
}

QueryShape ClassifyShape(const EncodedBgp& bgp) {
  if (bgp.patterns.empty()) return QueryShape::kComplex;

  // Star: one shared subject variable across all patterns.
  bool star = true;
  if (!bgp.patterns[0].s.is_var()) {
    star = false;
  } else {
    VarId center = bgp.patterns[0].s.id;
    for (const EncodedPattern& tp : bgp.patterns) {
      if (!tp.s.is_var() || tp.s.id != center) {
        star = false;
        break;
      }
    }
  }
  if (star) return QueryShape::kStar;

  // Group patterns by subject variable; constants form singleton groups.
  std::vector<int> group_of_var(bgp.NumVars(), -1);
  std::vector<int> group(bgp.patterns.size());
  int num_groups = 0;
  for (size_t i = 0; i < bgp.patterns.size(); ++i) {
    const EncodedPattern& tp = bgp.patterns[i];
    if (tp.s.is_var()) {
      int& g = group_of_var[tp.s.id];
      if (g < 0) g = num_groups++;
      group[i] = g;
    } else {
      group[i] = num_groups++;
    }
  }

  // Linking variables act as hyperedges: a variable shared by three stars
  // still forms a tree (hub), so the tree test runs on the bipartite graph
  // of groups and linking variables rather than on pairwise group edges.
  // Its edges are the distinct (variable, group) incidences.
  std::vector<std::pair<VarId, int>> touches;
  for (size_t i = 0; i < bgp.patterns.size(); ++i) {
    for (const VarAt& v : VarsOf(bgp.patterns[i])) {
      touches.emplace_back(v.var, group[i]);
    }
  }
  std::sort(touches.begin(), touches.end());
  touches.erase(std::unique(touches.begin(), touches.end()), touches.end());

  // Union-find over the groups and (after them) the variables: the graph is
  // a tree when no edge closes a cycle and edges = nodes - 1.
  std::vector<int> parent(num_groups + bgp.NumVars());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  size_t num_nodes = num_groups;
  size_t num_edges = 0;
  bool acyclic = true;
  for (size_t k = 0; k < touches.size();) {
    size_t end = k + 1;
    while (end < touches.size() && touches[end].first == touches[k].first) {
      ++end;
    }
    if (end - k >= 2) {  // the variable links two or more groups
      ++num_nodes;
      const int var_node = num_groups + static_cast<int>(touches[k].first);
      for (size_t e = k; e < end; ++e) {
        ++num_edges;
        const int a = find(var_node);
        const int b = find(touches[e].second);
        if (a == b) {
          acyclic = false;
        } else {
          parent[a] = b;
        }
      }
    }
    k = end;
  }
  if (acyclic && num_edges + 1 == num_nodes && num_groups >= 2) {
    return QueryShape::kSnowflake;
  }
  return QueryShape::kComplex;
}

std::vector<std::vector<VarOccurrence>> VarOccurrences(const EncodedBgp& bgp) {
  std::vector<std::vector<VarOccurrence>> out(bgp.NumVars());
  for (uint32_t i = 0; i < bgp.patterns.size(); ++i) {
    for (const VarAt& v : VarsOf(bgp.patterns[i])) {
      out[v.var].push_back({i, v.pos});
    }
  }
  return out;
}

}  // namespace shapestats::sparql
