// In-memory triple store with sorted-array indexes. This is the substrate
// that stands in for Jena TDB in the paper's setup: it answers triple
// pattern scans for the executor and the analytical counting queries issued
// by the statistics annotator.
//
// Index coverage (component order of the sort key):
//   SPO  — patterns binding S, (S,P), or (S,P,O)
//   POS  — patterns binding P or (P,O)
//   OSP  — patterns binding O or (O,S)
//   PSO  — distinct-subject walks per predicate (annotator, global stats)
//
// Heads: every index is grouped by its leading component, and a head array
// maps each id to the offset of its group, so the run of id x is
// [head[x], head[x + 1]). There are three heads — subjects over SPO,
// objects over OSP, and one predicate head shared by POS and PSO (both sort
// by p first, so p's run has the same bounds in each). Match() reads the
// leading bound component's run from its head in O(1) and binary-searches
// only inside that run. A head holds one uint32_t offset per id up to the
// largest id in its position, plus two; offsets being 32-bit caps a graph
// at kMaxTriples triples.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shapestats::rdf {

/// One component of a triple pattern: either a bound TermId or a wildcard.
using OptId = std::optional<TermId>;

/// The most triples a graph can hold: head offsets are 32-bit.
inline constexpr size_t kMaxTriples = 0xFFFFFFFFu;

/// Mutable-until-finalized RDF graph. Usage:
///   Graph g;
///   g.Add(...); ...; g.Finalize();
///   g.Match(s, p, o) / g.CountMatches(...)
/// Owns its TermDictionary.
class Graph {
 public:
  Graph() = default;

  // Movable, not copyable (indexes can be hundreds of MB).
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  /// Adds a triple by ids. Duplicates are removed at Finalize().
  void Add(TermId s, TermId p, TermId o);

  /// Appends `n` triples to the staging area and returns them, for the
  /// caller to fill with valid ids before the next Add or Finalize. Lets a
  /// loader that knows its triple count stage them with one allocation.
  std::span<Triple> StageTriples(size_t n);

  /// Adds a triple of decoded terms, interning the object, then the
  /// predicate, then the subject (the order ParseNTriples uses too).
  void Add(const Term& s, const Term& p, const Term& o);

  /// Sorts and deduplicates, builds all indexes and their heads. Must be
  /// called before any Match/Count query; Add after Finalize is an error.
  /// Every index is built by stable counting-sort scatters, in time linear
  /// in the triples plus the largest id: SPO by three passes over the staged
  /// triples (by o, then p, then s) and a dedup, then OSP = SPO by o,
  /// POS = OSP by p and PSO = SPO by p, each head being its scatter's prefix
  /// sum. OSP→POS and PSO run as two tasks on `pool` (the shared pool when
  /// null); the indexes and heads are identical for every pool size. Aborts,
  /// in every build, when there are more than kMaxTriples distinct triples.
  void Finalize(util::ThreadPool* pool = nullptr);

  bool finalized() const { return finalized_; }
  size_t NumTriples() const { return spo_.size(); }

  /// All triples in SPO order.
  std::span<const Triple> triples() const { return spo_; }

  /// All triples in OSP order (objects grouped; distinct-object scans).
  std::span<const Triple> triples_by_object() const { return osp_; }

  /// The distinct predicates of the graph, in ascending id order: the ids
  /// whose predicate-head run is non-empty.
  std::vector<TermId> Predicates() const;

  /// Triples matching a pattern, as a contiguous span of one index.
  /// For the (S, ?, O) pattern the result comes from the OSP index with a
  /// two-component prefix, so no post-filtering is ever needed.
  ///
  /// Ordering contract (merge joins depend on it — see src/phys/): the
  /// returned span is always a contiguous run of exactly one index, so it is
  /// sorted by that index's component order. Since the bound positions are
  /// constant across the span, the span is totally ordered by its FREE
  /// positions, most significant first:
  ///
  ///   bound positions   index   span ordered by (free components)
  ///   --------------    -----   --------------------------------
  ///   (none)            SPO     s, p, o
  ///   S                 SPO     p, o
  ///   P                 POS     o, s
  ///   O                 OSP     s, p
  ///   S,P               SPO     o
  ///   S,O               OSP     p
  ///   P,O               POS     s
  ///   S,P,O             SPO     (at most one triple)
  ///
  /// MatchOrder() returns this component sequence programmatically. The
  /// contract holds for empty ranges too: a pattern with no matches yields
  /// an empty span (never an unsorted or non-contiguous view), and the
  /// span's data pointer is valid for pointer arithmetic even then — also
  /// for kInvalidTermId and for ids past the largest id in a position.
  ///
  /// Cost: O(1) for one bound position (a head read), and a binary search
  /// inside the leading component's run for two or three.
  std::span<const Triple> Match(OptId s, OptId p, OptId o) const;

  /// The free-component sort order of the span Match() returns for a given
  /// bound-position signature: a sequence of component indexes
  /// (0 = subject, 1 = predicate, 2 = object), most significant first,
  /// covering exactly the unbound positions. Static — depends only on which
  /// positions are bound, never on their values or the graph contents.
  static std::vector<int> MatchOrder(bool s_bound, bool p_bound, bool o_bound);

  /// Number of triples matching the pattern.
  uint64_t CountMatches(OptId s, OptId p, OptId o) const;

  /// True if the exact triple is present.
  bool Contains(TermId s, TermId p, TermId o) const;

  /// Calls `fn` for every triple matching the pattern.
  void ForEachMatch(OptId s, OptId p, OptId o,
                    const std::function<void(const Triple&)>& fn) const;

  /// Distinct subjects among triples with predicate `p`.
  uint64_t CountDistinctSubjects(TermId p) const;
  /// Distinct objects among triples with predicate `p`.
  uint64_t CountDistinctObjects(TermId p) const;
  /// Distinct subjects / objects over the whole graph (non-empty head runs).
  uint64_t CountDistinctSubjects() const;
  uint64_t CountDistinctObjects() const;

  /// The PSO index span for predicate `p` (sorted by subject, then object).
  std::span<const Triple> PredicateBySubject(TermId p) const;
  /// The POS index span for predicate `p` (sorted by object, then subject).
  std::span<const Triple> PredicateByObject(TermId p) const;

  /// Approximate heap footprint of the triple indexes and their heads in
  /// bytes.
  size_t IndexBytes() const;

 private:
  TermDictionary dict_;
  bool finalized_ = false;
  std::vector<Triple> spo_;  // before Finalize: unsorted staging area
  std::vector<Triple> pos_;
  std::vector<Triple> osp_;
  std::vector<Triple> pso_;
  // Run offsets per leading id (see the file comment): subjects over spo_,
  // objects over osp_, predicates over pos_ and pso_ alike.
  std::vector<uint32_t> s_head_;
  std::vector<uint32_t> o_head_;
  std::vector<uint32_t> p_head_;
};

}  // namespace shapestats::rdf
