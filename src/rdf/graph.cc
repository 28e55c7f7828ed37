#include "rdf/graph.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace shapestats::rdf {

namespace {

// Component-order comparators. Ids are compared as unsigned integers; the
// sort order carries no semantics beyond index lookup.
struct LessSPO {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct LessPOS {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
struct LessOSP {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};
struct LessPSO {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.s != b.s) return a.s < b.s;
    return a.o < b.o;
  }
};

constexpr TermId kMin = 0;
constexpr TermId kMax = ~TermId{0};

template <typename Less>
std::span<const Triple> Range(const std::vector<Triple>& index, const Triple& lo,
                              const Triple& hi) {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Less{});
  auto end = std::upper_bound(begin, index.end(), hi, Less{});
  // Build the span from the base pointer: dereferencing `begin` would be UB
  // whenever the match range is empty or begin is the end iterator.
  return {index.data() + (begin - index.begin()),
          static_cast<size_t>(end - begin)};
}

}  // namespace

void Graph::Add(TermId s, TermId p, TermId o) {
  assert(!finalized_ && "Add after Finalize");
  assert(s != kInvalidTermId && p != kInvalidTermId && o != kInvalidTermId);
  spo_.push_back(Triple{s, p, o});
}

void Graph::Add(const Term& s, const Term& p, const Term& o) {
  // Sequenced explicitly: argument evaluation order is unspecified, and
  // interning order decides the ids, so Add(Intern(s), ...) would give
  // different ids under different compilers.
  const TermId oid = dict_.Intern(o);
  const TermId pid = dict_.Intern(p);
  const TermId sid = dict_.Intern(s);
  Add(sid, pid, oid);
}

void Graph::Finalize(util::ThreadPool* pool) {
  assert(!finalized_);
  util::ThreadPool& tp = pool != nullptr ? *pool : util::ThreadPool::Shared();
  // The SPO sort + dedup must finish first: the three secondary indexes are
  // copies of the deduplicated triple set. Every comparator orders all three
  // components, so equal elements are identical and the chunked parallel
  // sort produces byte-for-byte the std::sort result.
  util::ParallelSort(spo_, LessSPO{}, tp);
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  spo_.shrink_to_fit();
  if (tp.num_threads() > 1) {
    std::vector<Triple>* targets[] = {&pos_, &osp_, &pso_};
    tp.ParallelFor(0, 3, [&](size_t i) {
      *targets[i] = spo_;
      switch (i) {
        case 0: std::sort(pos_.begin(), pos_.end(), LessPOS{}); break;
        case 1: std::sort(osp_.begin(), osp_.end(), LessOSP{}); break;
        case 2: std::sort(pso_.begin(), pso_.end(), LessPSO{}); break;
      }
    });
  } else {
    pos_ = spo_;
    std::sort(pos_.begin(), pos_.end(), LessPOS{});
    osp_ = spo_;
    std::sort(osp_.begin(), osp_.end(), LessOSP{});
    pso_ = spo_;
    std::sort(pso_.begin(), pso_.end(), LessPSO{});
  }
  finalized_ = true;
}

std::vector<TermId> Graph::Predicates() const {
  assert(finalized_);
  // One pass over the PSO run boundaries, galloping to each run's end with
  // upper_bound — O(P log N) instead of a std::set insert per triple.
  std::vector<TermId> preds;
  auto it = pso_.begin();
  while (it != pso_.end()) {
    preds.push_back(it->p);
    it = std::upper_bound(it, pso_.end(), Triple{kMax, it->p, kMax}, LessPSO{});
  }
  return preds;
}

std::span<const Triple> Graph::Match(OptId s, OptId p, OptId o) const {
  assert(finalized_ && "Match before Finalize");
  const bool bs = s.has_value(), bp = p.has_value(), bo = o.has_value();
  if (bs) {
    if (bp) {
      // (S,P,?) or (S,P,O) — SPO prefix.
      return Range<LessSPO>(spo_, Triple{*s, *p, bo ? *o : kMin},
                            Triple{*s, *p, bo ? *o : kMax});
    }
    if (bo) {
      // (S,?,O) — OSP prefix (o, s).
      return Range<LessOSP>(osp_, Triple{*s, kMin, *o}, Triple{*s, kMax, *o});
    }
    // (S,?,?) — SPO prefix.
    return Range<LessSPO>(spo_, Triple{*s, kMin, kMin}, Triple{*s, kMax, kMax});
  }
  if (bp) {
    // (?,P,O) or (?,P,?) — POS prefix.
    return Range<LessPOS>(pos_, Triple{kMin, *p, bo ? *o : kMin},
                          Triple{kMax, *p, bo ? *o : kMax});
  }
  if (bo) {
    // (?,?,O) — OSP prefix.
    return Range<LessOSP>(osp_, Triple{kMin, kMin, *o}, Triple{kMax, kMax, *o});
  }
  return {spo_.data(), spo_.size()};
}

std::vector<int> Graph::MatchOrder(bool s_bound, bool p_bound, bool o_bound) {
  // Mirrors the index-selection logic in Match() above: for each bound
  // signature, list the unbound components in the chosen index's component
  // order. 0 = subject, 1 = predicate, 2 = object.
  if (s_bound) {
    if (p_bound) return o_bound ? std::vector<int>{} : std::vector<int>{2};
    if (o_bound) return {1};         // OSP with (o, s) prefix → sorted by p
    return {1, 2};                   // SPO with s prefix → sorted by (p, o)
  }
  if (p_bound) {
    if (o_bound) return {0};         // POS with (p, o) prefix → sorted by s
    return {2, 0};                   // POS with p prefix → sorted by (o, s)
  }
  if (o_bound) return {0, 1};        // OSP with o prefix → sorted by (s, p)
  return {0, 1, 2};                  // full SPO scan
}

uint64_t Graph::CountMatches(OptId s, OptId p, OptId o) const {
  return Match(s, p, o).size();
}

bool Graph::Contains(TermId s, TermId p, TermId o) const {
  return !Match(s, p, o).empty();
}

void Graph::ForEachMatch(OptId s, OptId p, OptId o,
                         const std::function<void(const Triple&)>& fn) const {
  for (const Triple& t : Match(s, p, o)) fn(t);
}

std::span<const Triple> Graph::PredicateBySubject(TermId p) const {
  assert(finalized_);
  return Range<LessPSO>(pso_, Triple{kMin, p, kMin}, Triple{kMax, p, kMax});
}

std::span<const Triple> Graph::PredicateByObject(TermId p) const {
  assert(finalized_);
  return Range<LessPOS>(pos_, Triple{kMin, p, kMin}, Triple{kMax, p, kMax});
}

uint64_t Graph::CountDistinctSubjects(TermId p) const {
  auto run = PredicateBySubject(p);
  uint64_t count = 0;
  TermId prev = kInvalidTermId;
  for (const Triple& t : run) {
    if (t.s != prev) {
      ++count;
      prev = t.s;
    }
  }
  return count;
}

uint64_t Graph::CountDistinctObjects(TermId p) const {
  auto run = PredicateByObject(p);
  uint64_t count = 0;
  TermId prev = kInvalidTermId;
  for (const Triple& t : run) {
    if (t.o != prev) {
      ++count;
      prev = t.o;
    }
  }
  return count;
}

uint64_t Graph::CountDistinctSubjects() const {
  assert(finalized_);
  uint64_t count = 0;
  TermId prev = kInvalidTermId;
  for (const Triple& t : spo_) {
    if (t.s != prev) {
      ++count;
      prev = t.s;
    }
  }
  return count;
}

uint64_t Graph::CountDistinctObjects() const {
  assert(finalized_);
  uint64_t count = 0;
  TermId prev = kInvalidTermId;
  for (const Triple& t : osp_) {
    if (t.o != prev) {
      ++count;
      prev = t.o;
    }
  }
  return count;
}

size_t Graph::IndexBytes() const {
  return (spo_.capacity() + pos_.capacity() + osp_.capacity() + pso_.capacity()) *
         sizeof(Triple);
}

}  // namespace shapestats::rdf
