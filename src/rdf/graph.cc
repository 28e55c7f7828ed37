#include "rdf/graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

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

// The head of an index grouped by `get`: head[x] is the offset of the first
// triple whose leading id is >= x, sized from the largest leading id + 2 so
// that the run of every id up to it is [head[x], head[x + 1]).
template <typename Get>
std::vector<uint32_t> BuildHead(const std::vector<Triple>& index, Get get) {
  const size_t ids = index.empty() ? 1 : size_t{get(index.back())} + 1;
  std::vector<uint32_t> head(ids + 1);
  size_t i = 0;
  for (size_t x = 0; x <= ids; ++x) {
    while (i < index.size() && get(index[i]) < x) ++i;
    head[x] = static_cast<uint32_t>(i);
  }
  return head;
}

// The run of `id` in an index with head `head`; ids past the head (and the
// never-assigned kInvalidTermId) get an empty span at the index's end.
std::span<const Triple> Run(const std::vector<Triple>& index,
                            const std::vector<uint32_t>& head, TermId id) {
  if (id >= head.size() - 1) return {index.data() + index.size(), 0};
  return {index.data() + head[id], size_t{head[id + 1]} - head[id]};
}

// The sub-run of `run` (sorted by `key` first) whose key equals `value`.
template <typename Key, typename Value>
std::span<const Triple> SubRun(std::span<const Triple> run, Key key,
                               const Value& value) {
  auto lo = std::lower_bound(
      run.begin(), run.end(), value,
      [&](const Triple& t, const Value& v) { return key(t) < v; });
  auto hi = std::upper_bound(
      lo, run.end(), value,
      [&](const Value& v, const Triple& t) { return v < key(t); });
  return run.subspan(static_cast<size_t>(lo - run.begin()),
                     static_cast<size_t>(hi - lo));
}

// Non-empty runs in a head: the distinct leading ids of its index.
uint64_t CountRuns(const std::vector<uint32_t>& head) {
  uint64_t count = 0;
  for (size_t x = 0; x + 1 < head.size(); ++x) count += head[x + 1] != head[x];
  return count;
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
  // sort produces byte-for-byte the std::sort result. Each head is built in
  // the task that sorts its index; PSO shares the POS predicate head.
  util::ParallelSort(spo_, LessSPO{}, tp);
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  spo_.shrink_to_fit();
  if (spo_.size() > kMaxTriples) {
    // The triples come from outside input, so this holds in every build.
    std::fprintf(stderr,
                 "Fatal: %zu distinct triples; a graph holds at most %zu\n",
                 spo_.size(), kMaxTriples);
    std::abort();
  }
  s_head_ = BuildHead(spo_, [](const Triple& t) { return t.s; });
  // A 1-thread pool runs the three tasks inline, in order.
  tp.ParallelFor(0, 3, [&](size_t i) {
    switch (i) {
      case 0:
        pos_ = spo_;
        std::sort(pos_.begin(), pos_.end(), LessPOS{});
        p_head_ = BuildHead(pos_, [](const Triple& t) { return t.p; });
        break;
      case 1:
        osp_ = spo_;
        std::sort(osp_.begin(), osp_.end(), LessOSP{});
        o_head_ = BuildHead(osp_, [](const Triple& t) { return t.o; });
        break;
      case 2:
        pso_ = spo_;
        std::sort(pso_.begin(), pso_.end(), LessPSO{});
        break;
    }
  });
  finalized_ = true;
}

std::vector<TermId> Graph::Predicates() const {
  assert(finalized_);
  std::vector<TermId> preds;
  for (size_t p = 0; p + 1 < p_head_.size(); ++p) {
    if (p_head_[p + 1] != p_head_[p]) preds.push_back(static_cast<TermId>(p));
  }
  return preds;
}

std::span<const Triple> Graph::Match(OptId s, OptId p, OptId o) const {
  assert(finalized_ && "Match before Finalize");
  const bool bs = s.has_value(), bp = p.has_value(), bo = o.has_value();
  if (bs) {
    std::span<const Triple> run = Run(spo_, s_head_, *s);
    if (bp) {
      if (!bo) {
        // (S,P,?) — p inside s's SPO run.
        return SubRun(run, [](const Triple& t) { return t.p; }, *p);
      }
      // (S,P,O) — (p, o) inside s's SPO run.
      return SubRun(run, [](const Triple& t) { return std::pair(t.p, t.o); },
                    std::pair(*p, *o));
    }
    if (bo) {
      // (S,?,O) — s inside o's OSP run.
      return SubRun(Run(osp_, o_head_, *o), [](const Triple& t) { return t.s; },
                    *s);
    }
    // (S,?,?) — s's SPO run.
    return run;
  }
  if (bp) {
    std::span<const Triple> run = Run(pos_, p_head_, *p);
    // (?,P,O) — o inside p's POS run; (?,P,?) — p's POS run.
    return bo ? SubRun(run, [](const Triple& t) { return t.o; }, *o) : run;
  }
  if (bo) {
    // (?,?,O) — o's OSP run.
    return Run(osp_, o_head_, *o);
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
  return Run(pso_, p_head_, p);
}

std::span<const Triple> Graph::PredicateByObject(TermId p) const {
  assert(finalized_);
  return Run(pos_, p_head_, p);
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
  return CountRuns(s_head_);
}

uint64_t Graph::CountDistinctObjects() const {
  assert(finalized_);
  return CountRuns(o_head_);
}

size_t Graph::IndexBytes() const {
  return (spo_.capacity() + pos_.capacity() + osp_.capacity() + pso_.capacity()) *
             sizeof(Triple) +
         (s_head_.capacity() + o_head_.capacity() + p_head_.capacity()) *
             sizeof(uint32_t);
}

}  // namespace shapestats::rdf
