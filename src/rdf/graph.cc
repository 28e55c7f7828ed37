#include "rdf/graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace shapestats::rdf {

namespace {

// The exclusive prefix sums of the `Key` component counts of `in`, with
// `buckets` = largest key + 2 entries: the head of an index of `in` grouped
// by `Key`, whose group x is [head[x], head[x + 1]).
template <TermId Triple::*Key, typename Offset>
std::vector<Offset> Head(std::span<const Triple> in, size_t buckets) {
  std::vector<Offset> head(buckets, 0);
  for (const Triple& t : in) ++head[size_t{t.*Key} + 1];
  for (size_t x = 1; x < buckets; ++x) head[x] += head[x - 1];
  return head;
}

// Stable counting sort of `in` by component `Key` into `out` (sized like
// `in`); returns the head of `out`. Stability is what makes it an index
// build: scattering by k an array sorted by (a, b) yields one sorted by
// (k, a, b).
template <TermId Triple::*Key, typename Offset>
std::vector<Offset> Scatter(std::span<const Triple> in, size_t buckets,
                            std::span<Triple> out) {
  std::vector<Offset> head = Head<Key, Offset>(in, buckets);
  // Placing each triple bumps its group's start, which leaves head[x] at
  // the start of group x + 1; shifting by one restores the starts.
  for (const Triple& t : in) out[head[t.*Key]++] = t;
  std::move_backward(head.begin(), head.end() - 1, head.end());
  head[0] = 0;
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

std::span<Triple> Graph::StageTriples(size_t n) {
  assert(!finalized_ && "StageTriples after Finalize");
  const size_t at = spo_.size();
  spo_.resize(at + n);
  return std::span<Triple>(spo_).subspan(at);
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
  // Every head (and every scatter's histogram) has one slot per id up to the
  // largest id in its position, plus two; deduplication removes no id.
  size_t s_buckets = 2, p_buckets = 2, o_buckets = 2;
  for (const Triple& t : spo_) {
    s_buckets = std::max(s_buckets, size_t{t.s} + 2);
    p_buckets = std::max(p_buckets, size_t{t.p} + 2);
    o_buckets = std::max(o_buckets, size_t{t.o} + 2);
  }
  // SPO: three LSD passes over the staged triples (by o, then p, then s),
  // counted in size_t since duplicates may push them past kMaxTriples.
  {
    std::vector<Triple> tmp(spo_.size());
    Scatter<&Triple::o, size_t>(spo_, o_buckets, tmp);
    Scatter<&Triple::p, size_t>(tmp, p_buckets, spo_);
    Scatter<&Triple::s, size_t>(spo_, s_buckets, tmp);
    const auto last = std::unique(tmp.begin(), tmp.end());
    spo_ = std::vector<Triple>(tmp.begin(), last);
  }
  if (spo_.size() > kMaxTriples) {
    // The triples come from outside input, so this holds in every build.
    std::fprintf(stderr,
                 "Fatal: %zu distinct triples; a graph holds at most %zu\n",
                 spo_.size(), kMaxTriples);
    std::abort();
  }
  s_head_ = Head<&Triple::s, uint32_t>(spo_, s_buckets);
  // OSP = SPO by o, POS = OSP by p, PSO = SPO by p; each index's head is its
  // scatter's prefix sum, and PSO's equals POS's. A 1-thread pool runs the
  // two tasks inline, in order.
  const size_t n = spo_.size();
  osp_.resize(n);
  pos_.resize(n);
  pso_.resize(n);
  tp.ParallelFor(0, 2, [&](size_t i) {
    if (i == 0) {
      o_head_ = Scatter<&Triple::o, uint32_t>(spo_, o_buckets, osp_);
      p_head_ = Scatter<&Triple::p, uint32_t>(osp_, p_buckets, pos_);
    } else {
      Scatter<&Triple::p, uint32_t>(spo_, p_buckets, pso_);
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
