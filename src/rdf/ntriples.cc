#include "rdf/ntriples.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <thread>

#include "rdf/vocab.h"
#include "util/file_view.h"
#include "util/string_util.h"

namespace shapestats::rdf {

namespace {

// The first byte <= 0x20 (space, tab, CR or another control byte) in
// [p, end), or end. Eight bytes at a time on little-endian hosts: in
// (w - 0x2121...21) & ~w & 0x8080...80 the lowest set bit marks the first
// byte below 0x21 (bits above it may come from a borrow and are not read).
const char* FindSpaceOrControl(const char* p, const char* end) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    for (; end - p >= 8; p += 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      const uint64_t below = (w - kOnes * 0x21) & ~w & (kOnes * 0x80);
      if (below != 0) return p + std::countr_zero(below) / 8;
    }
  }
  while (p < end && static_cast<unsigned char>(*p) > 0x20) ++p;
  return p;
}

// End of the token that starts at line[i]: a quoted literal runs past its
// closing unescaped quote and then, like every other token, up to the next
// whitespace (so a datatype or language suffix stays attached). Every
// whitespace byte is <= 0x20, so the scan skips the bytes above it a word at a
// time and tests only the bytes <= 0x20 it stops at.
size_t TokenEnd(std::string_view line, size_t i) {
  if (line[i] == '"') {
    const size_t close = LiteralEnd(line.substr(i));
    i = close == std::string_view::npos ? line.size() : i + close + 1;
  }
  const char* const end = line.data() + line.size();
  for (const char* p = line.data() + i;; ++p) {
    p = FindSpaceOrControl(p, end);
    if (p == end || IsAsciiSpace(*p)) return p - line.data();
  }
}

// Splits the body of a triple line (trimmed, terminating '.' removed) into
// subject, predicate and object text. The object is the remainder of the
// line, so it may contain spaces even outside a literal's quotes.
// False if fewer than three tokens are present.
bool SplitTriple(std::string_view body, std::string_view tok[3]) {
  size_t i = 0;
  for (int k = 0; k < 3; ++k) {
    while (i < body.size() && IsAsciiSpace(body[i])) ++i;
    if (i >= body.size()) return false;
    const size_t end = k < 2 ? TokenEnd(body, i) : body.size();
    tok[k] = body.substr(i, end - i);
    i = end;
  }
  return true;
}

// The kind of the term whose canonical key is `key` (Term::ToNTriples).
TermKind KindOfKey(std::string_view key) {
  if (key.front() == '<') return TermKind::kIri;
  return key.front() == '"' ? TermKind::kLiteral : TermKind::kBlank;
}

// True when `term`, parsed from `token`, serializes back to exactly `token`,
// so the token's bytes are its key. IRIs and blank nodes always do. A
// literal does when nothing in it is escaped or would be (no backslash, tab
// or CR; a quote inside is always escaped) and its suffix survives: a
// non-empty language tag, a datatype other than xsd:string, or no suffix at
// all (which a bare "@" or "^^<>" would lose).
bool IsCanonical(std::string_view token, const Term& term) {
  if (!term.is_literal()) return true;
  if (token.find_first_of("\\\t\r") != std::string_view::npos) return false;
  if (!term.lang.empty()) return true;
  if (term.datatype.empty()) return token.back() == '"';
  return term.datatype != vocab::kXsdString;
}

// Allocates each block as a private anonymous mapping and unmaps it when it
// is freed. The chunk tables below are built on the pool's threads and freed
// after the merge. Memory a thread takes from malloc comes from that thread's
// arena, and malloc_trim gives back none of the free space at the top of an
// arena other than the main one, so tables taken from malloc would stay
// resident after the load.
template <typename T>
struct MappedAllocator {
  using value_type = T;
  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) {}  // NOLINT(runtime/explicit)
  T* allocate(size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) { munmap(p, n * sizeof(T)); }
  bool operator==(const MappedAllocator&) const { return true; }
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

// Bytes of text per distinct term, per triple and per key byte that the
// tables of a load are reserved for up front. Room that is never written is
// never faulted in, so the reservation is generous: generated LUBM, YAGO and
// WatDiv data hold a distinct term per 260-620 bytes, a triple per 110-170
// and a key byte per 10-16. Denser text grows the tables, which only costs
// copies.
constexpr size_t kBytesPerTermReserved = 64;
constexpr size_t kBytesPerTripleReserved = 32;
constexpr size_t kBytesPerKeyByteReserved = 4;

// The keys of one chunk, with chunk-local ids 1, 2, ... in the order they
// were first interned, behind the three TermDictionary calls ParseLines
// makes. The index works like the dictionary's (tagged slots, linear
// probing, load at most 1/2), but a key is not copied: it is a view of the
// token in the text, or, for a term spelled non-canonically, of the
// canonical key kept in `respelled_`.
class ChunkTerms {
 public:
  explicit ChunkTerms(size_t text_bytes = 0) : slots_(kInitialSlots) {
    keys_.reserve(text_bytes / kBytesPerTermReserved);
  }

  std::optional<TermId> FindKey(std::string_view key, uint32_t hash) const {
    const TermId id = slots_[Probe(key, hash)].id;
    if (id == kInvalidTermId) return std::nullopt;
    return id;
  }

  TermId InternKey(std::string_view key, uint32_t hash) {
    const size_t slot = Probe(key, hash);
    if (slots_[slot].id != kInvalidTermId) return slots_[slot].id;
    keys_.push_back(Key{key, hash});
    const TermId id = static_cast<TermId>(keys_.size());
    slots_[slot] = Slot{hash, id};
    if (2 * keys_.size() > slots_.size()) Grow();
    return id;
  }

  TermId Intern(const Term& term) {
    std::string key = term.ToNTriples();
    const uint32_t hash = TermDictionary::Hash(key);
    if (std::optional<TermId> id = FindKey(key, hash)) return *id;
    return InternKey(respelled_.emplace_back(std::move(key)), hash);
  }

  // Interns every key into `dict` in id order and frees the table; returns
  // the id in `dict` of each local id (0 maps to 0).
  std::vector<TermId> MoveInto(TermDictionary& dict) {
    std::vector<TermId> ids(keys_.size() + 1, kInvalidTermId);
    for (size_t i = 0; i < keys_.size(); ++i) {
      ids[i + 1] = dict.InternKey(keys_[i].key, keys_[i].hash);
    }
    *this = ChunkTerms();
    return ids;
  }

 private:
  static constexpr size_t kInitialSlots = 1024;
  struct Slot {
    uint32_t tag;
    TermId id;  // kInvalidTermId marks an empty slot
  };
  struct Key {
    std::string_view key;
    uint32_t hash;
  };

  size_t Probe(std::string_view key, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kInvalidTermId ||
          (slot.tag == hash && keys_[slot.id - 1].key == key)) {
        return i;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kInvalidTermId) continue;
      size_t i = slot.tag & mask;
      while (slots_[i].id != kInvalidTermId) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  // The slots come from malloc: they double from 8 KB, and a mapping per
  // doubling would cost a system call and fresh pages each time.
  std::vector<Slot> slots_;
  MappedVector<Key> keys_;  // keys_[id - 1]
  std::deque<std::string> respelled_;
};

// What ParseLines read: `lines` lines, the last of them rejected with
// `error` when that is set.
struct LinesRead {
  size_t lines = 0;
  std::optional<std::string> error;
};

// Parses the whole lines of `text` into `dict` (a TermDictionary or a
// ChunkTerms), passing each triple's ids to `add(s, p, o)`, up to the first
// malformed line.
//
// Each token is first looked up by its raw text. A hit is exact: for every
// term t, ToNTriples(ParseTerm(ToNTriples(t))) == ToNTriples(t), so a token
// equal to a dictionary key parses to a term whose key is that key, and
// Intern(ParseTerm(token)) would return the same id. A miss runs ParseTerm;
// a canonical token is then interned from its own bytes (InternKey, with
// the hash of the lookup), and any other spelling (an explicit
// ^^xsd:string, an escape, a raw tab in quotes) through Intern, which
// canonicalizes it. A subject spelled like the previous triple's subject
// reuses its id.
template <typename Dict, typename Add>
LinesRead ParseLines(std::string_view text, Dict& dict, Add add) {
  LinesRead read;
  std::string_view prev_subject;  // empty, so no token equals it until set
  TermId prev_subject_id = kInvalidTermId;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++read.lines;
    if (line.empty() || line.front() == '#') continue;
    if (line.back() != '.') {
      read.error = "missing terminating '.': " + std::string(line);
      return read;
    }
    std::string_view tok[3];
    if (!SplitTriple(Trim(line.substr(0, line.size() - 1)), tok)) {
      read.error = "truncated triple";
      return read;
    }

    // Resolve subject, predicate, object; validate; only then intern, so a
    // rejected line adds nothing to the dictionary.
    TermId id[3] = {};
    uint32_t hash[3] = {};
    std::optional<Term> parsed[3];
    TermKind kind[3] = {};
    for (int k = 0; k < 3; ++k) {
      if (k == 0 && tok[0] == prev_subject) {
        id[0] = prev_subject_id;
        kind[0] = KindOfKey(tok[0]);
        continue;
      }
      hash[k] = TermDictionary::Hash(tok[k]);
      if (std::optional<TermId> hit = dict.FindKey(tok[k], hash[k])) {
        id[k] = *hit;
        kind[k] = KindOfKey(tok[k]);
        continue;
      }
      Result<Term> term = ParseTerm(tok[k]);
      if (!term.ok()) {
        read.error = term.status().message();
        return read;
      }
      kind[k] = term->kind;
      parsed[k] = std::move(*term);
    }
    if (kind[1] != TermKind::kIri) {
      read.error = "predicate must be an IRI";
      return read;
    }
    if (kind[0] == TermKind::kLiteral) {
      read.error = "subject must not be a literal";
      return read;
    }
    // Object, predicate, subject: the order Graph::Add(const Term&, ...) uses.
    for (int k = 2; k >= 0; --k) {
      if (!parsed[k]) continue;
      id[k] = IsCanonical(tok[k], *parsed[k])
                  ? dict.InternKey(tok[k], hash[k])
                  : dict.Intern(*parsed[k]);
    }
    add(id[0], id[1], id[2]);
    prev_subject = tok[0];
    prev_subject_id = id[0];
  }
  return read;
}

// The status of a parse whose first bad line is line `line_no`.
Status LineError(size_t line_no, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " + message);
}

}  // namespace

std::vector<std::string_view> NTriplesChunks(std::string_view text,
                                             unsigned threads) {
  const size_t n =
      threads <= 1 ? 1
                   : std::clamp<size_t>(text.size() / kNTriplesMinChunkBytes, 1,
                                        size_t{threads} * 4);
  std::vector<std::string_view> chunks;
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    // Chunk i - 1 ends after the first newline at or past i / n of the text.
    const size_t eol = text.find('\n', std::max(begin, i * (text.size() / n)));
    if (eol == std::string_view::npos || eol + 1 == text.size()) break;
    chunks.push_back(text.substr(begin, eol + 1 - begin));
    begin = eol + 1;
  }
  chunks.push_back(text.substr(begin));
  return chunks;
}

// The dictionary is first reserved for the whole text, so that neither path
// grows its key arena and offsets by doubling. One chunk is parsed straight
// into the graph: the sequential loop. Several chunks are parsed in
// parallel, each into a ChunkTerms and a triple list of its own, with
// chunk-local ids. The chunk tables are interned into the
// graph's dictionary in chunk order, each in its local id order. That is
// the order a line-by-line parse meets their terms in, so every id is the
// one that parse gives: a term first met in chunk c occurs in no earlier
// chunk, so it is new when chunk c merges, after the new terms of every
// earlier chunk and in its order of first occurrence within chunk c. Only
// the calling thread merges, between the chunks it parses itself and after
// the last one, so the dictionary's arrays come from its malloc arena. Each
// chunk's triples are then rewritten to the merged ids, into their place in
// the staging area. Only the chunks up to the first one with a bad line are
// merged, and that chunk holds only the lines before the bad one.
Status ParseNTriples(std::string_view text, Graph* graph,
                     util::ThreadPool* pool) {
  if (graph->finalized()) {
    return Status::InvalidArgument("graph already finalized");
  }
  util::ThreadPool& tp = pool != nullptr ? *pool : util::ThreadPool::Shared();
  const std::vector<std::string_view> chunks =
      NTriplesChunks(text, tp.num_threads());
  const size_t n = chunks.size();
  graph->dict().Reserve(text.size() / kBytesPerTermReserved,
                        text.size() / kBytesPerKeyByteReserved);
  if (n == 1) {
    const LinesRead read = ParseLines(text, graph->dict(),
                                      [graph](TermId s, TermId p, TermId o) {
                                        graph->Add(s, p, o);
                                      });
    return read.error ? LineError(read.lines, *read.error) : Status::OK();
  }

  std::vector<LinesRead> read(n);
  std::vector<ChunkTerms> tables;
  std::vector<MappedVector<Triple>> triples(n);
  for (size_t c = 0; c < n; ++c) {
    tables.emplace_back(chunks[c].size());
    triples[c].reserve(chunks[c].size() / kBytesPerTripleReserved);
  }
  // parsed[c] is set once chunk c is parsed. Chunks below `merged` are in
  // the graph's dictionary, and ids[c] maps chunk c's local ids to the
  // graph's. `failed` is the first merged chunk with a bad line, if any.
  std::unique_ptr<std::atomic<bool>[]> parsed(new std::atomic<bool>[n]());
  std::vector<std::vector<TermId>> ids(n);
  size_t merged = 0;
  std::optional<size_t> failed;
  TermDictionary& dict = graph->dict();
  auto merge_parsed = [&] {
    for (; merged < n && !failed && parsed[merged].load(std::memory_order_acquire);
         ++merged) {
      ids[merged] = tables[merged].MoveInto(dict);
      if (read[merged].error) failed = merged;
    }
  };
  const std::thread::id caller = std::this_thread::get_id();
  tp.ParallelFor(0, n, [&](size_t c) {
    MappedVector<Triple>& out = triples[c];
    read[c] = ParseLines(chunks[c], tables[c], [&out](TermId s, TermId p, TermId o) {
      out.push_back(Triple{s, p, o});
    });
    parsed[c].store(true, std::memory_order_release);
    if (std::this_thread::get_id() == caller) merge_parsed();
  });
  merge_parsed();

  std::vector<size_t> at(merged + 1, 0);  // at[c]: chunk c's first triple
  for (size_t c = 0; c < merged; ++c) at[c + 1] = at[c] + triples[c].size();
  const std::span<Triple> staged = graph->StageTriples(at[merged]);
  tp.ParallelFor(0, merged, [&](size_t c) {
    const std::vector<TermId>& to = ids[c];
    Triple* out = staged.data() + at[c];
    for (const Triple& t : triples[c]) *out++ = Triple{to[t.s], to[t.p], to[t.o]};
  });
  if (!failed) return Status::OK();
  size_t line_no = 0;
  for (size_t c = 0; c <= *failed; ++c) line_no += read[c].lines;
  return LineError(line_no, *read[*failed].error);
}

Status LoadNTriplesFile(const std::string& path, Graph* graph,
                        util::ThreadPool* pool) {
  Result<FileView> file = FileView::Open(path);
  if (!file.ok()) return file.status();
  return ParseNTriples(file->text(), graph, pool);
}

std::string WriteNTriples(const Graph& graph) {
  std::string out;
  const auto& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    out += dict.ToNTriples(t.s);
    out += ' ';
    out += dict.ToNTriples(t.p);
    out += ' ';
    out += dict.ToNTriples(t.o);
    out += " .\n";
  }
  return out;
}

Status SaveNTriplesFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteNTriples(graph);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace shapestats::rdf
