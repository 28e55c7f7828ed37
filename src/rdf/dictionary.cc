#include "rdf/dictionary.h"

#include <cstdint>
#include <cstring>

#include "util/string_util.h"

namespace shapestats::rdf {

// 8-byte words folded by multiply/xorshift, then the splitmix64 finalizer,
// whose low bits are well mixed for slot selection. Ids never depend on it
// (they follow interning order), only slot positions.
uint32_t TermDictionary::Hash(std::string_view key) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  uint64_t h = key.size() * kMul;
  const char* p = key.data();
  size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kMul;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h);
}

TermDictionary::TermDictionary()
    : slots_(kInitialSlots, Slot{0, kInvalidTermId}),
      keys_(Term().ToNTriples()),  // id 0: the IRI <>, keyed but never indexed
      key_offset_{0, keys_.size()} {}

size_t TermDictionary::Probe(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidTermId || (slot.tag == tag && Key(slot.id) == key)) {
      return i;
    }
  }
}

void TermDictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{0, kInvalidTermId});
  const size_t mask = slots_.size() - 1;
  // Keys are distinct, so each one takes the first empty slot from its home.
  for (const Slot& slot : old) {
    if (slot.id == kInvalidTermId) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != kInvalidTermId) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

TermId TermDictionary::Intern(const Term& term) {
  // The key is written straight into the arena and dropped again on a hit.
  const size_t start = keys_.size();
  term.AppendNTriples(&keys_);
  const std::string_view key(keys_.data() + start, keys_.size() - start);
  const uint32_t tag = Hash(key);
  const size_t slot = Probe(key, tag);
  if (slots_[slot].id != kInvalidTermId) {
    keys_.resize(start);
    return slots_[slot].id;
  }
  return Insert(slot, tag);
}

TermId TermDictionary::InternKey(std::string_view key, uint32_t hash) {
  const size_t slot = Probe(key, hash);
  if (slots_[slot].id != kInvalidTermId) return slots_[slot].id;
  keys_.append(key);
  return Insert(slot, hash);
}

void TermDictionary::Reserve(size_t terms, size_t key_bytes) {
  key_offset_.reserve(key_offset_.size() + terms);
  keys_.reserve(keys_.size() + key_bytes);
}

TermId TermDictionary::Insert(size_t slot, uint32_t tag) {
  const TermId id = static_cast<TermId>(key_offset_.size() - 1);
  key_offset_.push_back(keys_.size());
  // A literal's value holds a backslash only where its key escapes it, and
  // then the first quote may be an escaped one.
  const std::string_view key = Key(id);
  if (key.front() == '"' &&
      key.substr(1, key.find('"', 1) - 1).find('\\') != std::string_view::npos) {
    unescaped_.emplace(id, UnescapeLiteral(key.substr(1, LiteralEnd(key) - 1)));
  }
  slots_[slot] = Slot{tag, id};
  if (2 * size() > slots_.size()) Grow();
  return id;
}

size_t TermDictionary::MemoryBytes() const {
  size_t unescaped = 0;
  for (const auto& [id, value] : unescaped_) unescaped += sizeof(id) + value.size();
  return keys_.size() + key_offset_.size() * sizeof(size_t) +
         slots_.size() * sizeof(Slot) + unescaped;
}

TermId TermDictionary::InternIri(std::string_view iri) {
  return Intern(Term::Iri(std::string(iri)));
}

TermId TermDictionary::InternLiteral(std::string_view value) {
  return Intern(Term::Literal(std::string(value)));
}

std::optional<TermId> TermDictionary::Find(const Term& term) const {
  return FindKey(term.ToNTriples());
}

std::optional<TermId> TermDictionary::FindKey(std::string_view key,
                                             uint32_t hash) const {
  const Slot& slot = slots_[Probe(key, hash)];
  if (slot.id == kInvalidTermId) return std::nullopt;
  return slot.id;
}

std::optional<TermId> TermDictionary::FindIri(std::string_view iri) const {
  std::string key;
  key.reserve(iri.size() + 2);
  key += '<';
  key += iri;
  key += '>';
  return FindKey(key);
}

std::string TermDictionary::Pretty(TermId id) const {
  const TermView t = term(id);
  if (t.is_iri()) {
    const size_t cut = t.lexical.find_last_of("#/");
    return std::string(cut == std::string_view::npos ? t.lexical
                                                     : t.lexical.substr(cut + 1));
  }
  if (t.is_blank()) return "_:" + std::string(t.lexical);
  return std::string(t.lexical);
}

}  // namespace shapestats::rdf
