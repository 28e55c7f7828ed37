// Term dictionary: bidirectional mapping between RDF terms and dense
// TermIds. The whole pipeline (store, SPARQL encoding, statistics,
// execution) works on TermIds; strings only appear at parse/print time.
//
// Layout: the canonical keys (Term::ToNTriples) of all terms are stored back
// to back in one arena, in id order, with a per-id offset array. The index is
// a flat open-addressing table of (32-bit hash tag, TermId) slots with
// power-of-two capacity, linear probing and load at most 1/2; a slot whose
// tag matches is confirmed against the key in the arena. Growth re-slots by
// tag alone, never re-reading or re-hashing a key.
//
// The arena is the only copy of a term's text: there is no array of decoded
// terms. term(id) parses the key each time into a TermView of the arena,
// without allocating. The one exception is a literal whose key escapes
// something (a quote, a backslash, a newline, a CR or a tab in its value):
// its value is unescaped once, when it is interned, into a side table, and
// its view's lexical points there. A TermView is valid until the next
// intern, which may move the arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace shapestats::rdf {

/// Interning dictionary. Ids are assigned densely starting at 1
/// (kInvalidTermId = 0 is never assigned). Not thread-safe for writes.
class TermDictionary {
 public:
  /// Slots of an empty dictionary's index; it doubles as terms are added.
  static constexpr size_t kInitialSlots = 1024;

  TermDictionary();

  /// Interns a term, returning its id (existing or fresh).
  TermId Intern(const Term& term);

  /// Convenience: interns an IRI given its string.
  TermId InternIri(std::string_view iri);

  /// Convenience: interns a plain string literal.
  TermId InternLiteral(std::string_view value);

  /// Looks up an already-interned term; nullopt if absent.
  std::optional<TermId> Find(const Term& term) const;
  std::optional<TermId> FindIri(std::string_view iri) const;

  /// The 32-bit hash a key is slotted by. Ids never depend on it.
  static uint32_t Hash(std::string_view key);

  /// Looks up a canonical N-Triples key (Term::ToNTriples) as given, without
  /// parsing or building a string; nullopt if no term has exactly this key.
  /// `hash` must be Hash(key); a caller that goes on to InternKey the same
  /// key passes it on, so the key is hashed once.
  std::optional<TermId> FindKey(std::string_view key) const {
    return FindKey(key, Hash(key));
  }
  std::optional<TermId> FindKey(std::string_view key, uint32_t hash) const;

  /// Interns the term whose canonical key is `key` (key == ToNTriples() of
  /// the term ParseTerm(key) gives), with hash == Hash(key): the key's bytes
  /// are stored as they are. Returns the same id Intern(term) would.
  TermId InternKey(std::string_view key, uint32_t hash);

  /// Makes room for `terms` more terms whose keys are `key_bytes` long in
  /// all, so that interning them copies no key or offset again. The slot
  /// table still doubles as it fills: re-slotting reads only tags.
  void Reserve(size_t terms, size_t key_bytes);

  /// The term of an id, read from its key; valid until the next intern. Id
  /// must be valid (0 reads as the IRI <>).
  TermView term(TermId id) const {
    const std::string_view key = Key(id);
    if (key.front() == '<') {
      return {TermKind::kIri, key.substr(1, key.size() - 2), {}, {}};
    }
    if (key.front() == '_') return {TermKind::kBlank, key.substr(2), {}, {}};
    // A literal's value runs to the first quote. Only an escaped key has a
    // backslash there: its value is the unescaped one, and its closing
    // quote the first one no backslash escapes.
    size_t close = key.find('"', 1);
    std::string_view value = key.substr(1, close - 1);
    if (!unescaped_.empty() && value.find('\\') != std::string_view::npos) {
      close = LiteralEnd(key);
      value = unescaped_.at(id);
    }
    const std::string_view suffix = key.substr(close + 1);  // "", @lang, ^^<dt>
    if (suffix.empty()) return {TermKind::kLiteral, value, {}, {}};
    if (suffix.front() == '@') return {TermKind::kLiteral, value, {}, suffix.substr(1)};
    return {TermKind::kLiteral, value, suffix.substr(3, suffix.size() - 4), {}};
  }

  /// Number of interned terms (excluding the invalid slot).
  size_t size() const { return key_offset_.size() - 2; }

  /// Bytes the dictionary holds: the key arena, the offsets, the slot table
  /// and the unescaped values, counted by size rather than capacity.
  size_t MemoryBytes() const;

  /// Canonical N-Triples rendering of a term id.
  std::string ToNTriples(TermId id) const { return std::string(Key(id)); }

  /// Short human-readable rendering (IRI local name / literal value).
  std::string Pretty(TermId id) const;

 private:
  // One index slot; id kInvalidTermId marks it empty.
  struct Slot {
    uint32_t tag;
    TermId id;
  };

  // The canonical key of an id, as stored in the arena.
  std::string_view Key(TermId id) const {
    return {keys_.data() + key_offset_[id],
            key_offset_[id + 1] - key_offset_[id]};
  }
  // The slot holding `key` (tag `tag`), or the empty slot it would go in.
  size_t Probe(std::string_view key, uint32_t tag) const;
  // Adds the key just appended to the arena in the empty slot `slot`;
  // returns its fresh id.
  TermId Insert(size_t slot, uint32_t tag);
  // Doubles the slot table.
  void Grow();

  std::vector<Slot> slots_;
  std::string keys_;                // every key back to back, in id order
  std::vector<size_t> key_offset_;  // id's key is [key_offset_[id], [id + 1])
  // The unescaped value of each literal whose key escapes it. Node-based,
  // so no value moves when another is added.
  std::unordered_map<TermId, std::string> unescaped_;
};

}  // namespace shapestats::rdf
