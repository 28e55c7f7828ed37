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
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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

  /// Interns `term` under `key`, its canonical key as given
  /// (key == term.ToNTriples()), with hash == Hash(key): the key's bytes are
  /// stored as they are, not serialized from the term, and the term is moved
  /// in. Returns the same id Intern(term) would.
  TermId InternKey(std::string_view key, uint32_t hash, Term&& term);

  /// Makes room for `terms` more terms whose keys are `key_bytes` long in
  /// all, so that interning them moves no term and copies no key again. The
  /// slot table still doubles as it fills: re-slotting reads only tags.
  void Reserve(size_t terms, size_t key_bytes);

  /// Decodes an id back to the term. Id must be valid.
  const Term& term(TermId id) const { return terms_[id]; }

  /// Number of interned terms (excluding the invalid slot).
  size_t size() const { return terms_.size() - 1; }

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
  // Adds `term`, whose key was just appended to the arena, in the empty slot
  // `slot`; returns its fresh id.
  TermId Insert(size_t slot, uint32_t tag, Term&& term);
  // Doubles the slot table.
  void Grow();

  std::vector<Slot> slots_;
  std::string keys_;                // every key back to back, in id order
  std::vector<size_t> key_offset_;  // id's key is [key_offset_[id], [id + 1])
  std::vector<Term> terms_;         // terms_[0] is a dummy
};

}  // namespace shapestats::rdf
