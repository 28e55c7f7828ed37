// Dictionary-encoded BGP: the bridge between the parsed AST (strings) and
// everything downstream (estimators, optimizers, executor), which work on
// TermIds and dense variable indexes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::sparql {

/// Variable index within one encoded BGP.
using VarId = uint32_t;

/// One position of an encoded triple pattern.
struct EncodedTerm {
  enum class Kind : uint8_t {
    kVar,      // id is a VarId
    kBound,    // id is a rdf::TermId present in the data dictionary
    kMissing,  // constant that does not occur in the dataset (matches nothing)
  };
  Kind kind = Kind::kVar;
  uint32_t id = 0;

  bool is_var() const { return kind == Kind::kVar; }
  bool is_bound() const { return kind == Kind::kBound; }
  bool is_missing() const { return kind == Kind::kMissing; }

  static EncodedTerm Var(VarId v) { return {Kind::kVar, v}; }
  static EncodedTerm Bound(rdf::TermId t) { return {Kind::kBound, t}; }
  static EncodedTerm Missing() { return {Kind::kMissing, 0}; }
};

/// Encoded triple pattern. `input_index` is the position in the original
/// query text (the paper's tp_1..tp_n numbering).
struct EncodedPattern {
  EncodedTerm s, p, o;
  uint32_t input_index = 0;

  /// True if any constant is absent from the data (the pattern matches 0
  /// triples).
  bool HasMissingConstant() const {
    return s.is_missing() || p.is_missing() || o.is_missing();
  }
};

/// A whole encoded BGP plus the variable name table.
struct EncodedBgp {
  std::vector<EncodedPattern> patterns;
  std::vector<std::string> var_names;  // index = VarId

  size_t NumVars() const { return var_names.size(); }
  /// VarId of the variable `name`, or -1 when no pattern mentions it. A
  /// linear scan: BGPs hold at most a few dozen variables.
  int FindVar(std::string_view name) const;
};

/// Builds an EncodedBgp one triple pattern at a time: the per-term encoder
/// behind both the one-pass parser (ParseQuery(text, &encoder), which feeds
/// it each pattern as it reads the text) and EncodeBgp (which feeds it a
/// parsed query's patterns). Variables are numbered by first occurrence in
/// the order their patterns are added, s, p, o within a pattern — pattern
/// order only, so projection, FILTER and ORDER BY variables never shift
/// the numbering. Each distinct constant's N-Triples key is stored once
/// and resolved against the dictionary once, in Finish. Reset keeps every
/// buffer's capacity, so an encoder reused across queries allocates only
/// for the EncodedBgp that Finish returns.
class BgpEncoder {
 public:
  /// Forgets the previous query's patterns, variables and constants.
  void Reset();

  /// The variable `name` (without '?'), numbered on first sight.
  EncodedTerm Var(std::string_view name);
  /// A constant term. Its N-Triples key is rendered into a reused buffer
  /// and stored once; until Finish the returned term is a placeholder,
  /// kBound with the constant's index.
  EncodedTerm Constant(const rdf::Term& term);
  /// Var or Constant, whichever `term` is.
  EncodedTerm Encode(const PatternTerm& term);

  void AddPattern(EncodedTerm s, EncodedTerm p, EncodedTerm o);

  /// VarId of the pattern variable `name`, or -1 when no added pattern
  /// mentions it.
  int FindVar(std::string_view name) const;

  /// Resolves every distinct constant against `dict` (absent ones become
  /// kMissing) and returns the encoded BGP. The encoder stays reusable.
  EncodedBgp Finish(const rdf::TermDictionary& dict);

 private:
  EncodedTerm Key(std::string_view key);

  std::string names_;               // variable names, concatenated
  std::vector<uint32_t> name_ends_;  // end offset of VarId i in names_
  std::string keys_;                // distinct constant keys, concatenated
  std::vector<uint32_t> key_ends_;   // end offset of constant i in keys_
  std::string scratch_;             // the key being rendered
  std::vector<EncodedPattern> patterns_;
  std::vector<EncodedTerm> resolved_;  // Finish: constant index -> term
};

/// Encodes `query`'s BGP against `dict`. Constants not present in the
/// dictionary become kMissing terms (cardinality 0), not errors — a query
/// mentioning an unknown IRI is valid and simply has an empty answer.
EncodedBgp EncodeBgp(const ParsedQuery& query, const rdf::TermDictionary& dict);

}  // namespace shapestats::sparql
