#include "sparql/encoded_bgp.h"

#include <optional>

namespace shapestats::sparql {

namespace {

/// Entry `i` of strings stored back to back in `arena`, entry k ending at
/// `ends[k]`.
std::string_view Slice(const std::string& arena,
                       const std::vector<uint32_t>& ends, size_t i) {
  const uint32_t begin = i == 0 ? 0 : ends[i - 1];
  return std::string_view(arena).substr(begin, ends[i] - begin);
}

}  // namespace

void BgpEncoder::Reset() {
  names_.clear();
  name_ends_.clear();
  keys_.clear();
  key_ends_.clear();
  patterns_.clear();
}

EncodedTerm BgpEncoder::Var(std::string_view name) {
  const int known = FindVar(name);
  if (known >= 0) return EncodedTerm::Var(static_cast<VarId>(known));
  names_.append(name);
  name_ends_.push_back(static_cast<uint32_t>(names_.size()));
  return EncodedTerm::Var(static_cast<VarId>(name_ends_.size() - 1));
}

int BgpEncoder::FindVar(std::string_view name) const {
  for (size_t v = 0; v < name_ends_.size(); ++v) {
    if (Slice(names_, name_ends_, v) == name) return static_cast<int>(v);
  }
  return -1;
}

int EncodedBgp::FindVar(std::string_view name) const {
  for (size_t v = 0; v < var_names.size(); ++v) {
    if (var_names[v] == name) return static_cast<int>(v);
  }
  return -1;
}

EncodedTerm BgpEncoder::Key(std::string_view key) {
  // Queries carry a handful of distinct constants, and lookups repeat
  // their anchor in every pattern: a linear scan finds the repeats.
  for (size_t c = 0; c < key_ends_.size(); ++c) {
    if (Slice(keys_, key_ends_, c) == key) {
      return {EncodedTerm::Kind::kBound, static_cast<uint32_t>(c)};
    }
  }
  keys_.append(key);
  key_ends_.push_back(static_cast<uint32_t>(keys_.size()));
  return {EncodedTerm::Kind::kBound,
          static_cast<uint32_t>(key_ends_.size() - 1)};
}

EncodedTerm BgpEncoder::Constant(const rdf::Term& term) {
  scratch_.clear();
  term.AppendNTriples(&scratch_);
  return Key(scratch_);
}

EncodedTerm BgpEncoder::Encode(const PatternTerm& term) {
  return IsVar(term) ? Var(AsVar(term).name) : Constant(AsTerm(term));
}

void BgpEncoder::AddPattern(EncodedTerm s, EncodedTerm p, EncodedTerm o) {
  patterns_.push_back(
      EncodedPattern{s, p, o, static_cast<uint32_t>(patterns_.size())});
}

EncodedBgp BgpEncoder::Finish(const rdf::TermDictionary& dict) {
  // Resolve each distinct constant once, in place of its index.
  resolved_.clear();
  for (size_t c = 0; c < key_ends_.size(); ++c) {
    const std::optional<rdf::TermId> id =
        dict.FindKey(Slice(keys_, key_ends_, c));
    resolved_.push_back(id ? EncodedTerm::Bound(*id) : EncodedTerm::Missing());
  }
  EncodedBgp out;
  out.patterns.reserve(patterns_.size());
  for (EncodedPattern ep : patterns_) {
    for (EncodedTerm* t : {&ep.s, &ep.p, &ep.o}) {
      if (t->is_bound()) *t = resolved_[t->id];
    }
    out.patterns.push_back(ep);
  }
  out.var_names.reserve(name_ends_.size());
  for (size_t v = 0; v < name_ends_.size(); ++v) {
    out.var_names.emplace_back(Slice(names_, name_ends_, v));
  }
  return out;
}

EncodedBgp EncodeBgp(const ParsedQuery& query, const rdf::TermDictionary& dict) {
  thread_local BgpEncoder encoder;
  encoder.Reset();
  for (const TriplePattern& tp : query.patterns) {
    const EncodedTerm s = encoder.Encode(tp.s);
    const EncodedTerm p = encoder.Encode(tp.p);
    const EncodedTerm o = encoder.Encode(tp.o);
    encoder.AddPattern(s, p, o);
  }
  return encoder.Finish(dict);
}

}  // namespace shapestats::sparql
