#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>

#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "util/random.h"
#include "workload/queries.h"

namespace shapestats::shapebench {

namespace {

// The lookup stream's parameters are chosen, not measured: none is taken
// from a published query-log study (see README.md, "lubm-lookup mix").

/// Queries in one lubm-lookup stream; the timed loop cycles through it.
constexpr size_t kStreamLength = 8192;
/// Zipf exponent of template popularity.
constexpr double kZipfExponent = 1.0;
/// Share of the stream drawn from the provably-empty families.
constexpr double kEmptyShare = 0.08;
/// The k of the LIMIT form, cycled over the BGPs.
constexpr int kLimits[] = {1, 5, 10};

const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// A lookup template: SPARQL with `$0`, `$1`, ... slots, each filled with
/// a constant drawn per instance. A slot names the ub: class whose
/// instances fill it, "value:<p>" for an object of ub:<p>, or "absent"
/// for a literal that is not in the data.
struct Template {
  std::string text;
  std::vector<std::string> slots;
};

const std::vector<std::string> kFaculty = {
    "FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer"};
const std::vector<std::string> kStudents = {"UndergraduateStudent",
                                            "GraduateStudent"};

/// One basic graph pattern with its projected variables. The last
/// variable is the object of ub:<value_pred>; the FILTER forms test it.
struct Bgp {
  std::string body;
  std::vector<std::string> vars;
  std::vector<std::string> slots;
  std::string value_pred = "name";
};

/// Constant-anchored stars (the anchor's class plus 1-4 properties) and
/// paths of two or three hops from a constant.
std::vector<Bgp> LookupBgps() {
  std::vector<Bgp> out;
  auto star = [&](const std::string& cls,
                  const std::vector<std::string>& preds) {
    Bgp b{"$0 a ub:" + cls + " .", {}, {cls}, preds.back()};
    for (size_t i = 0; i < preds.size(); ++i) {
      std::string v = "?v" + std::to_string(i);
      b.body += " $0 ub:" + preds[i] + " " + v + " .";
      b.vars.push_back(v);
    }
    out.push_back(std::move(b));
  };
  const std::vector<std::vector<std::string>> faculty_props = {
      {"name"},          {"emailAddress"},         {"telephone"},
      {"researchInterest"}, {"name", "emailAddress"}, {"worksFor", "degreeFrom"},
      {"teacherOf"}, {"name", "emailAddress", "telephone"},
      {"name", "worksFor", "degreeFrom", "telephone"}};
  for (const std::string& c : kFaculty) {
    for (const auto& props : faculty_props) star(c, props);
  }
  const std::vector<std::vector<std::string>> student_props = {
      {"name"}, {"emailAddress"}, {"memberOf"}, {"takesCourse"}, {"advisor"},
      {"name", "emailAddress", "memberOf"}};
  for (const std::string& c : kStudents) {
    for (const auto& props : student_props) star(c, props);
  }
  for (const std::string& c : kFaculty) {
    for (const char* p : {"name", "emailAddress", "researchInterest",
                          "teacherOf", "degreeFrom"}) {
      out.push_back({"?x a ub:" + c + " . ?x ub:worksFor $0 . ?x ub:" + p +
                         " ?v .",
                     {"?x", "?v"},
                     {"Department"},
                     p});
    }
  }
  for (const std::string& c : kStudents) {
    out.push_back({"?x a ub:" + c + " . ?x ub:memberOf $0 . ?x ub:name ?v .",
                   {"?x", "?v"},
                   {"Department"}});
  }
  for (const std::string& c : kFaculty) {
    out.push_back({"$0 a ub:" + c +
                       " . $0 ub:teacherOf ?c . ?s ub:takesCourse ?c . "
                       "?s ub:name ?n .",
                   {"?s", "?n"},
                   {c}});
    out.push_back({"?p ub:publicationAuthor $0 . ?p ub:name ?t .",
                   {"?p", "?t"},
                   {c}});
  }
  for (size_t i = 0; i < 3; ++i) {  // professors advise; lecturers do not
    out.push_back({"?s ub:advisor $0 . ?s ub:takesCourse ?k . "
                   "?k ub:name ?kn .",
                   {"?s", "?kn"},
                   {kFaculty[i]}});
  }
  for (const std::string& c : kStudents) {
    out.push_back({"$0 ub:advisor ?p . ?p ub:worksFor ?d . ?d ub:name ?dn .",
                   {"?p", "?dn"},
                   {c}});
    out.push_back({"$0 ub:takesCourse ?k . ?t ub:teacherOf ?k . "
                   "?t ub:name ?tn .",
                   {"?t", "?tn"},
                   {c}});
  }
  for (const char* c : {"Course", "GraduateCourse"}) {
    out.push_back({"?x ub:takesCourse $0 . ?x ub:name ?n .", {"?x", "?n"}, {c}});
  }
  out.push_back({"$0 ub:subOrganizationOf ?u . ?u ub:name ?un .",
                 {"?u", "?un"},
                 {"Department"}});
  out.push_back({"?d ub:subOrganizationOf $0 . ?d ub:name ?n .",
                 {"?d", "?n"},
                 {"University"}});
  return out;
}

std::string Join(const std::vector<std::string>& vars) {
  std::string s;
  for (const std::string& v : vars) s += (s.empty() ? "" : " ") + v;
  return s;
}

/// The popular part of the stream: every lookup BGP in each of seven forms
/// with equal weight — SELECT, SELECT ... LIMIT k, SELECT DISTINCT,
/// COUNT(*), ASK, and FILTER = / != on the last variable against a value
/// drawn from the graph. FILTER constants are part of the plan cache's
/// key, so FILTER instances mostly miss. In a fixed order, independent of
/// the seed, so the template mix is the same for every run.
std::vector<Template> MainTemplates() {
  std::vector<Template> out;
  const std::vector<Bgp> bgps = LookupBgps();
  for (size_t i = 0; i < bgps.size(); ++i) {
    const Bgp& b = bgps[i];
    const std::string select = "SELECT " + Join(b.vars);
    const std::string where = " WHERE { " + b.body + " }";
    out.push_back({select + where, b.slots});
    out.push_back({select + where + " LIMIT " +
                       std::to_string(kLimits[i % std::size(kLimits)]),
                   b.slots});
    out.push_back({"SELECT DISTINCT " + b.vars.back() + where, b.slots});
    out.push_back({"SELECT (COUNT(*) AS ?count)" + where, b.slots});
    out.push_back({"ASK { " + b.body + " }", b.slots});
    std::vector<std::string> slots = b.slots;
    slots.push_back("value:" + b.value_pred);
    for (const char* op : {" = $", " != $"}) {
      out.push_back({select + " WHERE { " + b.body + " FILTER(" +
                         b.vars.back() + op +
                         std::to_string(b.slots.size()) + ") }",
                     slots});
    }
  }
  Rng fixed(0x5eedULL);
  fixed.Shuffle(out);
  return out;
}

/// Families the static checker proves empty: two distinct constants
/// through a single-valued property (max-count conflict, cacheable), and
/// constants absent from the data (missing constant, bypasses the cache).
std::vector<Template> EmptyTemplates() {
  return {
      {"SELECT ?x ?n WHERE { ?x ub:worksFor $0 . ?x ub:worksFor $1 . "
       "?x ub:name ?n }",
       {"Department", "Department"}},
      {"SELECT (COUNT(*) AS ?n) WHERE { ?x ub:memberOf $0 . "
       "?x ub:memberOf $1 }",
       {"Department", "Department"}},
      {"ASK { ?x ub:degreeFrom $0 . ?x ub:degreeFrom $1 . "
       "?x a ub:GraduateStudent }",
       {"University", "University"}},
      {"SELECT ?x WHERE { ?x ub:name $0 . ?x ub:worksFor ?d }", {"absent"}},
      {"SELECT ?x ?e WHERE { ?x a ub:Chair . ?x ub:emailAddress ?e }", {}},
  };
}

/// Instances of the ub: classes the templates name, and objects of the
/// ub: properties they filter on, drawn from the graph.
class Constants {
 public:
  explicit Constants(const rdf::Graph& g) : g_(g) {
    type_ = g.dict().FindIri(rdf::vocab::kRdfType);
  }

  /// Renders a random constant for `slot`, distinct from `avoid`. A slot
  /// with no terms in the graph yields an absent literal.
  std::string Draw(const std::string& slot, Rng& rng, const std::string& avoid) {
    const std::vector<rdf::TermId>& ids =
        slot == "absent" ? kNone : Terms(slot);
    if (ids.empty()) {
      return "\"absent-" + std::to_string(rng.Uniform(0, 1u << 30)) + "\"";
    }
    for (;;) {
      std::string c = g_.dict().ToNTriples(ids[rng.Uniform(0, ids.size() - 1)]);
      if (c != avoid || ids.size() < 2) return c;
    }
  }

 private:
  const std::vector<rdf::TermId>& Terms(const std::string& slot) {
    auto it = by_slot_.find(slot);
    if (it != by_slot_.end()) return it->second;
    std::vector<rdf::TermId> ids;
    const bool value = slot.rfind("value:", 0) == 0;
    auto c = g_.dict().FindIri(std::string(datagen::kUbNs) +
                               (value ? slot.substr(6) : slot));
    if (value && c) {
      for (const rdf::Triple& t : g_.Match(std::nullopt, *c, std::nullopt)) {
        ids.push_back(t.o);
      }
    } else if (type_ && c) {
      for (const rdf::Triple& t : g_.Match(std::nullopt, *type_, *c)) {
        ids.push_back(t.s);
      }
    }
    return by_slot_.emplace(slot, std::move(ids)).first->second;
  }

  inline static const std::vector<rdf::TermId> kNone;
  const rdf::Graph& g_;
  std::optional<rdf::TermId> type_;
  std::map<std::string, std::vector<rdf::TermId>> by_slot_;
};

std::string Instantiate(const Template& t, Constants& constants, Rng& rng) {
  std::string text = t.text;
  std::string prev;
  for (size_t i = 0; i < t.slots.size(); ++i) {
    std::string value = constants.Draw(t.slots[i], rng, prev);
    char name[24];
    std::snprintf(name, sizeof(name), "$%zu", i);
    const std::string slot = name;
    for (size_t pos = text.find(slot); pos != std::string::npos;
         pos = text.find(slot, pos + value.size())) {
      text.replace(pos, slot.size(), value);
    }
    prev = value;
  }
  return kUbPrefix + text;
}

std::vector<std::string> LookupStream(uint64_t seed, const rdf::Graph& g) {
  const std::vector<Template> main = MainTemplates();
  const std::vector<Template> empty = EmptyTemplates();
  std::vector<double> cdf(main.size());
  double total = 0;
  for (size_t k = 0; k < main.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  Constants constants(g);
  Rng rng(seed);
  std::vector<std::string> stream;
  stream.reserve(kStreamLength);
  while (stream.size() < kStreamLength) {
    const Template* t;
    if (rng.Chance(kEmptyShare)) {
      t = &empty[rng.Uniform(0, empty.size() - 1)];
    } else {
      const double u = rng.UniformReal() * total;
      t = &main[std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()];
    }
    stream.push_back(Instantiate(*t, constants, rng));
  }
  return stream;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"lubm-analytic", false, false},
      {"lubm-lookup", false, true},
      {"yago-hetero", true, false},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

engine::EngineOptions EngineOptionsFor(const Workload& w,
                                       util::ThreadPool* pool) {
  engine::EngineOptions o;
  o.optimizer = engine::EngineOptions::Optimizer::kShapeStats;
  o.verify_plans = true;
  o.pool = pool;
  o.static_check = true;
  o.infer_constraints = true;
  o.join_mode = phys::JoinMode::kAuto;
  o.plan_cache = w.plan_cache ? engine::EngineOptions::PlanCacheMode::kOn
                              : engine::EngineOptions::PlanCacheMode::kOff;
  o.plan_cache_options = cache::PlanCache::Options{};
  o.registry = engine::EngineOptions::RegistryMode::kOn;
  return o;
}

Result<uint64_t> WriteDataset(const Workload& w, uint64_t seed,
                              const std::string& path) {
  rdf::Graph g;
  if (w.yago) {
    datagen::YagoOptions o;
    o.seed = seed;
    g = datagen::GenerateYago(o);
  } else {
    datagen::LubmOptions o;
    o.universities = 10;
    o.seed = seed;
    g = datagen::GenerateLubm(o);
  }
  RETURN_NOT_OK(rdf::SaveNTriplesFile(g, path));
  return static_cast<uint64_t>(g.NumTriples());
}

std::vector<std::string> BuildQueries(const Workload& w, uint64_t seed,
                                      const rdf::Graph& graph) {
  if (w.name == "lubm-lookup") return LookupStream(seed, graph);
  std::vector<std::string> out;
  for (const workload::BenchQuery& q :
       w.yago ? workload::YagoQueries() : workload::LubmQueries()) {
    out.push_back(q.text);
  }
  return out;
}

}  // namespace shapestats::shapebench
