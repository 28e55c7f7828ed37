#include "shacl/shapes_io.h"

#include <algorithm>
#include <charconv>

#include "rdf/turtle.h"
#include "rdf/vocab.h"

namespace shapestats::shacl {

namespace vocab = rdf::vocab;

std::string WriteShapesTurtle(const ShapesGraph& shapes) {
  std::string out;
  out += "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\n";
  auto emit_count = [&out](const char* attr, const std::optional<uint64_t>& v,
                           const char* indent) {
    if (v) {
      out += indent;
      out += attr;
      // Appended piecewise: gcc 12's -Wrestrict false-fires on
      // operator+(const char*, std::string&&) under -O2.
      out += ' ';
      out += std::to_string(*v);
      out += " ;\n";
    }
  };
  for (const NodeShape& ns : shapes.shapes()) {
    out += "<" + ns.iri + "> a sh:NodeShape ;\n";
    out += "    sh:targetClass <" + ns.target_class + "> ;\n";
    emit_count("sh:count", ns.count, "    ");
    for (size_t i = 0; i < ns.properties.size(); ++i) {
      const PropertyShape& ps = ns.properties[i];
      out += "    sh:property [\n";
      out += "        sh:path <" + ps.path + "> ;\n";
      if (!ps.node_class.empty()) {
        out += "        sh:class <" + ps.node_class + "> ;\n";
      }
      if (!ps.datatype.empty()) {
        out += "        sh:datatype <" + ps.datatype + "> ;\n";
      }
      emit_count("sh:minCount", ps.min_count, "        ");
      emit_count("sh:maxCount", ps.max_count, "        ");
      emit_count("sh:count", ps.count, "        ");
      emit_count("sh:distinctCount", ps.distinct_count, "        ");
      // Remove the trailing " ;\n" of the last inner attribute.
      if (out.size() >= 2 && out[out.size() - 2] == ';') {
        out.erase(out.size() - 2, 1);
      }
      out += "    ]";
      out += " ;\n";
    }
    // Terminate the node shape statement.
    if (out.size() >= 2 && out[out.size() - 2] == ';') {
      out[out.size() - 2] = '.';
    }
    out += "\n";
  }
  return out;
}

namespace {

// A shape node's name: its IRI, or "_:" and the label of a blank node.
std::string NodeName(rdf::TermView node) {
  return node.is_iri() ? std::string(node.lexical) : "_:" + std::string(node.lexical);
}

// Reads the single object of (s, p, ?) as an IRI string; empty if absent.
std::string ObjectIri(const rdf::Graph& g, rdf::TermId s, rdf::TermId p) {
  auto span = g.Match(s, p, std::nullopt);
  if (span.empty()) return "";
  const rdf::TermView t = g.dict().term(span.front().o);
  return t.is_iri() ? std::string(t.lexical) : "";
}

// Reads the single object of (s, p, ?) as an integer literal.
std::optional<uint64_t> ObjectInt(const rdf::Graph& g, rdf::TermId s,
                                  rdf::TermId p) {
  auto span = g.Match(s, p, std::nullopt);
  if (span.empty()) return std::nullopt;
  const rdf::TermView t = g.dict().term(span.front().o);
  if (!t.is_literal()) return std::nullopt;
  uint64_t v = 0;
  auto [ptr, ec] =
      std::from_chars(t.lexical.data(), t.lexical.data() + t.lexical.size(), v);
  if (ec != std::errc() || ptr != t.lexical.data() + t.lexical.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

Result<ShapesGraph> ShapesFromRdf(const rdf::Graph& g) {
  if (!g.finalized()) {
    return Status::InvalidArgument("shapes RDF graph must be finalized");
  }
  const rdf::TermDictionary& dict = g.dict();
  auto need = [&](std::string_view iri) { return dict.FindIri(iri); };
  auto type = need(vocab::kRdfType);
  auto node_shape_cls = need(vocab::kShNodeShape);
  if (!type || !node_shape_cls) {
    return Status::InvalidArgument("graph contains no sh:NodeShape resources");
  }
  auto target_class = need(vocab::kShTargetClass);
  auto property = need(vocab::kShProperty);
  auto path = need(vocab::kShPath);
  auto sh_class = need(vocab::kShClass);
  auto sh_datatype = need(vocab::kShDatatype);
  auto min_count = need(vocab::kShMinCount);
  auto max_count = need(vocab::kShMaxCount);
  auto count = need(vocab::kShCount);
  auto distinct_count = need(vocab::kShDistinctCount);

  ShapesGraph shapes;
  for (const rdf::Triple& t : g.Match(std::nullopt, *type, *node_shape_cls)) {
    NodeShape ns;
    ns.iri = NodeName(dict.term(t.s));
    if (!target_class) {
      return Status::ParseError("node shape without sh:targetClass: " + ns.iri);
    }
    ns.target_class = ObjectIri(g, t.s, *target_class);
    if (ns.target_class.empty()) {
      return Status::ParseError("node shape without sh:targetClass: " + ns.iri);
    }
    if (count) ns.count = ObjectInt(g, t.s, *count);
    if (property) {
      for (const rdf::Triple& link : g.Match(t.s, *property, std::nullopt)) {
        PropertyShape ps;
        ps.iri = NodeName(dict.term(link.o));
        if (path) ps.path = ObjectIri(g, link.o, *path);
        if (ps.path.empty()) {
          return Status::ParseError("property shape without sh:path under " +
                                    ns.iri);
        }
        if (sh_class) ps.node_class = ObjectIri(g, link.o, *sh_class);
        if (sh_datatype) ps.datatype = ObjectIri(g, link.o, *sh_datatype);
        if (min_count) ps.min_count = ObjectInt(g, link.o, *min_count);
        if (max_count) ps.max_count = ObjectInt(g, link.o, *max_count);
        if (count) ps.count = ObjectInt(g, link.o, *count);
        if (distinct_count) ps.distinct_count = ObjectInt(g, link.o, *distinct_count);
        ns.properties.push_back(std::move(ps));
      }
    }
    // Deterministic order regardless of index order.
    std::sort(ns.properties.begin(), ns.properties.end(),
              [](const PropertyShape& a, const PropertyShape& b) {
                return a.path < b.path;
              });
    RETURN_NOT_OK(shapes.Add(std::move(ns)));
  }
  if (shapes.NumNodeShapes() == 0) {
    return Status::InvalidArgument("graph contains no sh:NodeShape resources");
  }
  return shapes;
}

Result<ShapesGraph> ReadShapesTurtle(std::string_view text) {
  rdf::Graph g;
  RETURN_NOT_OK(rdf::ParseTurtle(text, &g));
  g.Finalize();
  return ShapesFromRdf(g);
}

}  // namespace shapestats::shacl
