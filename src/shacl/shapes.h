// SHACL shapes object model (Definition 3.3) plus the paper's statistics
// extension (Section 5): node shapes carry sh:count, property shapes carry
// sh:count / sh:minCount / sh:maxCount / sh:distinctCount once annotated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace shapestats::shacl {

/// A property shape: constraints + optional statistics for the triples
/// (s, path, o) where s is an instance of the owning node shape's target
/// class.
struct PropertyShape {
  std::string iri;        // IRI of the shape resource itself
  std::string path;       // sh:path — the target predicate (injective targetP)
  std::string node_class; // sh:class — objects are instances of this class
  std::string datatype;   // sh:datatype — objects are literals of this type

  // Constraint bounds as authored (validation semantics). The annotator
  // overwrites them with the observed min/max (statistics semantics).
  std::optional<uint64_t> min_count;
  std::optional<uint64_t> max_count;

  // --- statistics extension (dark boxes in Figure 3) ---
  std::optional<uint64_t> count;           // sh:count: matching triples
  std::optional<uint64_t> distinct_count;  // sh:distinctCount: distinct objects

  bool annotated() const { return count.has_value(); }
};

/// A node shape targeting one class, owning a set of property shapes
/// (the function phi of Definition 3.3).
struct NodeShape {
  std::string iri;
  std::string target_class;  // sh:targetClass (injective targetS)
  std::optional<uint64_t> count;  // sh:count: instances of target_class
  std::vector<PropertyShape> properties;

  bool annotated() const { return count.has_value(); }

  const PropertyShape* FindProperty(std::string_view path) const;
};

/// A shapes graph: node shapes with class- and path-based lookup. Both
/// lookups are indexed when a shape is added, so target classes and
/// property paths must not change through mutable_shapes().
class ShapesGraph {
 public:
  /// Adds a node shape. Fails if a shape already targets the same class
  /// (targetS must be injective per Definition 3.3).
  Status Add(NodeShape shape);

  const std::vector<NodeShape>& shapes() const { return shapes_; }
  size_t NumNodeShapes() const { return shapes_.size(); }
  size_t NumPropertyShapes() const;

  /// Node shape whose sh:targetClass is `cls`, or nullptr.
  const NodeShape* FindByClass(std::string_view cls) const;

  /// Property shape for predicate `path` under the node shape of `cls`,
  /// or nullptr.
  const PropertyShape* FindProperty(std::string_view cls,
                                    std::string_view path) const;

  /// All node shapes owning a property shape with the given path, in
  /// shapes() order (candidate shapes for a triple pattern keyed by
  /// predicate, Section 6.1).
  std::vector<const NodeShape*> CandidatesForPath(std::string_view path) const;

  /// True if every node and property shape carries statistics.
  bool FullyAnnotated() const;

  /// Mutable access for the annotator.
  std::vector<NodeShape>* mutable_shapes() { return &shapes_; }

 private:
  std::vector<NodeShape> shapes_;
  // Positions into shapes_, not pointers, so copies stay valid.
  StringMap<size_t> by_class_;
  StringMap<std::vector<uint32_t>> by_path_;  // ascending positions
};

}  // namespace shapestats::shacl
