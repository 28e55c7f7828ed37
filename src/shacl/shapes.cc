#include "shacl/shapes.h"

namespace shapestats::shacl {

const PropertyShape* NodeShape::FindProperty(std::string_view path) const {
  for (const PropertyShape& ps : properties) {
    if (ps.path == path) return &ps;
  }
  return nullptr;
}

Status ShapesGraph::Add(NodeShape shape) {
  if (by_class_.count(shape.target_class)) {
    return Status::AlreadyExists("a node shape already targets class " +
                                 shape.target_class);
  }
  const auto pos = static_cast<uint32_t>(shapes_.size());
  by_class_.emplace(shape.target_class, pos);
  for (const PropertyShape& ps : shape.properties) {
    std::vector<uint32_t>& owners = by_path_[ps.path];
    if (owners.empty() || owners.back() != pos) owners.push_back(pos);
  }
  shapes_.push_back(std::move(shape));
  return Status::OK();
}

size_t ShapesGraph::NumPropertyShapes() const {
  size_t n = 0;
  for (const NodeShape& s : shapes_) n += s.properties.size();
  return n;
}

const NodeShape* ShapesGraph::FindByClass(std::string_view cls) const {
  auto it = by_class_.find(cls);
  if (it == by_class_.end()) return nullptr;
  return &shapes_[it->second];
}

const PropertyShape* ShapesGraph::FindProperty(std::string_view cls,
                                               std::string_view path) const {
  const NodeShape* ns = FindByClass(cls);
  return ns ? ns->FindProperty(path) : nullptr;
}

std::vector<const NodeShape*> ShapesGraph::CandidatesForPath(
    std::string_view path) const {
  std::vector<const NodeShape*> out;
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return out;
  out.reserve(it->second.size());
  for (uint32_t pos : it->second) out.push_back(&shapes_[pos]);
  return out;
}

bool ShapesGraph::FullyAnnotated() const {
  for (const NodeShape& s : shapes_) {
    if (!s.annotated()) return false;
    for (const PropertyShape& ps : s.properties) {
      if (!ps.annotated()) return false;
    }
  }
  return !shapes_.empty();
}

}  // namespace shapestats::shacl
