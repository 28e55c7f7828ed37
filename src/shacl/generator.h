// Shape generation from data (the paper uses the SHACLGEN library for
// datasets that ship without shapes, e.g. YAGO-4; this is the C++
// equivalent). Produces un-annotated shapes: one node shape per class in
// the data, one property shape per predicate used by instances of that
// class, with sh:class / sh:datatype inferred when the objects are uniform.
#pragma once

#include "rdf/graph.h"
#include "shacl/shapes.h"
#include "util/status.h"

namespace shapestats::shacl {

/// Generates a shapes graph from a finalized data graph. Shape IRIs live in
/// http://shapestats.org/shapes#; a property shape gets sh:datatype or
/// sh:class when all of its objects share one, and sh:minCount 1 when every
/// instance of the class has the predicate.
Result<ShapesGraph> GenerateShapes(const rdf::Graph& data);

}  // namespace shapestats::shacl
