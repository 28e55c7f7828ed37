// Unit tests for src/shacl: shapes model, Turtle round-trip, generator,
// validator.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/turtle.h"
#include "shacl/generator.h"
#include "shacl/shapes.h"
#include "shacl/shapes_io.h"
#include "shacl/validator.h"

namespace shapestats::shacl {
namespace {

NodeShape MakeShape(const std::string& cls) {
  NodeShape ns;
  ns.iri = "http://shapes/" + cls + "Shape";
  ns.target_class = "http://ex/" + cls;
  return ns;
}

TEST(ShapesGraphTest, AddAndLookup) {
  ShapesGraph g;
  NodeShape ns = MakeShape("Person");
  PropertyShape ps;
  ps.iri = ns.iri + "-name";
  ps.path = "http://ex/name";
  ns.properties.push_back(ps);
  ASSERT_TRUE(g.Add(std::move(ns)).ok());
  EXPECT_EQ(g.NumNodeShapes(), 1u);
  EXPECT_EQ(g.NumPropertyShapes(), 1u);
  ASSERT_NE(g.FindByClass("http://ex/Person"), nullptr);
  EXPECT_EQ(g.FindByClass("http://ex/Nothing"), nullptr);
  ASSERT_NE(g.FindProperty("http://ex/Person", "http://ex/name"), nullptr);
  EXPECT_EQ(g.FindProperty("http://ex/Person", "http://ex/age"), nullptr);
}

TEST(ShapesGraphTest, TargetClassMustBeInjective) {
  ShapesGraph g;
  ASSERT_TRUE(g.Add(MakeShape("Person")).ok());
  Status st = g.Add(MakeShape("Person"));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

// Target classes of the candidate shapes, in the order returned.
std::vector<std::string> CandidateClasses(const ShapesGraph& g,
                                          std::string_view path) {
  std::vector<std::string> out;
  for (const NodeShape* ns : g.CandidatesForPath(path)) {
    out.push_back(ns->target_class);
  }
  return out;
}

TEST(ShapesGraphTest, CandidatesForPath) {
  ShapesGraph g;
  for (const char* cls : {"A", "B", "C", "D", "E"}) {
    NodeShape ns = MakeShape(cls);
    const std::string c = cls;
    if (c != "C") {
      PropertyShape ps;
      ps.path = "http://ex/shared";
      ns.properties.push_back(ps);
      // A path listed twice in one shape still names the shape once.
      if (c == "D") ns.properties.push_back(ps);
    }
    if (c == "B" || c == "C") {
      PropertyShape ps;
      ps.path = "http://ex/some";
      ns.properties.push_back(ps);
    }
    ASSERT_TRUE(g.Add(std::move(ns)).ok());
  }
  const std::vector<std::string> shared = {"http://ex/A", "http://ex/B",
                                           "http://ex/D", "http://ex/E"};
  const std::vector<std::string> some = {"http://ex/B", "http://ex/C"};
  EXPECT_EQ(CandidateClasses(g, "http://ex/shared"), shared);
  EXPECT_EQ(CandidateClasses(g, "http://ex/some"), some);
  EXPECT_TRUE(g.CandidatesForPath("http://ex/other").empty());

  // A copy answers from its own shapes, also after the original is gone.
  auto original = std::make_unique<ShapesGraph>(g);
  const ShapesGraph copy = *original;
  original.reset();
  EXPECT_EQ(CandidateClasses(copy, "http://ex/shared"), shared);
  EXPECT_EQ(CandidateClasses(copy, "http://ex/some"), some);
  for (const NodeShape* ns : copy.CandidatesForPath("http://ex/shared")) {
    EXPECT_GE(ns, copy.shapes().data());
    EXPECT_LT(ns, copy.shapes().data() + copy.shapes().size());
  }
  EXPECT_EQ(copy.FindByClass("http://ex/C"), &copy.shapes()[2]);
  EXPECT_EQ(copy.FindByClass("http://ex/F"), nullptr);
}

TEST(ShapesGraphTest, FullyAnnotated) {
  ShapesGraph g;
  NodeShape ns = MakeShape("Person");
  PropertyShape ps;
  ps.path = "http://ex/name";
  ns.properties.push_back(ps);
  ASSERT_TRUE(g.Add(std::move(ns)).ok());
  EXPECT_FALSE(g.FullyAnnotated());
  auto& shape = (*g.mutable_shapes())[0];
  shape.count = 10;
  EXPECT_FALSE(g.FullyAnnotated());  // property still missing stats
  shape.properties[0].count = 10;
  EXPECT_TRUE(g.FullyAnnotated());
}

TEST(ShapesIoTest, TurtleRoundTripPreservesStatistics) {
  ShapesGraph g;
  NodeShape ns = MakeShape("Student");
  ns.count = 1234;
  PropertyShape ps;
  ps.iri = "http://shapes/StudentShape-name";
  ps.path = "http://ex/name";
  ps.datatype = "http://www.w3.org/2001/XMLSchema#string";
  ps.min_count = 1;
  ps.max_count = 3;
  ps.count = 2000;
  ps.distinct_count = 77;
  ns.properties.push_back(ps);
  PropertyShape ps2;
  ps2.iri = "http://shapes/StudentShape-advisor";
  ps2.path = "http://ex/advisor";
  ps2.node_class = "http://ex/Professor";
  ns.properties.push_back(ps2);
  ASSERT_TRUE(g.Add(std::move(ns)).ok());

  std::string ttl = WriteShapesTurtle(g);
  auto parsed = ReadShapesTurtle(ttl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << ttl;
  const NodeShape* back = parsed->FindByClass("http://ex/Student");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->count, 1234u);
  ASSERT_EQ(back->properties.size(), 2u);
  const PropertyShape* name = back->FindProperty("http://ex/name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->min_count, 1u);
  EXPECT_EQ(name->max_count, 3u);
  EXPECT_EQ(name->count, 2000u);
  EXPECT_EQ(name->distinct_count, 77u);
  EXPECT_EQ(name->datatype, "http://www.w3.org/2001/XMLSchema#string");
  const PropertyShape* advisor = back->FindProperty("http://ex/advisor");
  ASSERT_NE(advisor, nullptr);
  EXPECT_EQ(advisor->node_class, "http://ex/Professor");
  EXPECT_FALSE(advisor->annotated());
}

TEST(ShapesIoTest, ReadsHandWrittenShapes) {
  // The shape of Figure 3 (paper), hand-written.
  std::string ttl = R"(
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> .
@prefix ex: <http://shapes/> .
ex:GraduateStudentShape a sh:NodeShape ;
  sh:targetClass ub:GraduateStudent ;
  sh:count 1259681 ;
  sh:property [
    sh:path ub:takesCourse ;
    sh:class ub:GraduateCourse ;
    sh:minCount 1 ;
    sh:maxCount 3 ;
    sh:count 2550022 ;
    sh:distinctCount 539467
  ] ;
  sh:property [
    sh:path ub:advisor ;
    sh:minCount 1 ;
    sh:maxCount 1
  ] .
)";
  auto parsed = ReadShapesTurtle(ttl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const NodeShape* ns = parsed->FindByClass(
      "http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateStudent");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->count, 1259681u);
  const PropertyShape* takes = ns->FindProperty(
      "http://swat.cse.lehigh.edu/onto/univ-bench.owl#takesCourse");
  ASSERT_NE(takes, nullptr);
  EXPECT_EQ(takes->count, 2550022u);
  EXPECT_EQ(takes->distinct_count, 539467u);
  EXPECT_EQ(takes->node_class,
            "http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateCourse");
}

TEST(ShapesIoTest, ErrorsOnNonShapesGraph) {
  EXPECT_FALSE(ReadShapesTurtle("@prefix ex: <http://e/> . ex:a ex:b ex:c .").ok());
  EXPECT_FALSE(ReadShapesTurtle("").ok());
}

TEST(ShapesIoTest, ErrorOnMissingTargetClass) {
  std::string ttl = R"(
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://shapes/> .
ex:Broken a sh:NodeShape .
)";
  EXPECT_FALSE(ReadShapesTurtle(ttl).ok());
}

class GeneratorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string ttl = R"(
@prefix ex: <http://ex/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:alice a ex:Person ; ex:name "Alice" ; ex:worksAt ex:acme ; ex:age 30 .
ex:bob a ex:Person ; ex:name "Bob" ; ex:worksAt ex:acme .
ex:acme a ex:Company ; ex:name "Acme" .
)";
    ASSERT_TRUE(rdf::ParseTurtle(ttl, &graph_).ok());
    graph_.Finalize();
  }
  rdf::Graph graph_;
};

TEST_F(GeneratorFixture, OneShapePerClass) {
  auto shapes = GenerateShapes(graph_);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  EXPECT_EQ(shapes->NumNodeShapes(), 2u);
  ASSERT_NE(shapes->FindByClass("http://ex/Person"), nullptr);
  ASSERT_NE(shapes->FindByClass("http://ex/Company"), nullptr);
}

TEST_F(GeneratorFixture, PropertyShapesPerUsedPredicate) {
  auto shapes = GenerateShapes(graph_);
  ASSERT_TRUE(shapes.ok());
  const NodeShape* person = shapes->FindByClass("http://ex/Person");
  ASSERT_NE(person, nullptr);
  // name, worksAt, age (rdf:type excluded).
  EXPECT_EQ(person->properties.size(), 3u);
  EXPECT_NE(person->FindProperty("http://ex/name"), nullptr);
  EXPECT_EQ(person->FindProperty(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            nullptr);
}

TEST_F(GeneratorFixture, InfersClassAndDatatypeConstraints) {
  auto shapes = GenerateShapes(graph_);
  ASSERT_TRUE(shapes.ok());
  const NodeShape* person = shapes->FindByClass("http://ex/Person");
  const PropertyShape* works = person->FindProperty("http://ex/worksAt");
  ASSERT_NE(works, nullptr);
  EXPECT_EQ(works->node_class, "http://ex/Company");
  const PropertyShape* name = person->FindProperty("http://ex/name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->datatype, "http://www.w3.org/2001/XMLSchema#string");
}

TEST_F(GeneratorFixture, MinCountOnlyWhenUniversal) {
  auto shapes = GenerateShapes(graph_);
  ASSERT_TRUE(shapes.ok());
  const NodeShape* person = shapes->FindByClass("http://ex/Person");
  EXPECT_EQ(person->FindProperty("http://ex/name")->min_count, 1u);
  // age is only on alice.
  EXPECT_FALSE(person->FindProperty("http://ex/age")->min_count.has_value());
}

TEST_F(GeneratorFixture, GeneratedShapesValidateTheirOwnData) {
  auto shapes = GenerateShapes(graph_);
  ASSERT_TRUE(shapes.ok());
  auto report = Validate(graph_, *shapes);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->conforms) << report->ToString();
}

TEST(GeneratorTest, FailsWithoutTypes) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .", &g).ok());
  g.Finalize();
  EXPECT_FALSE(GenerateShapes(g).ok());
}

class ValidatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string ttl = R"(
@prefix ex: <http://ex/> .
ex:a a ex:Person ; ex:name "A" .
ex:b a ex:Person .
ex:c a ex:Person ; ex:name "C1", "C2", "C3" ; ex:knows ex:thing .
ex:thing a ex:Rock .
)";
    ASSERT_TRUE(rdf::ParseTurtle(ttl, &graph_).ok());
    graph_.Finalize();
    NodeShape ns;
    ns.iri = "http://shapes/Person";
    ns.target_class = "http://ex/Person";
    PropertyShape name;
    name.iri = "http://shapes/Person-name";
    name.path = "http://ex/name";
    name.min_count = 1;
    name.max_count = 2;
    ns.properties.push_back(name);
    PropertyShape knows;
    knows.iri = "http://shapes/Person-knows";
    knows.path = "http://ex/knows";
    knows.node_class = "http://ex/Person";
    ns.properties.push_back(knows);
    ASSERT_TRUE(shapes_.Add(std::move(ns)).ok());
  }
  rdf::Graph graph_;
  ShapesGraph shapes_;
};

TEST_F(ValidatorFixture, ReportsAllViolationKinds) {
  auto report = Validate(graph_, shapes_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->conforms);
  EXPECT_EQ(report->focus_nodes_checked, 3u);
  int min_count = 0, max_count = 0, cls = 0;
  for (const Violation& v : report->violations) {
    switch (v.kind) {
      case ViolationKind::kMinCount: ++min_count; break;
      case ViolationKind::kMaxCount: ++max_count; break;
      case ViolationKind::kClass: ++cls; break;
      default: break;
    }
  }
  EXPECT_EQ(min_count, 1);  // ex:b has no name
  EXPECT_EQ(max_count, 1);  // ex:c has 3 names
  EXPECT_EQ(cls, 1);        // ex:c knows a Rock
}

TEST_F(ValidatorFixture, ReportRendering) {
  auto report = Validate(graph_, shapes_);
  std::string text = report->ToString();
  EXPECT_NE(text.find("does not conform"), std::string::npos);
  EXPECT_NE(text.find("MinCount"), std::string::npos);
}

TEST(ValidatorTest, AbsentClassConformsVacuously) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(
      "@prefix ex: <http://e/> . ex:a a ex:Dog .", &g).ok());
  g.Finalize();
  ShapesGraph shapes;
  NodeShape ns;
  ns.iri = "http://shapes/Cat";
  ns.target_class = "http://e/Cat";
  PropertyShape ps;
  ps.path = "http://e/name";
  ps.min_count = 1;
  ns.properties.push_back(ps);
  ASSERT_TRUE(shapes.Add(std::move(ns)).ok());
  auto report = Validate(g, shapes);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->conforms);
  EXPECT_EQ(report->focus_nodes_checked, 0u);
}

}  // namespace
}  // namespace shapestats::shacl
