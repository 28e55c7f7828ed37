// Tests for the engine introspection plane (DESIGN.md §12): per-query
// resource accounting (ResourceTracker / MemoryAccount / CountingAllocator),
// the live QueryRegistry (lifecycle, cancellation, per-template aggregates,
// concurrency under TSan), the FlightRecorder ring + bundle files, build
// info, the events.dropped metric, and Prometheus text exposition-format
// compliance (name sanitization, `le` bucket monotonicity, _sum/_count
// pairing).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/build_info.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/resource_tracker.h"

namespace shapestats {
namespace {

using obs::CountingAllocator;
using obs::FlightRecorder;
using obs::MemoryAccount;
using obs::QueryRecord;
using obs::QueryRegistry;
using obs::ResourceSnapshot;
using obs::ResourceTracker;

// --- ResourceTracker / MemoryAccount ---------------------------------------

TEST(ResourceTrackerTest, PublishedTotalsAppearInSnapshot) {
  ResourceTracker tracker;
  EXPECT_TRUE(tracker.Snapshot().Empty());
  tracker.Publish(/*probes=*/100, /*scanned=*/2000, /*produced=*/50,
                  /*materialized=*/7, /*step=*/3);
  ResourceSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.index_probes, 100u);
  EXPECT_EQ(snap.rows_scanned, 2000u);
  EXPECT_EQ(snap.rows_produced, 50u);
  EXPECT_EQ(snap.rows_materialized, 7u);
  EXPECT_EQ(tracker.current_step(), 3u);
  EXPECT_FALSE(snap.Empty());
}

TEST(ResourceTrackerTest, CancelRequestAndObservationAreDistinct) {
  ResourceTracker tracker;
  EXPECT_FALSE(tracker.cancel_requested());
  EXPECT_FALSE(tracker.cancelled());
  tracker.RequestCancel();
  EXPECT_TRUE(tracker.cancel_requested());
  EXPECT_FALSE(tracker.cancelled());  // not yet observed by the executor
  tracker.NoteCancelObserved();
  EXPECT_TRUE(tracker.cancelled());
}

TEST(MemoryAccountTest, TracksCurrentPeakAndMonotonicTotal) {
  MemoryAccount account;
  account.Charge(100);
  account.Charge(50);
  EXPECT_EQ(account.current(), 150u);
  EXPECT_EQ(account.peak(), 150u);
  account.Release(120);
  EXPECT_EQ(account.current(), 30u);
  EXPECT_EQ(account.peak(), 150u);  // high-water mark survives releases
  account.Charge(10);
  EXPECT_EQ(account.total(), 160u);  // monotonic build-bytes measure
}

TEST(CountingAllocatorTest, VectorAllocationsChargeTheAccount) {
  MemoryAccount account;
  {
    std::vector<uint64_t, CountingAllocator<uint64_t>> v{
        CountingAllocator<uint64_t>(&account)};
    v.reserve(1000);
    EXPECT_GE(account.current(), 1000 * sizeof(uint64_t));
    EXPECT_GE(account.peak(), 1000 * sizeof(uint64_t));
  }
  EXPECT_EQ(account.current(), 0u);  // destruction releases everything
  EXPECT_GE(account.total(), 1000 * sizeof(uint64_t));
}

TEST(CountingAllocatorTest, NullAccountIsAPassthrough) {
  std::vector<int, CountingAllocator<int>> v;
  v.resize(100, 7);
  EXPECT_EQ(v[99], 7);
}

TEST(ResourceSnapshotTest, JsonAndTextRenderings) {
  ResourceTracker tracker;
  tracker.Publish(10, 20, 30, 5, 1);
  tracker.memory().Charge(64);
  ResourceSnapshot snap = tracker.Snapshot();
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"index_probes\":10"), std::string::npos);
  EXPECT_NE(json.find("\"rows_scanned\":20"), std::string::npos);
  EXPECT_NE(json.find("\"peak_bytes\":64"), std::string::npos);
  EXPECT_FALSE(snap.ToText().empty());
}

// --- QueryRegistry ----------------------------------------------------------

TEST(QueryRegistryTest, LifecycleFromRegisterToCompleted) {
  QueryRegistry registry;
  QueryRegistry::Registration reg =
      registry.Register("SELECT * WHERE { ?s ?p ?o }", /*request_id=*/42,
                        /*batch_id=*/7, /*slot=*/1);
  ASSERT_TRUE(static_cast<bool>(reg));
  EXPECT_EQ(registry.NumInflight(), 1u);

  reg.SetPhase(obs::Phase::kPlan);
  reg.SetTemplate(0xdeadbeef);
  reg.SetStepsTotal(4);
  std::vector<QueryRecord> live = registry.Inflight();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].request_id, 42u);
  EXPECT_EQ(live[0].batch_id, 7u);
  EXPECT_EQ(live[0].phase, "plan");
  EXPECT_EQ(live[0].cache_template, "t:00000000deadbeef");
  EXPECT_EQ(live[0].steps_total, 4u);
  EXPECT_TRUE(live[0].outcome.empty());

  reg.Complete(obs::Outcome::kOk, 123);
  EXPECT_EQ(registry.NumInflight(), 0u);
  std::vector<QueryRecord> done = registry.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, "ok");
  EXPECT_EQ(done[0].num_results, 123u);
  EXPECT_EQ(done[0].phase, "done");
  EXPECT_EQ(done[0].steps_completed, done[0].steps_total);
}

TEST(QueryRegistryTest, DroppedRegistrationFinalizesAsError) {
  QueryRegistry registry;
  { QueryRegistry::Registration reg = registry.Register("SELECT 1", 0, 0, 0); }
  EXPECT_EQ(registry.NumInflight(), 0u);
  std::vector<QueryRecord> done = registry.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, "error");
}

TEST(QueryRegistryTest, CompleteIsIdempotent) {
  QueryRegistry registry;
  QueryRegistry::Registration reg = registry.Register("q", 0, 0, 0);
  reg.Complete(obs::Outcome::kOk, 1);
  reg.Complete(obs::Outcome::kError, 9);  // no-op: the record is already frozen
  std::vector<QueryRecord> done = registry.Completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, "ok");
  EXPECT_EQ(done[0].num_results, 1u);
}

TEST(QueryRegistryTest, CancelFlipsTrackerFlagOnlyForLiveIds) {
  QueryRegistry registry;
  QueryRegistry::Registration reg = registry.Register("q", 0, 0, 0);
  ASSERT_NE(reg.tracker(), nullptr);
  EXPECT_FALSE(reg.tracker()->cancel_requested());
  EXPECT_TRUE(registry.Cancel(reg.id()));
  EXPECT_TRUE(reg.tracker()->cancel_requested());
  EXPECT_EQ(registry.cancelled_total(), 1u);
  EXPECT_FALSE(registry.Cancel(reg.id() + 1000));  // unknown id
  uint64_t id = reg.id();
  reg.Complete(obs::Outcome::kCancelled, 0);
  EXPECT_FALSE(registry.Cancel(id));  // already completed
}

TEST(QueryRegistryTest, EmptyRegistrationIsSafe) {
  QueryRegistry::Registration reg;
  EXPECT_FALSE(static_cast<bool>(reg));
  EXPECT_EQ(reg.tracker(), nullptr);
  EXPECT_EQ(reg.id(), 0u);
  reg.SetPhase(obs::Phase::kExecute);
  reg.SetTemplate(1);
  reg.SetStepsTotal(3);
  reg.Complete(obs::Outcome::kOk, 1);  // all no-ops, must not crash
}

TEST(QueryRegistryTest, QueryTextTruncatedToCap) {
  QueryRegistry registry;
  std::string huge(QueryRegistry::kMaxQueryBytes + 500, 'x');
  QueryRegistry::Registration reg = registry.Register(huge, 0, 0, 0);
  std::vector<QueryRecord> live = registry.Inflight();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].query.size(), QueryRegistry::kMaxQueryBytes);
  reg.Complete(obs::Outcome::kOk, 0);
}

TEST(QueryRegistryTest, CompletedRingIsBounded) {
  QueryRegistry registry;
  constexpr size_t kCap = QueryRegistry::kCompletedCapacity;
  const size_t total = kCap + 6;
  // Built via append: gcc 12's -Wrestrict fires a false positive on
  // operator+(const char*, std::string&&) in Release builds.
  auto query = [](size_t i) {
    std::string q = "q";
    q += std::to_string(i);
    return q;
  };
  for (size_t i = 0; i < total; ++i) {
    QueryRegistry::Registration reg = registry.Register(query(i), 0, 0, 0);
    reg.Complete(obs::Outcome::kOk, i);
  }
  std::vector<QueryRecord> done = registry.Completed();
  ASSERT_EQ(done.size(), kCap);
  EXPECT_EQ(done[0].query, query(total - 1));  // newest first
  EXPECT_EQ(done[kCap - 1].query, query(total - kCap));
  EXPECT_EQ(registry.registered_total(), total);
}

TEST(QueryRegistryTest, TemplateAggregatesAccumulateAndFold) {
  QueryRegistry registry;
  for (int i = 0; i < 3; ++i) {
    QueryRegistry::Registration reg = registry.Register("a", 0, 0, 0);
    reg.SetTemplate(0xaaaa);
    reg.Complete(obs::Outcome::kOk, 10);
  }
  // Fill the aggregate map to kMaxTemplates distinct templates.
  for (uint64_t t = 1; t < QueryRegistry::kMaxTemplates; ++t) {
    QueryRegistry::Registration reg = registry.Register("b", 0, 0, 0);
    reg.SetTemplate(0x10000 + t);
    reg.Complete(obs::Outcome::kOk, 1);
  }
  // One more distinct template exceeds kMaxTemplates and folds into
  // "(other)".
  {
    QueryRegistry::Registration reg = registry.Register("c", 0, 0, 0);
    reg.SetTemplate(0xcccc);
    reg.Complete(obs::Outcome::kOk, 1);
  }
  std::vector<obs::TemplateStats> top = registry.TopTemplates(0);
  ASSERT_EQ(top.size(), QueryRegistry::kMaxTemplates + 1);  // + (other)
  bool found_fold = false;
  for (const obs::TemplateStats& t : top) {
    if (t.cache_template == "t:000000000000aaaa") {
      EXPECT_EQ(t.executions, 3u);
      EXPECT_EQ(t.num_results, 30u);
    }
    EXPECT_NE(t.cache_template, "t:000000000000cccc");
    if (t.cache_template == "(other)") {
      found_fold = true;
      EXPECT_EQ(t.executions, 1u);
    }
  }
  EXPECT_TRUE(found_fold);
}

TEST(QueryRegistryTest, ToJsonCarriesBothSections) {
  QueryRegistry registry;
  QueryRegistry::Registration live = registry.Register("live \"q\"", 5, 0, 0);
  {
    QueryRegistry::Registration done = registry.Register("done q", 0, 0, 0);
    done.Complete(obs::Outcome::kOk, 2);
  }
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"inflight\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"registered\":2"), std::string::npos);
  EXPECT_NE(json.find("live \\\"q\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
  live.Complete(obs::Outcome::kOk, 0);
}

// Registration/completion/cancellation racing snapshot readers: the TSan CI
// job runs this binary, so any locking mistake in the registry surfaces as
// a data-race report.
TEST(QueryRegistryTest, ConcurrentRegistrationAndSnapshotsAreRaceFree) {
  QueryRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};

  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Inflight();
      (void)registry.Completed(8);
      (void)registry.ToJson(4);
      (void)registry.TopTemplates(4);
      (void)registry.Cancel(registry.registered_total());  // racy id on purpose
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w]() {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string query = "q";  // appended: see CompletedRingIsBounded
        query += std::to_string(w);
        query += ".";
        query += std::to_string(i);
        QueryRegistry::Registration reg = registry.Register(
            query, static_cast<uint64_t>(w + 1), 0, 0);
        reg.SetPhase(obs::Phase::kExecute);
        reg.SetTemplate(static_cast<uint64_t>(w));
        reg.SetStepsTotal(2);
        reg.tracker()->Publish(10, 10, 1, 0, 1);
        reg.Complete(i % 3 == 0 ? obs::Outcome::kTimeout : obs::Outcome::kOk,
                     1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.NumInflight(), 0u);
  EXPECT_EQ(registry.registered_total(),
            static_cast<uint64_t>(kWriters * kPerWriter));
}

// --- FlightRecorder ---------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/shapestats_flight_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

TEST(FlightRecorderTest, InactiveByDefaultActiveWithAnyTrigger) {
  EXPECT_FALSE(FlightRecorder().active());
  FlightRecorder::Options slow;
  slow.slow_ms = 0;
  EXPECT_TRUE(FlightRecorder(slow).active());
  FlightRecorder::Options qerr;
  qerr.max_q_error = 10;
  EXPECT_TRUE(FlightRecorder(qerr).active());
}

TEST(FlightRecorderTest, RecordAppendsRingAndWritesBundleFile) {
  FlightRecorder::Options options;
  options.dir = MakeTempDir();
  options.slow_ms = 0;
  FlightRecorder recorder(options);
  uint64_t id = recorder.Record("slow", "{\"query\":\"q1\"}");
  EXPECT_GT(id, 0u);
  EXPECT_EQ(recorder.recorded_total(), 1u);

  std::vector<obs::FlightBundle> bundles = recorder.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].trigger, "slow");
  EXPECT_EQ(bundles[0].json, "{\"query\":\"q1\"}");
  ASSERT_FALSE(bundles[0].file.empty());
  std::ifstream in(bundles[0].file);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("{\"query\":\"q1\"}"), std::string::npos);
}

TEST(FlightRecorderTest, RingIsBoundedNewestFirst) {
  FlightRecorder::Options options;
  options.slow_ms = 0;
  options.capacity = 2;
  FlightRecorder recorder(options);
  recorder.Record("slow", "{\"n\":1}");
  recorder.Record("shed", "{\"n\":2}");
  recorder.Record("cancelled", "{\"n\":3}");
  std::vector<obs::FlightBundle> bundles = recorder.Bundles();
  ASSERT_EQ(bundles.size(), 2u);
  EXPECT_EQ(bundles[0].trigger, "cancelled");
  EXPECT_EQ(bundles[1].trigger, "shed");
  EXPECT_EQ(recorder.recorded_total(), 3u);

  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"cancelled\""), std::string::npos);
}

TEST(FlightRecorderTest, EnvOptionsDefaultSlowTriggerWithDir) {
  std::string dir = MakeTempDir();
  ::setenv("SHAPESTATS_FLIGHT_DIR", dir.c_str(), 1);
  ::unsetenv("SHAPESTATS_FLIGHT_SLOW_MS");
  ::unsetenv("SHAPESTATS_FLIGHT_QERROR");
  FlightRecorder::Options options = FlightRecorder::OptionsFromEnv();
  EXPECT_EQ(options.dir, dir);
  EXPECT_EQ(options.slow_ms, 1000);  // dir implies the latency trigger

  ::setenv("SHAPESTATS_FLIGHT_SLOW_MS", "250", 1);
  ::setenv("SHAPESTATS_FLIGHT_QERROR", "16", 1);
  options = FlightRecorder::OptionsFromEnv();
  EXPECT_EQ(options.slow_ms, 250);
  EXPECT_EQ(options.max_q_error, 16);
  ::unsetenv("SHAPESTATS_FLIGHT_DIR");
  ::unsetenv("SHAPESTATS_FLIGHT_SLOW_MS");
  ::unsetenv("SHAPESTATS_FLIGHT_QERROR");
}

// --- BuildInfo --------------------------------------------------------------

TEST(BuildInfoTest, ReportsCompilerStandardAndTimestamp) {
  const obs::BuildInfo& info = obs::GetBuildInfo();
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.standard.empty());
  EXPECT_FALSE(info.timestamp.empty());
}

TEST(BuildInfoTest, JsonCarriesEveryField) {
  std::string json = obs::BuildInfoJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(json.find("\"standard\":"), std::string::npos);
  EXPECT_NE(json.find("\"sanitizers\":["), std::string::npos);
  EXPECT_NE(json.find("\"build_timestamp\":"), std::string::npos);
}

// --- events.dropped metric --------------------------------------------------

TEST(EventLogTest, RingOverflowExportsDroppedMetric) {
  obs::Counter* dropped =
      obs::MetricsRegistry::Global().GetCounter("events.dropped");
  uint64_t before = dropped->value();
  obs::EventLog log(/*capacity=*/2);
  log.SetEnabled(true);
  for (int i = 0; i < 5; ++i) log.Emit(obs::Event("test.overflow"));
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_EQ(dropped->value() - before, 3u);
}

// --- Prometheus exposition compliance ---------------------------------------

// Splits text into lines, dropping the trailing empty line.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    out.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return out;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':';
    bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

TEST(PrometheusExpositionTest, SanitizesNamesEscapesLabelsAndPairsSeries) {
  obs::MetricsRegistry registry;
  // Names with characters outside [a-zA-Z0-9_:] and a leading digit — all
  // must be sanitized into legal exposition names.
  registry.GetCounter("exec.query count/total")->Add(3);
  registry.GetCounter("1starts.with.digit")->Add();
  registry.GetGauge("server.queue depth")->Set(-2);
  obs::Histogram* hist = registry.GetHistogram("exec.latency-ms");
  for (double v : {0.5, 1.5, 3.0, 100.0, 5000.0}) hist->Observe(v);
  registry.GetHistogram("exec.empty");  // zero observations

  std::string text = registry.ToPrometheus();
  std::vector<std::string> lines = Lines(text);
  ASSERT_FALSE(lines.empty());

  std::string current_histogram;
  double last_le = -1;
  uint64_t last_cum = 0;
  bool saw_inf = false;
  std::map<std::string, int> histogram_series;  // name -> sum|count|inf seen

  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream in(line.substr(7));
      std::string name, type;
      in >> name >> type;
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << type;
      if (type == "histogram") {
        current_histogram = name;
        last_le = -1;
        last_cum = 0;
        saw_inf = false;
      } else {
        current_histogram.clear();
      }
      continue;
    }
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string series = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty()) << line;

    size_t brace = series.find('{');
    std::string name = brace == std::string::npos ? series : series.substr(0, brace);
    EXPECT_TRUE(ValidMetricName(name)) << name;

    if (brace != std::string::npos) {
      // Only histogram buckets carry labels; check the label block shape and
      // that the value is quoted with no unescaped quote/backslash/newline.
      ASSERT_EQ(series.back(), '}') << series;
      std::string labels = series.substr(brace + 1, series.size() - brace - 2);
      ASSERT_EQ(labels.rfind("le=\"", 0), 0u) << labels;
      ASSERT_EQ(labels.back(), '"') << labels;
      std::string le = labels.substr(4, labels.size() - 5);
      for (size_t i = 0; i < le.size(); ++i) {
        EXPECT_NE(le[i], '\n') << labels;
        if (le[i] == '"') {
          ASSERT_GT(i, 0u) << labels;
          EXPECT_EQ(le[i - 1], '\\') << labels;
        }
      }
      ASSERT_EQ(name, current_histogram + "_bucket") << series;
      uint64_t cum = std::strtoull(value.c_str(), nullptr, 10);
      EXPECT_GE(cum, last_cum) << "bucket counts must be cumulative: " << line;
      last_cum = cum;
      if (le == "+Inf") {
        saw_inf = true;
        histogram_series[current_histogram] |= 4;
      } else {
        EXPECT_FALSE(saw_inf) << "+Inf bucket must be last: " << line;
        double bound = std::atof(le.c_str());
        EXPECT_GT(bound, last_le) << "le bounds must increase: " << line;
        last_le = bound;
      }
      continue;
    }
    if (!current_histogram.empty() &&
        name == current_histogram + "_sum") {
      histogram_series[current_histogram] |= 1;
    } else if (!current_histogram.empty() &&
               name == current_histogram + "_count") {
      EXPECT_TRUE(saw_inf) << "missing +Inf bucket before _count";
      EXPECT_EQ(std::strtoull(value.c_str(), nullptr, 10), last_cum)
          << "_count must equal the +Inf cumulative count";
      histogram_series[current_histogram] |= 2;
    }
  }

  // Both histograms (including the empty one) expose the full series triple.
  ASSERT_EQ(histogram_series.size(), 2u);
  for (const auto& [name, mask] : histogram_series) {
    EXPECT_EQ(mask, 7) << name << " is missing _sum, _count, or +Inf bucket";
  }
}

// --- Engine integration -----------------------------------------------------

class IntrospectEngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LubmOptions opts;
    opts.universities = 1;
    engine::EngineOptions eopts;
    // Plan cache on so completed records carry a template id (the registry
    // only learns one for cache-eligible queries).
    eopts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
    eopts.exec.timeout_ms = 60000;  // backstop for the cancellation test
    engine_ = new engine::QueryEngine(
        std::move(engine::QueryEngine::Open(datagen::GenerateLubm(opts), eopts))
            .value());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static engine::QueryEngine* engine_;
};
engine::QueryEngine* IntrospectEngineFixture::engine_ = nullptr;

constexpr char kProfessorQuery[] =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "SELECT ?x ?n WHERE { ?x a ub:FullProfessor . ?x ub:name ?n }";

obs::Histogram::Snapshot GlobalHistogram(const std::string& name) {
  for (const auto& h : obs::MetricsRegistry::Global().Snap().histograms) {
    if (h.name == name) return h.snap;
  }
  return {};
}

TEST_F(IntrospectEngineFixture, ExecutionLandsInCompletedRingWithResources) {
  ASSERT_NE(engine_->query_registry(), nullptr);
  uint64_t before = engine_->query_registry()->registered_total();
  const obs::Histogram::Snapshot probes_before =
      GlobalHistogram("exec.query_index_probes");
  const obs::Histogram::Snapshot scanned_before =
      GlobalHistogram("exec.query_rows_scanned");
  obs::QueryTrace trace;
  auto result = engine_->Execute(kProfessorQuery, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(engine_->query_registry()->registered_total(), before + 1);

  std::vector<QueryRecord> done = engine_->query_registry()->Completed(1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, "ok");
  EXPECT_EQ(done[0].num_results, result->table.rows.size());
  EXPECT_GT(done[0].resources.index_probes, 0u);
  EXPECT_FALSE(done[0].cache_template.empty());

  // The Prometheus resource distributions took this query's totals.
  const obs::Histogram::Snapshot probes =
      GlobalHistogram("exec.query_index_probes");
  const obs::Histogram::Snapshot scanned =
      GlobalHistogram("exec.query_rows_scanned");
  EXPECT_EQ(probes.count, probes_before.count + 1);
  EXPECT_DOUBLE_EQ(probes.sum - probes_before.sum,
                   static_cast<double>(done[0].resources.index_probes));
  EXPECT_EQ(scanned.count, scanned_before.count + 1);
  EXPECT_DOUBLE_EQ(scanned.sum - scanned_before.sum,
                   static_cast<double>(done[0].resources.rows_scanned));

  // The trace carries the same accounting, rendered in JSON and the table.
  EXPECT_TRUE(trace.has_resources);
  EXPECT_GT(trace.resources.index_probes, 0u);
  EXPECT_NE(trace.ToJson().find("\"resources\":{"), std::string::npos);
  EXPECT_NE(trace.ToTable().find("resources: "), std::string::npos);
}

TEST_F(IntrospectEngineFixture, ExplainAnalyzeReportsResources) {
  auto analyzed = engine_->ExplainAnalyze(kProfessorQuery);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed->trace.has_resources);
  EXPECT_GT(analyzed->trace.resources.index_probes, 0u);
  EXPECT_NE(analyzed->text.find("resources: "), std::string::npos);
}

TEST_F(IntrospectEngineFixture, CancellationStopsARunningQuery) {
  // Cross-product COUNT over every triple pair: far too slow to finish, but
  // it streams (no materialization), so cancelling it is cheap and safe.
  constexpr char kSlowQuery[] =
      "SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?o . ?b ?q ?r }";
  QueryRegistry* registry = engine_->query_registry();
  ASSERT_NE(registry, nullptr);

  std::thread runner([&]() {
    // Cancellation surfaces as a timed-out (partial) result, not an error;
    // the authoritative "cancelled" outcome is asserted on the registry
    // record below.
    auto result = engine_->Execute(kSlowQuery);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });

  // Wait until the query is visibly in flight, then cancel it.
  uint64_t id = 0;
  for (int spin = 0; spin < 10000 && id == 0; ++spin) {
    for (const QueryRecord& q : registry->Inflight()) {
      if (q.query == kSlowQuery) id = q.id;
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "slow query never appeared in the registry";
  EXPECT_TRUE(registry->Cancel(id));
  runner.join();

  bool found = false;
  for (const QueryRecord& q : registry->Completed(8)) {
    if (q.id == id) {
      found = true;
      EXPECT_EQ(q.outcome, "cancelled");
    }
  }
  EXPECT_TRUE(found) << "cancelled query missing from the completed ring";
}

TEST_F(IntrospectEngineFixture, ExplainAnalyzeIsRegisteredAndCancellable) {
  // EXPLAIN ANALYZE runs on Execute's lifecycle: the query is visible in
  // flight, and a cancellation stops it like any other execution.
  constexpr char kSlowQuery[] =
      "SELECT (COUNT(*) AS ?m) WHERE { ?a ?p ?o . ?b ?q ?r }";
  QueryRegistry* registry = engine_->query_registry();
  ASSERT_NE(registry, nullptr);

  std::thread runner([&]() {
    auto analyzed = engine_->ExplainAnalyze(kSlowQuery);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_TRUE(analyzed->trace.cancelled);
    EXPECT_NE(analyzed->text.find("[CANCELLED]"), std::string::npos)
        << analyzed->text;
  });

  uint64_t id = 0;
  for (int spin = 0; spin < 10000 && id == 0; ++spin) {
    for (const QueryRecord& q : registry->Inflight()) {
      if (q.query == kSlowQuery) id = q.id;
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "EXPLAIN ANALYZE never appeared in the registry";
  EXPECT_TRUE(registry->Cancel(id));
  runner.join();

  bool found = false;
  for (const QueryRecord& q : registry->Completed(8)) {
    if (q.id == id) {
      found = true;
      EXPECT_EQ(q.outcome, "cancelled");
    }
  }
  EXPECT_TRUE(found) << "cancelled EXPLAIN ANALYZE missing from the completed "
                        "ring";
}

}  // namespace
}  // namespace shapestats
