#include "bench_telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace shapestats::bench {

namespace {

BenchTelemetry* g_current = nullptr;

std::string FmtNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FmtHex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Appends `"key":`. Built via append: gcc 12's -Wrestrict fires a false
// positive on operator+(const char*, std::string&&) in Release builds.
void AppendKey(std::string* out, const std::string& key) {
  *out += '"';
  *out += obs::JsonEscape(key);
  *out += "\":";
}

}  // namespace

BenchTelemetry::BenchTelemetry(std::string name) : name_(std::move(name)) {
  // Activate env-driven sinks even in binaries that never open an engine.
  obs::ChromeTracer::Global();
  obs::EventLog::Global();
  g_current = this;
}

BenchTelemetry* BenchTelemetry::Current() { return g_current; }

void BenchTelemetry::Counter(const std::string& name, double value) {
  util::MutexLock lock(mu_);
  counters_[name] = value;
}

void BenchTelemetry::Timing(const std::string& name, double ms) {
  util::MutexLock lock(mu_);
  timings_[name] = ms;
}

void BenchTelemetry::Digest(const std::string& name, uint64_t fnv) {
  util::MutexLock lock(mu_);
  digests_[name] = fnv;
}

std::string BenchTelemetry::ToJson() const {
  util::MutexLock lock(mu_);
  std::string out = "{\"bench\":\"" + obs::JsonEscape(name_) + "\",\"schema\":1";
  out += ",\"digests\":{";
  bool first = true;
  for (const auto& [k, v] : digests_) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, k);
    out += '"';
    out += FmtHex(v);
    out += '"';
  }
  out += "},\"counters\":{";
  first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, k);
    out += FmtNum(v);
  }
  out += "},\"timings\":{";
  first = true;
  for (const auto& [k, v] : timings_) {
    if (!first) out += ",";
    first = false;
    AppendKey(&out, k);
    out += FmtNum(v);
  }
  out += "}";
  util::ThreadPool::StatsSnapshot pool = util::ThreadPool::Shared().stats();
  out += ",\"pool\":{\"threads\":" + std::to_string(pool.num_threads) +
         ",\"tasks_executed\":" + std::to_string(pool.tasks_executed) +
         ",\"peak_queue_depth\":" + std::to_string(pool.peak_queue_depth) + "}";
  out += "}";
  return out;
}

BenchTelemetry::~BenchTelemetry() {
  if (g_current == this) g_current = nullptr;
  const char* dir = std::getenv("SHAPESTATS_BENCH_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "SHAPESTATS_BENCH_DIR: cannot write %s\n", path.c_str());
    return;
  }
  out << ToJson() << "\n";
  std::fprintf(stderr, "bench telemetry written to %s\n", path.c_str());
}

}  // namespace shapestats::bench
