#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "obs/metrics.h"
#include "obs/process_clock.h"
#include "util/thread_pool.h"

namespace shapestats::obs {

namespace {

std::string FmtUs(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

// Output path for the atexit writer when SHAPESTATS_CHROME_TRACE is set.
std::string* g_env_trace_path = nullptr;

void WriteEnvTraceAtExit() {
  if (g_env_trace_path == nullptr) return;
  Status s = ChromeTracer::Global().WriteFile(*g_env_trace_path);
  if (!s.ok()) {
    std::fprintf(stderr, "SHAPESTATS_CHROME_TRACE: %s\n", s.ToString().c_str());
  }
}

void PoolTaskHook(const util::ThreadPool& pool, const char* kind,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  ChromeTracer& tracer = ChromeTracer::Global();
  if (!tracer.enabled()) return;
  double ts = ToMonotonicUs(start);
  tracer.AddComplete("pool", pool.label() + ":" + kind, ts,
                     ToMonotonicUs(end) - ts);
}

}  // namespace

void ChromeTracer::AddComplete(
    const char* category, std::string name, double ts_us, double dur_us,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  Ev ev{category, std::move(name), ts_us, dur_us, CurrentThreadId(),
        std::move(args)};
  util::MutexLock lock(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(ev));
}

size_t ChromeTracer::NumEvents() const {
  util::MutexLock lock(mu_);
  return events_.size();
}

void ChromeTracer::Clear() {
  util::MutexLock lock(mu_);
  events_.clear();
}

std::string ChromeTracer::ToJson() const {
  util::MutexLock lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::set<uint32_t> tids;
  for (const Ev& ev : events_) {
    tids.insert(ev.tid);
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(ev.name) + "\",\"cat\":\"" +
           JsonEscape(ev.category) + "\",\"ph\":\"X\",\"ts\":" + FmtUs(ev.ts_us) +
           ",\"dur\":" + FmtUs(ev.dur_us) + ",\"pid\":1,\"tid\":" +
           std::to_string(ev.tid);
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      for (size_t i = 0; i < ev.args.size(); ++i) {
        if (i) out += ",";
        // Appended piecewise: gcc 12's -Wrestrict fires a false positive
        // on operator+(const char*, std::string&&) in Release builds.
        out += "\"";
        out += JsonEscape(ev.args[i].first);
        out += "\":\"";
        out += JsonEscape(ev.args[i].second);
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  // Name the timelines: thread 0 is whichever thread touched the obs clock
  // first (normally the main thread).
  for (uint32_t tid : tids) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" +
           (tid == 0 ? std::string("main") : "thread-" + std::to_string(tid)) +
           "\"}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status ChromeTracer::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open trace file: " + path);
  out << ToJson() << "\n";
  return Status::OK();
}

ChromeTracer& ChromeTracer::Global() {
  static ChromeTracer* tracer = [] {
    // Anchor the process timebase now so no later span (including pool tasks
    // already in flight) serializes with a timestamp before the epoch.
    MonotonicUs();
    auto* t = new ChromeTracer();
    if (const char* path = std::getenv("SHAPESTATS_CHROME_TRACE")) {
      t->Enable();
      InstallPoolTraceHook();
      g_env_trace_path = new std::string(path);
      std::atexit(&WriteEnvTraceAtExit);
    }
    return t;
  }();
  return *tracer;
}

TraceSpan::TraceSpan(const char* category, std::string name)
    : active_(ChromeTracer::Global().enabled()),
      category_(category),
      name_(std::move(name)) {
  if (active_) start_us_ = MonotonicUs();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  ChromeTracer::Global().AddComplete(category_, std::move(name_), start_us_,
                                     MonotonicUs() - start_us_,
                                     std::move(args_));
}

void TraceSpan::Arg(std::string key, std::string value) {
  if (active_) args_.emplace_back(std::move(key), std::move(value));
}

void InstallPoolTraceHook() {
  util::ThreadPool::SetTaskTimingHook(&PoolTaskHook);
}

}  // namespace shapestats::obs
