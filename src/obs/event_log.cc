#include "obs/event_log.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "obs/process_clock.h"

namespace shapestats::obs {

Event& Event::Str(std::string key, const std::string& value) {
  // Built via append: gcc 12's -Wrestrict fires a false positive on
  // operator+(const char*, std::string&&) in Release builds.
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += "\"";
  fields_.emplace_back(std::move(key), std::move(quoted));
  return *this;
}

Event& Event::Num(std::string key, double value) {
  fields_.emplace_back(std::move(key), FormatNumber(value));
  return *this;
}

Event& Event::Uint(std::string key, uint64_t value) {
  fields_.emplace_back(std::move(key), std::to_string(value));
  return *this;
}

Event& Event::Bool(std::string key, bool value) {
  fields_.emplace_back(std::move(key), value ? "true" : "false");
  return *this;
}

std::string Event::FieldJson(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return "";
}

std::string Event::ToJson() const {
  std::string out = "{\"ts_ms\":" + FormatNumber(ts_ms_) +
                    ",\"tid\":" + std::to_string(tid_) + ",\"type\":\"" +
                    JsonEscape(type_) + "\"";
  for (const auto& [k, v] : fields_) {
    out += ",\"" + JsonEscape(k) + "\":" + v;
  }
  out += "}";
  return out;
}

EventLog::EventLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

void EventLog::RecomputeActive() {
  active_.store(enabled_ || file_open_ || !subscribers_.empty(),
                std::memory_order_relaxed);
}

void EventLog::SetEnabled(bool enabled) {
  util::MutexLock lock(mu_);
  enabled_ = enabled;
  RecomputeActive();
}

void EventLog::Emit(Event event) {
  if (!active()) return;
  if (event.ts_ms_ < 0) event.ts_ms_ = MonotonicMs();
  event.tid_ = CurrentThreadId();
  total_emitted_.fetch_add(1, std::memory_order_relaxed);
  // Subscribers are invoked after the buffer/file work, outside mu_, so a
  // slow subscriber never blocks concurrent emitters for longer than the
  // copy of the subscriber list.
  std::vector<Subscriber> subs;
  {
    util::MutexLock lock(mu_);
    if (file_open_) {
      file_ << event.ToJson() << '\n';
      file_.flush();
    }
    if (ring_.size() == capacity_) {
      ring_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
      // Exported so ring exhaustion is visible in /metrics, not only via
      // the in-process dropped() accessor.
      static Counter* dropped_events =
          MetricsRegistry::Global().GetCounter("events.dropped");
      dropped_events->Add();
    }
    ring_.push_back(event);
    subs.reserve(subscribers_.size());
    for (const auto& [token, fn] : subscribers_) subs.push_back(fn);
  }
  for (const Subscriber& fn : subs) fn(event);
}

uint64_t EventLog::Subscribe(Subscriber fn) {
  util::MutexLock lock(mu_);
  uint64_t token = next_token_++;
  subscribers_.emplace_back(token, std::move(fn));
  RecomputeActive();
  return token;
}

void EventLog::Unsubscribe(uint64_t token) {
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < subscribers_.size(); ++i) {
    if (subscribers_[i].first == token) {
      subscribers_.erase(subscribers_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  RecomputeActive();
}

Status EventLog::OpenFile(const std::string& path) {
  util::MutexLock lock(mu_);
  if (file_open_) file_.close();
  file_.clear();
  file_.open(path, std::ios::app);
  file_open_ = file_.is_open();
  RecomputeActive();
  if (!file_open_) {
    return Status::InvalidArgument("cannot open event log file: " + path);
  }
  return Status::OK();
}

void EventLog::CloseFile() {
  util::MutexLock lock(mu_);
  if (file_open_) file_.close();
  file_open_ = false;
  RecomputeActive();
}

std::vector<Event> EventLog::Snapshot() const {
  util::MutexLock lock(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

std::string EventLog::ToJsonl() const {
  std::string out;
  for (const Event& e : Snapshot()) out += e.ToJson() + "\n";
  return out;
}

void EventLog::Clear() {
  util::MutexLock lock(mu_);
  ring_.clear();
}

EventLog& EventLog::Global() {
  static EventLog* log = [] {
    MonotonicUs();  // anchor the process timebase before any emission
    auto* l = new EventLog();
    if (const char* path = std::getenv("SHAPESTATS_EVENT_LOG")) {
      Status s = l->OpenFile(path);
      if (!s.ok()) {
        std::fprintf(stderr, "SHAPESTATS_EVENT_LOG: %s\n", s.ToString().c_str());
      }
    }
    return l;
  }();
  return *log;
}

}  // namespace shapestats::obs
