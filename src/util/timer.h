// Wall-clock timing used by the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace shapestats {

/// Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in milliseconds since construction or last Reset().
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace shapestats
