#pragma once

#include <chrono>
#include <string>

#include "telemetry/metric.h"

namespace lpa::telemetry {

/// \brief RAII trace span. Spans nest per thread: a span opened while
/// another is alive on the same thread becomes its child, and is recorded
/// under the slash-joined path ("advisor.train_offline/rl.train"). On
/// destruction the wall-clock duration is aggregated into the global
/// registry (count / total / min / max per path) — individual events are not
/// retained, so tracing is safe in million-iteration loops.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// \brief Seconds elapsed since construction.
  double elapsed_seconds() const;

  const std::string& path() const { return path_; }

  /// \brief The innermost live span of this thread (nullptr outside spans).
  static const Span* Current();

 private:
  Span* parent_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief RAII timer that reports its elapsed seconds into a metric instead
/// of the span tree: a Histogram (distribution of durations) or a Counter's
/// seconds accumulator (total time spent).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), counter_(nullptr), start_(Now()) {}
  explicit ScopedTimer(Counter* counter)
      : histogram_(nullptr), counter_(counter), start_(Now()) {}
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_seconds() const;

 private:
  static std::chrono::steady_clock::time_point Now() {
    return std::chrono::steady_clock::now();
  }

  Histogram* histogram_;
  Counter* counter_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief RAII timer that adds its elapsed wall-clock nanoseconds to a
/// Counter's integer value: a summed-time counter such as
/// "rl.train_step_ns.count", whose total divides by the matching event count.
class NanosTimer {
 public:
  explicit NanosTimer(Counter* counter)
      : counter_(counter), start_(std::chrono::steady_clock::now()) {}
  ~NanosTimer() {
    counter_->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  NanosTimer(const NanosTimer&) = delete;
  NanosTimer& operator=(const NanosTimer&) = delete;

 private:
  Counter* counter_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lpa::telemetry
