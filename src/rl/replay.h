#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace lpa::rl {

/// \brief One experience-replay transition (s, a, r, s').
struct Transition {
  std::vector<double> state_enc;
  int action_id = -1;
  double reward = 0.0;
  std::vector<double> next_enc;
  /// Legal action ids at s' (needed for max_a' Q(s', a')).
  std::vector<int> next_legal;
};

/// \brief Fixed-capacity ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {}

  void Add(Transition t);
  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }

  /// \brief Sample `count` transitions uniformly with replacement.
  std::vector<const Transition*> Sample(size_t count, Rng* rng) const;

  /// \brief Direct access for tests (index is storage order, not age order).
  const Transition& at(size_t i) const { return buffer_[i]; }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> buffer_;
};

}  // namespace lpa::rl
