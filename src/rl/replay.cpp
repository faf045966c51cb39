#include "rl/replay.h"

#include <utility>

#include "util/logging.h"

namespace lpa::rl {

void ReplayBuffer::Add(Transition t) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(t));
  } else {
    buffer_[next_] = std::move(t);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<const Transition*> ReplayBuffer::Sample(size_t count,
                                                    Rng* rng) const {
  LPA_CHECK(!buffer_.empty());
  std::vector<const Transition*> result;
  result.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t idx = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(buffer_.size()) - 1));
    result.push_back(&buffer_[idx]);
  }
  return result;
}

}  // namespace lpa::rl
