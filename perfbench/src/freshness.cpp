#include "freshness.hpp"

namespace perfbench {

FreshnessTracker::FreshnessTracker(std::size_t users) : users_(users) {}

void FreshnessTracker::observe_truth(std::size_t i, std::int64_t now_ns,
                                     std::int64_t room) {
  User& u = users_[i];
  if (u.seen && room == u.truth) return;
  if (u.pending) ++censored_;
  u.seen = true;
  u.truth = room;
  u.since_ns = now_ns;
  u.pending = room != kNoRoom;
}

void FreshnessTracker::observe_answer(std::size_t i, std::int64_t now_ns,
                                      std::int64_t room) {
  User& u = users_[i];
  if (!u.pending || room != u.truth) return;
  u.pending = false;
  samples_.push_back(1e-9 * static_cast<double>(now_ns - u.since_ns));
}

double FreshnessTracker::censored_ratio() const {
  const std::uint64_t ended = censored_ + samples_.size();
  return ended > 0 ? static_cast<double>(censored_) / static_cast<double>(ended) : 0.0;
}

void FreshnessTracker::finish() {
  for (User& u : users_) {
    if (u.pending) ++censored_;
    u.pending = false;
  }
}

}  // namespace perfbench
