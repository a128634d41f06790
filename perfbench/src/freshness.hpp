// Freshness bookkeeping: the simulated delay from a watched user's true room
// changing to `whereis` naming the new room (PAPER.md sections 4-5).
//
// Each watched user has at most one open transition. A change of true room
// opens one; the first where-is answer naming that room closes it as a
// sample. A transition the user leaves before the answer catches up is
// censored, not sampled: its delay is unknown, only bounded below. So is
// one still open when the run ends. Moving out of every room opens no
// transition (there is no room for where-is to name).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class FreshnessTracker {
 public:
  static constexpr std::int64_t kNoRoom = -1;

  explicit FreshnessTracker(std::size_t users);

  /// Ground truth of user `i` at simulated instant `now_ns`.
  void observe_truth(std::size_t i, std::int64_t now_ns, std::int64_t room);
  /// True while user `i` has a transition waiting for an answer.
  bool pending(std::size_t i) const { return users_[i].pending; }
  /// The room user `i` was last seen in (kNoRoom before any observation).
  std::int64_t truth(std::size_t i) const { return users_[i].truth; }
  /// When user `i` entered that room (the open transition's start).
  std::int64_t since(std::size_t i) const { return users_[i].since_ns; }
  /// A where-is answer for user `i` at `now_ns` naming `room` (kNoRoom when
  /// it named none). Closes the open transition if it names its room.
  void observe_answer(std::size_t i, std::int64_t now_ns, std::int64_t room);
  /// Ends the run: every still-open transition is censored.
  void finish();

  /// Closed transitions' delays, in simulated seconds, in closing order.
  const std::vector<double>& samples() const { return samples_; }
  /// Transitions overtaken by the next move, plus those open at the end.
  std::uint64_t censored() const { return censored_; }
  /// Censored transitions over all transitions opened so far that are no
  /// longer open (0 before any).
  double censored_ratio() const;

 private:
  struct User {
    std::int64_t truth = kNoRoom;
    std::int64_t since_ns = 0;
    bool seen = false;
    bool pending = false;
  };
  std::vector<User> users_;
  std::vector<double> samples_;
  std::uint64_t censored_ = 0;
};

}  // namespace perfbench
