// The benchmark's workloads and one repetition of a workload.
//
// Every repetition builds a fresh core::ShardedBipsSimulation (4 zones,
// whatever the worker count), runs it for the workload's horizon and tears
// it down, timing each call it makes into the stack. Inputs -- users, start
// rooms, access rights, watched users, the query mix, subscriptions and the
// fault drill's stations -- are a function of the workload seed alone.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  int rows = 0;
  int cols = 0;
  int users = 0;
  /// Start rooms are independent uniform draws (true) or a seeded shuffle
  /// giving every room the same share of users (false).
  bool random_start = true;
  double sim_seconds = 0.0;
  /// Worker threads, capped at the host's hardware threads.
  unsigned threads = 1;
  /// Watched users: freshness and tracking accuracy are graded on them.
  int watched = 0;
  /// Simulated period of the ground-truth probe over the watched users
  /// (freshness); tracking accuracy is graded on every tracking_every-th.
  double probe_period_s = 0.1;
  int tracking_every = 5;
  /// Every query_period_s of simulated time, one closed-loop batch of
  /// query_batch wire-round-tripped queries runs at the window barrier.
  double query_period_s = 0.1;
  int query_batch = 0;
  /// In-process subscriptions: users and rooms observed.
  int user_watchers = 0;
  int room_watchers = 0;
  /// A fault drill on seeded stations, applied with apply_sharded.
  bool chaos = false;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

inline constexpr std::size_t kZones = 4;
inline constexpr std::size_t kQueryKinds = 5;
extern const std::array<const char*, kQueryKinds> kQueryKindNames;

/// Everything one repetition measured. Wall times in seconds, latencies in
/// microseconds.
struct RepResult {
  double building_s = 0, construct_s = 0, add_users_s = 0, start_s = 0;
  /// Set-up times are medians over the repetition's set-ups.
  double setup_s = 0;     // building construction through start()
  std::vector<double> setup_samples_s;  // every set-up of the repetition
  double run_wall_s = 0;  // the run_for call
  double hook_s = 0;      // all barrier-hook work inside run_for
  double query_s = 0;     // timed query round trips (inside hook_s)
  double run_cpu_s = 0;   // process CPU time over the run_for call
  double teardown_s = 0;
  double rep_wall_s = 0;  // the whole repetition, digest included

  std::vector<double> window_us;  // barrier to barrier, hook excluded
  /// Latency of every query of the seeded mix (freshness probes excluded):
  /// codec round trip plus query().
  std::vector<double> query_us;
  std::array<std::vector<double>, kQueryKinds> kind_us;

  std::uint64_t queries = 0;  // every query, probes included
  std::uint64_t query_failed = 0;
  std::vector<std::string> failure_notes;  // the first few, explained

  std::vector<double> fresh_s;  // freshness samples, simulated seconds
  std::uint64_t fresh_censored = 0;
  double fresh_censored_ratio = 0;
  std::uint64_t tracking_samples = 0;
  std::uint64_t tracking_correct = 0;
  /// Cached ground-truth reads that disagreed with true_room()/db_room().
  std::uint64_t probe_mismatches = 0;
  std::uint64_t sub_events = 0;

  /// Deterministic counters (and ratios of them) read after the run.
  std::map<std::string, double> counts;
  /// FNV-1a digest of the history CSV, the query-answer stream, the
  /// subscription stream, the freshness/tracking samples and the counters.
  std::string digest;
};

/// Runs one repetition. `rec` non-null records a span around every call
/// into the stack (the traced run); null runs untraced.
RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                  unsigned threads, SpanRecorder* rec);

}  // namespace perfbench
