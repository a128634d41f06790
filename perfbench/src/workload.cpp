#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "digest.hpp"
#include "freshness.hpp"
#include "stats.hpp"
#include "src/core/parallel.hpp"
#include "src/core/zone_map.hpp"
#include "src/fault/plan.hpp"
#include "src/mobility/building.hpp"
#include "src/proto/messages.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace core = bips::core;
namespace fault = bips::fault;
namespace proto = bips::proto;
namespace mobility = bips::mobility;
using bips::Duration;
using bips::Rng;
using bips::SimTime;

const std::array<const char*, kQueryKinds> kQueryKindNames = {
    "where_is", "path_to", "who_is_in", "where_was", "history_since"};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec w;
      w.name = "campus_arrival";
      w.why = "4096 users boot at once in 512 rooms on 2 workers: set-up, "
              "all-pairs, radio occupancy scans, inquiry collisions, login "
              "storm; queries light";
      w.rows = 16;
      w.cols = 32;
      w.users = 4096;
      w.random_start = false;
      w.sim_seconds = 60.0;
      w.threads = 2;
      w.watched = 1024;
      w.probe_period_s = 0.25;
      w.tracking_every = 2;
      // Light query load, in large rare batches as on floor_walk.
      w.query_period_s = 10.0;
      w.query_batch = 2000;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "floor_walk";
      w.why = "1024 walkers, 128 rooms, 120 simulated s under a fault drill "
              "on seeded stations: barrier windows, seam handoffs, ingest "
              "merge, crash resync and re-login";
      w.rows = 8;
      w.cols = 16;
      w.users = 1024;
      w.sim_seconds = 120.0;
      w.threads = 1;
      w.watched = 1024;
      w.probe_period_s = 0.2;
      // Large, rare batches: small ones between windows run on cold
      // caches, and their latency spread 25-37% from run to run.
      w.query_period_s = 20.0;
      w.query_batch = 2000;
      w.chaos = true;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "query_mix";
      w.why = "closed-loop batches of all five wire-round-tripped query "
              "kinds read the location service while ingest writes it and "
              "subscribers fan out";
      w.rows = 8;
      w.cols = 8;
      w.users = 2048;
      w.sim_seconds = 60.0;
      w.threads = 1;
      w.watched = 2048;
      w.probe_period_s = 0.2;
      w.tracking_every = 5;
      w.query_period_s = 0.1;
      w.query_batch = 125;
      w.user_watchers = 64;
      w.room_watchers = 16;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// Set-up takes 10-70 ms, short enough that one descheduling of the process
/// by the host shows in it: each repetition builds its world this many
/// times from the same draws and reports the median set-up times. The last
/// world built is the one that runs.
constexpr int kSetupSamples = 5;

/// Between probe ticks, moves still unanswered are re-checked this often
/// (simulated time): the resolution at which a freshness sample closes.
constexpr Duration kCatchUpPeriod = Duration::millis(50);

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double secs_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

std::uint64_t mix_seed(std::uint64_t seed, std::string_view workload) {
  Digest d;
  d.add(seed);
  d.add(workload);
  return d.value();
}

std::string user_name(std::size_t i) { return "User " + std::to_string(i); }
std::string user_id(std::size_t i) { return "u" + std::to_string(i); }

/// Index of a "User <i>" display name.
std::optional<std::size_t> user_index(std::string_view name) {
  constexpr std::string_view kPrefix = "User ";
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  std::size_t i = 0;
  const char* b = name.data() + kPrefix.size();
  const char* e = name.data() + name.size();
  const auto [p, ec] = std::from_chars(b, e, i);
  if (ec != std::errc() || p != e) return std::nullopt;
  return i;
}

/// The fault drill of a chaos workload: the faults FaultPlan::chaos injects
/// by default (two station crashes, a server crash, a partition and a loss
/// burst), but at fixed shares of the horizon, with fixed 5 s outages and a
/// partition of a sixteenth of the stations; the seed picks the stations.
/// FaultPlan::chaos draws the instants, the outages and the partition size
/// (1 to half the stations), and those draws moved the run's work, its query
/// latency by a third, from one seed to the next.
fault::FaultPlan fault_drill(Rng& rng, std::size_t stations, double horizon_s) {
  const auto at = [horizon_s](double share) {
    return Duration::from_seconds(horizon_s * share);
  };
  const Duration outage = Duration::seconds(5);
  const auto station = [&] { return static_cast<core::StationId>(rng.uniform(stations)); };
  fault::FaultPlan plan;
  const core::StationId first = station();
  plan.crash_station(at(0.25), first).restart_station(at(0.25) + outage, first);
  std::vector<core::StationId> group;
  while (group.size() < std::max<std::size_t>(1, stations / 16)) {
    const core::StationId s = station();
    if (std::find(group.begin(), group.end(), s) == group.end()) group.push_back(s);
  }
  plan.partition_stations(at(0.35), outage, std::move(group));
  plan.crash_server(at(0.45)).restart_server(at(0.45) + outage);
  plan.loss_burst(at(0.55), outage, 0.3);
  const core::StationId second = station();
  plan.crash_station(at(0.65), second).restart_station(at(0.65) + outage, second);
  return plan;
}

/// One repetition's world plus the query/probe machinery that runs at its
/// window barriers.
class Rep {
 public:
  Rep(const WorkloadSpec& spec, std::uint64_t seed, unsigned threads,
      SpanRecorder* rec)
      : spec_(spec),
        threads_(threads),
        rec_(rec),
        rng_(mix_seed(seed, spec.name)),
        watched_(static_cast<std::size_t>(std::min(spec.watched, spec.users))),
        caught_up_(watched_),
        fresh_(watched_) {}
  // The barrier hook and the subscription callbacks hold `this`.
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  RepResult run();

 private:
  struct QueryCtx {
    /// A query of the seeded mix (true) or a freshness probe's where-is.
    bool mix = true;
    int kind = 0;
    std::size_t target = 0;     // user index (kinds naming a user)
    std::uint32_t station = 0;  // kWhoIsIn room / kPathTo origin
  };

  void setup();
  void on_barrier(SimTime edge);
  void probe_tick(SimTime edge, bool grade_tracking);
  void catch_up(SimTime edge);
  /// The watched user's true room: true_room() through the cached replica.
  mobility::RoomId truth_of(std::size_t i);
  /// Checks a block of cached replicas against true_room() / db_room().
  void verify_truth();
  /// Asks where-is about user `i` and closes its open transition if the
  /// answer names `truth`.
  void ask_where_is(std::size_t i, mobility::RoomId truth, SimTime edge);
  void query_batch(SimTime edge);
  proto::QueryResult run_query(const proto::Query& q, const QueryCtx& ctx);
  std::optional<std::string> check_answer(const proto::Query& q,
                                          const QueryCtx& ctx,
                                          const proto::QueryResult& r);
  bool expect_denied(const proto::Query& q, std::size_t target) const;
  void read_counters();

  const WorkloadSpec& spec_;
  unsigned threads_;
  SpanRecorder* rec_;
  Rng rng_;
  std::unique_ptr<core::ShardedBipsSimulation> sim_;
  /// Watched users are the first `watched` registered: their start rooms
  /// are seeded draws, and ShardedBipsSimulation finds a user's replica by
  /// a scan in registration order, so the lookups that refresh and verify
  /// the cached replicas stay short.
  std::size_t watched_ = 0;
  /// A watched user's live replica, cached: looking it up by userid is a
  /// scan over every user.
  struct Watch {
    mobility::RandomWaypointAgent* agent = nullptr;
    core::BipsClient* client = nullptr;
    std::uint64_t addr = 0;  // the handheld's address
  };
  std::vector<Watch> watch_;
  std::vector<double> seams_;  // zone seam x coordinates
  double coverage_radius_m_ = 0;
  std::size_t verify_next_ = 0;
  /// Per watched user: the open transition (its start instant) catch_up()
  /// last asked about, and whether the user's client was logged in then.
  struct Asked {
    std::int64_t since = -1;
    bool logged_in = false;
  };
  std::vector<Asked> caught_up_;
  FreshnessTracker fresh_;
  SimTime next_probe_;
  SimTime next_batch_;
  SimTime next_catch_up_;
  std::uint64_t probe_ticks_ = 0;
  std::uint64_t query_seq_ = 0;
  std::int64_t last_hook_end_ = 0;
  std::int64_t hook_ns_ = 0;
  std::int64_t query_ns_ = 0;
  Digest answers_;
  RepResult r_;
};

void Rep::setup() {
  const std::int64_t t0 = now_ns();
  std::optional<mobility::Building> building;
  {
    ScopedSpan s(rec_, "mobility.building");
    building.emplace(mobility::Building::grid(spec_.rows, spec_.cols));
  }
  r_.building_s = secs_since(t0);

  core::ShardedConfig cfg;
  cfg.base.seed = rng_.next_u64();
  cfg.base.stagger_inquiry = true;
  // The Figure 2 cadence: every master inquires 1.28 s of each 5.12 s
  // cycle, the radio-heavy regime.
  cfg.base.workstation.scheduler.inquiry_length = Duration::from_seconds(1.28);
  cfg.base.workstation.scheduler.cycle_length = Duration::from_seconds(5.12);
  // The failure detector runs through the fault drill.
  if (spec_.chaos) cfg.base.server.station_timeout = Duration::seconds(10);
  cfg.shards = kZones;
  coverage_radius_m_ = cfg.base.coverage_radius_m;

  const std::int64_t t1 = now_ns();
  {
    ScopedSpan s(rec_, "core.construct");
    sim_ = std::make_unique<core::ShardedBipsSimulation>(std::move(*building),
                                                         cfg);
  }
  r_.construct_s = secs_since(t1);

  const std::int64_t t2 = now_ns();
  const auto rooms = static_cast<std::uint64_t>(spec_.rows * spec_.cols);
  const auto users = static_cast<std::size_t>(spec_.users);
  // Start rooms: uniform draws, or a seeded shuffle of the round-robin
  // assignment (every room gets users / rooms of them).
  std::vector<std::uint64_t> start(users);
  for (std::size_t i = 0; i < users; ++i) {
    start[i] = spec_.random_start ? rng_.uniform(rooms) : i % rooms;
  }
  if (!spec_.random_start) {
    for (std::size_t i = users; i > 1; --i) {
      std::swap(start[i - 1], start[rng_.uniform(i)]);
    }
  }
  std::vector<bool> private_user(users, false), no_query(users, false);
  for (std::size_t i = 0; i < users; ++i) {
    private_user[i] = rng_.chance(0.05);
    no_query[i] = rng_.chance(0.05);
    ScopedSpan s(rec_, "core.add_user");
    sim_->add_user(user_name(i), user_id(i), "pw",
                   static_cast<mobility::RoomId>(start[i]));
  }

  {
    // Access rights: a few users hide from other users' queries and a few
    // may not query at all, so requester checks deny some queries.
    ScopedSpan s(rec_, "core.registry");
    auto& reg = sim_->server().registry();
    for (std::size_t i = 0; i < users; ++i) {
      if (private_user[i]) reg.set_locatable_by_anyone(user_id(i), false);
      if (no_query[i]) reg.set_may_query(user_id(i), false);
    }
  }
  r_.add_users_s = secs_since(t2);

  if (spec_.chaos) {
    ScopedSpan s(rec_, "fault.apply");
    Rng plan_rng(rng_.next_u64());
    fault_drill(plan_rng, static_cast<std::size_t>(rooms), spec_.sim_seconds)
        .apply_sharded(*sim_);
  }

  {
    ScopedSpan s(rec_, "core.subscribe");
    auto& hub = sim_->server().subscriptions();
    const auto on_event = [this](const core::SubscriptionHub::Event& e) {
      ScopedSpan cb(rec_, "bench.subscriber");
      ++r_.sub_events;
      answers_.add(e.user);
      answers_.add(static_cast<std::uint64_t>(e.entered));
      answers_.add(static_cast<std::uint64_t>(e.station));
      answers_.add(static_cast<std::uint64_t>(e.at.ns()));
    };
    for (int k = 0; k < spec_.user_watchers; ++k) {
      hub.subscribe_user(user_id(rng_.uniform(users)), on_event);
    }
    for (int k = 0; k < spec_.room_watchers; ++k) {
      hub.subscribe_room(static_cast<core::StationId>(rng_.uniform(rooms)),
                         on_event);
    }
  }

  const std::int64_t t3 = now_ns();
  {
    ScopedSpan s(rec_, "core.start");
    sim_->start();
  }
  r_.start_s = secs_since(t3);
  r_.setup_s = secs_since(t0);
}

bool Rep::expect_denied(const proto::Query& q, std::size_t target) const {
  if (q.requester.empty()) return false;
  const auto& reg = sim_->server().registry();
  const core::UserRecord* req = reg.by_userid(q.requester);
  if (req == nullptr) return true;
  if (q.kind == proto::Query::Kind::kWhoIsIn) return !req->may_query;
  const core::UserRecord* tgt = reg.by_userid(user_id(target));
  return tgt == nullptr || !reg.can_locate(*req, *tgt);
}

/// Checks one answer against the same barrier's ground truth. Absent,
/// not-logged-in and location-unknown are valid answers; an answer that
/// contradicts db_room(), or a requester check that went the wrong way, is
/// a failure.
std::optional<std::string> Rep::check_answer(const proto::Query& q,
                                             const QueryCtx& ctx,
                                             const proto::QueryResult& r) {
  using Kind = proto::Query::Kind;
  using St = proto::QueryStatus;
  const auto& b = sim_->building();
  const bool denied = expect_denied(q, ctx.target);
  if (denied != (r.status == St::kAccessDenied)) {
    return std::string("access check: status ") + proto::to_string(r.status);
  }
  if (denied) return std::nullopt;

  // The location service's attribution of a user's session device, as a
  // room name ("" = none). For a logged-in user this is db_room(): the
  // session's device is the user's handheld. (db_room() itself finds the
  // user by a scan over every user, too slow to call per answer.)
  const auto db_room_name = [&](std::size_t i) -> std::string {
    const auto& svc = sim_->server().locations();
    const auto addr = svc.addr_of(user_id(i));
    const auto st = addr ? svc.piconet_of(*addr) : std::nullopt;
    return st ? b.room(*st).name : std::string();
  };

  switch (q.kind) {
    case Kind::kWhereIs:
    case Kind::kPathTo: {
      const std::string db = db_room_name(ctx.target);
      if (r.status == St::kNotLoggedIn) return std::nullopt;
      if (r.status == St::kLocationUnknown) {
        if (db.empty()) return std::nullopt;
        return "location unknown but db_room is " + db;
      }
      if (r.status != St::kOk) {
        return std::string("status ") + proto::to_string(r.status);
      }
      const std::string& named =
          q.kind == Kind::kWhereIs ? r.room
                                   : (r.rooms.empty() ? std::string() : r.rooms.back());
      if (named != db) return "names " + named + " but db_room is " + db;
      if (q.kind == Kind::kPathTo && r.rooms.front() != b.room(ctx.station).name) {
        return "path starts at " + r.rooms.front();
      }
      return std::nullopt;
    }
    case Kind::kWhoIsIn: {
      if (r.status != St::kOk) {
        return std::string("status ") + proto::to_string(r.status);
      }
      const std::string& room = b.room(ctx.station).name;
      for (const std::string& u : r.users) {
        const auto i = user_index(u);
        if (!i) return "unknown user " + u;
        const std::string db = db_room_name(*i);
        if (db != room) return u + " listed in " + room + " but db_room is " + db;
      }
      return std::nullopt;
    }
    case Kind::kWhereWas:
      if (r.status == St::kOk || r.status == St::kNotLoggedIn) return std::nullopt;
      return std::string("status ") + proto::to_string(r.status);
    case Kind::kHistorySince: {
      if (r.status == St::kNotLoggedIn) return std::nullopt;
      if (r.status != St::kOk) {
        return std::string("status ") + proto::to_string(r.status);
      }
      // Visits come in ingest order, which is not always time order: a
      // delta retransmitted after LAN loss is recorded after later ones.
      for (const auto& v : r.visits) {
        if (v.at.ns() < q.at_ns) return "visit before the requested instant";
        if (!b.find(v.room)) return "visit names unknown room " + v.room;
      }
      return std::nullopt;
    }
  }
  return "unknown kind";
}

/// One query as a client sees it: encode, decode at the server, query(),
/// encode the result, decode at the client. The timed region is exactly
/// those five calls; the byte-exact re-encode check and the answer check
/// run after it.
proto::QueryResult Rep::run_query(const proto::Query& q, const QueryCtx& ctx) {
  const std::uint64_t id = ++query_seq_;
  proto::Bytes qbytes, rbytes;
  std::optional<proto::Message> qmsg, rmsg;
  proto::QueryResult served;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan root(rec_, "bench.query", id);
    {
      ScopedSpan s(rec_, "proto.encode", id);
      qbytes = proto::encode(q);
    }
    {
      ScopedSpan s(rec_, "proto.decode", id);
      qmsg = proto::decode(qbytes);
    }
    const auto* decoded = qmsg ? std::get_if<proto::Query>(&*qmsg) : nullptr;
    if (decoded != nullptr) {
      {
        ScopedSpan s(rec_, "core.query", id);
        served = sim_->server().query(*decoded);
      }
      {
        ScopedSpan s(rec_, "proto.encode", id);
        rbytes = proto::encode(served);
      }
      {
        ScopedSpan s(rec_, "proto.decode", id);
        rmsg = proto::decode(rbytes);
      }
    }
  }
  const std::int64_t dt = now_ns() - t0;
  query_ns_ += dt;
  const double us = 1e-3 * static_cast<double>(dt);
  // Latency percentiles describe the seeded mix only: how many probe
  // where-is queries a run needs depends on the seed, and would shift the
  // mix the percentiles describe.
  if (ctx.mix) {
    r_.query_us.push_back(us);
    r_.kind_us[static_cast<std::size_t>(ctx.kind)].push_back(us);
  }
  ++r_.queries;

  std::optional<std::string> fail;
  const auto* answer = rmsg ? std::get_if<proto::QueryResult>(&*rmsg) : nullptr;
  {
    ScopedSpan s(rec_, "bench.check", id);
    if (answer == nullptr) {
      fail = "codec round trip failed";
    } else if (proto::encode(*std::get_if<proto::Query>(&*qmsg)) != qbytes ||
               proto::encode(*answer) != rbytes) {
      fail = "codec round trip changed the bytes";
    } else {
      fail = check_answer(q, ctx, *answer);
    }
  }
  if (fail) {
    ++r_.query_failed;
    if (r_.failure_notes.size() < 5) {
      r_.failure_notes.push_back(std::string(kQueryKindNames[static_cast<std::size_t>(ctx.kind)]) +
                                 " #" + std::to_string(id) + ": " + *fail);
    }
    return proto::QueryResult{};
  }
  answers_.add(std::string_view(reinterpret_cast<const char*>(rbytes.data()),
                                rbytes.size()));
  return *answer;
}

void Rep::ask_where_is(std::size_t i, mobility::RoomId truth, SimTime edge) {
  QueryCtx ctx;
  ctx.mix = false;
  ctx.target = i;
  const proto::QueryResult res =
      run_query(proto::Query::where_is("", user_name(i)), ctx);
  const bool names_truth =
      res.ok() && res.room == sim_->building().room(truth).name;
  fresh_.observe_answer(i, edge.ns(),
                        names_truth ? static_cast<std::int64_t>(truth)
                                    : FreshnessTracker::kNoRoom);
}

mobility::RoomId Rep::truth_of(std::size_t i) {
  Watch& w = watch_[i];
  const auto stale = [&] {
    if (w.agent->walking()) return false;
    const double x = w.agent->position().x;
    return std::find(seams_.begin(), seams_.end(), x) != seams_.end();
  };
  if (w.agent == nullptr || stale()) {
    // A replica standing still exactly on a zone seam is the dormant one a
    // handoff left behind: look the live replica up again.
    const std::string uid = user_id(i);
    w.agent = &sim_->active_agent(uid);
    w.client = &sim_->active_client(uid);
  }
  return sim_->building().nearest_room_within(w.agent->position(),
                                              coverage_radius_m_);
}

// The probes make one span per tick, not one per call: a call costs less
// than recording a span. The where-is queries they issue are child spans.
void Rep::probe_tick(SimTime edge, bool grade_tracking) {
  ScopedSpan p(rec_, "core.probe");
  const auto& svc = sim_->server().locations();
  for (std::size_t i = 0; i < watched_; ++i) {
    const mobility::RoomId truth = truth_of(i);
    const auto db = svc.piconet_of(watch_[i].addr);  // db_room(), no scan
    // Tracking accuracy, graded like the simulator's own sampler: only
    // logged-in users count, and the DB is right when it names the covering
    // room or agrees the user is outside every piconet.
    if (grade_tracking && watch_[i].client->logged_in()) {
      ++r_.tracking_samples;
      if (truth == mobility::kNoRoom ? !db : (db && *db == truth)) {
        ++r_.tracking_correct;
      }
    }
    fresh_.observe_truth(i, edge.ns(),
                         truth == mobility::kNoRoom ? FreshnessTracker::kNoRoom
                                                    : static_cast<std::int64_t>(truth));
    // Where-is names a room exactly when the DB attributes the logged-in
    // user there (every issued where-is is checked against the DB), so the
    // probe asks only once the DB has caught up with the truth.
    if (fresh_.pending(i) && db && *db == truth) ask_where_is(i, truth, edge);
  }
  if (grade_tracking) verify_truth();
}

void Rep::verify_truth() {
  // The cached replicas must give what true_room() and db_room() give; a
  // rotating block of watched users is checked against them (each call is
  // a scan over the users, so not all of them every time).
  constexpr std::size_t kBlock = 32;
  for (std::size_t k = 0; k < std::min(kBlock, watched_); ++k) {
    const std::size_t i = verify_next_++ % watched_;
    const std::string uid = user_id(i);
    const auto db = sim_->server().locations().piconet_of(watch_[i].addr);
    if (truth_of(i) != sim_->true_room(uid) || db != sim_->db_room(uid)) {
      ++r_.probe_mismatches;
    }
  }
}

void Rep::catch_up(SimTime edge) {
  // Between probe ticks, users whose move is still unanswered are checked
  // again: once the DB names the room they moved to and they are still in
  // it, where-is is asked, so a sample closes within one catch-up period of
  // where-is being able to name the room.
  ScopedSpan p(rec_, "core.probe");
  const auto& svc = sim_->server().locations();
  for (std::size_t i = 0; i < watched_; ++i) {
    if (!fresh_.pending(i)) continue;
    // A user the DB places but where-is did not name has no session yet:
    // ask again only once the client has logged in since (the probe ticks
    // ask regardless).
    const bool logged_in = watch_[i].client->logged_in();
    const Asked& asked = caught_up_[i];
    if (asked.since == fresh_.since(i) && (asked.logged_in || !logged_in)) continue;
    const auto db = svc.piconet_of(watch_[i].addr);
    if (!db || static_cast<std::int64_t>(*db) != fresh_.truth(i)) continue;
    const mobility::RoomId truth = truth_of(i);
    fresh_.observe_truth(i, edge.ns(),
                         truth == mobility::kNoRoom ? FreshnessTracker::kNoRoom
                                                    : static_cast<std::int64_t>(truth));
    if (fresh_.pending(i) && truth == *db) {
      caught_up_[i] = Asked{fresh_.since(i), logged_in};
      ask_where_is(i, truth, edge);
    }
  }
}

void Rep::query_batch(SimTime edge) {
  // A synthetic mix (NOTES.md lists every parameter and why): kinds,
  // targets, stations and instants are uniform draws, half the queries
  // carry a requester.
  const auto users = static_cast<std::uint64_t>(spec_.users);
  const auto rooms = static_cast<std::uint64_t>(spec_.rows * spec_.cols);
  const auto& b = sim_->building();
  for (int n = 0; n < spec_.query_batch; ++n) {
    QueryCtx ctx;
    ctx.kind = static_cast<int>(rng_.uniform(kQueryKinds));
    ctx.target = rng_.uniform(users);
    ctx.station = static_cast<std::uint32_t>(rng_.uniform(rooms));
    const std::string requester =
        rng_.chance(0.5) ? user_id(rng_.uniform(users)) : std::string();
    const std::string target = user_name(ctx.target);
    const SimTime instant(static_cast<std::int64_t>(
        rng_.uniform(static_cast<std::uint64_t>(edge.ns()) + 1)));
    proto::Query q;
    switch (ctx.kind) {
      case 0: q = proto::Query::where_is(requester, target); break;
      case 1: q = proto::Query::path_to(requester, target, ctx.station); break;
      case 2: q = proto::Query::who_is_in(requester, b.room(ctx.station).name); break;
      case 3: q = proto::Query::where_was(requester, target, instant); break;
      default: q = proto::Query::history_since(requester, target, instant); break;
    }
    run_query(q, ctx);
  }
}

void Rep::on_barrier(SimTime edge) {
  const std::int64_t t_in = now_ns();
  r_.window_us.push_back(1e-3 * static_cast<double>(t_in - last_hook_end_));
  {
    ScopedSpan s(rec_, "bench.hook");
    if (edge >= next_probe_) {
      probe_tick(edge, probe_ticks_++ % spec_.tracking_every == 0);
      while (next_probe_ <= edge) {
        next_probe_ = next_probe_ + Duration::from_seconds(spec_.probe_period_s);
      }
      next_catch_up_ = edge + kCatchUpPeriod;
    } else if (edge >= next_catch_up_) {
      catch_up(edge);
      next_catch_up_ = edge + kCatchUpPeriod;
    }
    if (edge >= next_batch_) {
      query_batch(edge);
      while (next_batch_ <= edge) {
        next_batch_ = next_batch_ + Duration::from_seconds(spec_.query_period_s);
      }
    }
  }
  last_hook_end_ = now_ns();
  hook_ns_ += last_hook_end_ - t_in;
}

void Rep::read_counters() {
  ScopedSpan s(rec_, "core.counters");
  auto& c = r_.counts;
  auto& g = sim_->group();
  c["sim.windows"] = static_cast<double>(g.windows_run());
  c["sim.mail"] = static_cast<double>(g.mail_delivered());
  c["sim.events"] = static_cast<double>(g.events_executed());
  double max_ev = 0, sum_ev = 0;
  for (std::size_t k = 0; k < sim_->shard_count(); ++k) {
    const auto ev = static_cast<double>(sim_->shard_simulator(k).events_executed());
    max_ev = std::max(max_ev, ev);
    sum_ev += ev;
  }
  c["sim.shard_event_imbalance"] =
      sum_ev > 0 ? max_ev / (sum_ev / static_cast<double>(sim_->shard_count())) : 0;
  for (const char* name :
       {"kernel.skipped_slots", "radio.transmissions", "radio.collisions",
        "radio.occ_wakeups", "piconet.elided_polls", "ws.discoveries",
        "lan.sent", "lan.dropped", "ws.retransmissions", "svc.ingest_ops",
        "svc.ingest_dupes", "svc.shard_handoffs", "svc.relogin",
        "server.syncs_received", "server.logins_ok", "server.logins_failed",
        "server.path_cache_hits"}) {
    c[name] = static_cast<double>(sim_->metric_sum(name));
  }
  std::uint64_t fhs = 0, pages = 0, pages_ok = 0;
  for (std::size_t st = 0; st < sim_->workstation_count(); ++st) {
    auto& sched = sim_->workstation(static_cast<core::StationId>(st)).scheduler();
    fhs += sched.inquirer().stats().fhs_received;
    pages += sched.pager().stats().pages_started;
    pages_ok += sched.pager().stats().pages_succeeded;
  }
  c["inquiry.resp"] = static_cast<double>(fhs);
  c["page.ok_ratio"] = pages > 0 ? static_cast<double>(pages_ok) / static_cast<double>(pages) : 0;
  // server.paths_served counts wire path requests only; the benchmark calls
  // query() directly, so the share is of the path_to queries it issued.
  const auto path_queries = static_cast<double>(r_.kind_us[1].size());
  c["server.path_cache_hit_ratio"] =
      path_queries > 0 ? c["server.path_cache_hits"] / path_queries : 0;
  const double logins = c["server.logins_ok"] + c["server.logins_failed"];
  c["login.failed_ratio"] = logins > 0 ? c["server.logins_failed"] / logins : 0;
  c["subs.events_delivered"] = static_cast<double>(r_.sub_events);
}

RepResult Rep::run() {
  const std::int64_t t_rep = now_ns();
  const Rng inputs = rng_;
  std::array<std::vector<double>, 5> setups;
  for (int k = 0; k < kSetupSamples; ++k) {
    if (sim_) {
      ScopedSpan s(rec_, "core.discard");
      sim_.reset();
    }
    rng_ = inputs;
    setup();
    const double times[] = {r_.building_s, r_.construct_s, r_.add_users_s,
                            r_.start_s, r_.setup_s};
    for (std::size_t j = 0; j < setups.size(); ++j) setups[j].push_back(times[j]);
  }
  r_.building_s = median(setups[0]);
  r_.construct_s = median(setups[1]);
  r_.add_users_s = median(setups[2]);
  r_.start_s = median(setups[3]);
  r_.setup_samples_s = setups[4];
  r_.setup_s = median(setups[4]);

  next_probe_ = SimTime::zero();
  next_batch_ = SimTime::zero() + Duration::from_seconds(spec_.query_period_s);
  seams_ = core::ZonePartition::columns(sim_->building(), kZones).seams();
  watch_.resize(watched_);
  for (std::size_t i = 0; i < watched_; ++i) {
    watch_[i].addr = sim_->active_client(user_id(i)).addr().raw();
  }
  {
    // The t = 0 ground truth opens every watched user's first transition:
    // the boot-to-whereis delay is the first freshness sample.
    ScopedSpan s(rec_, "bench.hook");
    probe_tick(SimTime::zero(), true);
    ++probe_ticks_;
    next_probe_ = SimTime::zero() + Duration::from_seconds(spec_.probe_period_s);
  }
  sim_->set_barrier_hook([this](SimTime edge) { on_barrier(edge); });

  const double c0 = process_cpu_seconds();
  const std::int64_t t0 = now_ns();
  last_hook_end_ = t0;
  {
    ScopedSpan s(rec_, "sim.run_for");
    sim_->run_for(Duration::from_seconds(spec_.sim_seconds), threads_);
  }
  r_.run_wall_s = secs_since(t0);
  r_.run_cpu_s = process_cpu_seconds() - c0;
  r_.hook_s = 1e-9 * static_cast<double>(hook_ns_);
  r_.query_s = 1e-9 * static_cast<double>(query_ns_);
  sim_->set_barrier_hook(nullptr);

  fresh_.finish();
  r_.fresh_s = fresh_.samples();
  r_.fresh_censored = fresh_.censored();
  r_.fresh_censored_ratio = fresh_.censored_ratio();
  read_counters();

  Digest d;
  {
    std::ostringstream csv;
    {
      ScopedSpan s(rec_, "core.history_csv");
      sim_->write_history_csv(csv);
    }
    ScopedSpan s(rec_, "bench.digest");
    d.add(csv.str());
    d.add(answers_.value());
    for (const double f : r_.fresh_s) d.add(static_cast<std::uint64_t>(f * 1e9 + 0.5));
    for (const std::uint64_t v : {r_.fresh_censored, r_.tracking_samples, r_.probe_mismatches,
                                  r_.tracking_correct, r_.queries, r_.query_failed}) {
      d.add(v);
    }
    for (const auto& [name, v] : r_.counts) {
      d.add(name);
      d.add(static_cast<std::uint64_t>(v * 1e6 + 0.5));
    }
    r_.digest = d.hex();
  }

  const std::int64_t t1 = now_ns();
  {
    ScopedSpan s(rec_, "core.teardown");
    sim_.reset();
  }
  r_.teardown_s = secs_since(t1);
  r_.rep_wall_s = secs_since(t_rep);
  return std::move(r_);
}

}  // namespace

RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                  unsigned threads, SpanRecorder* rec) {
  Rep rep(spec, seed, threads, rec);
  return rep.run();
}

}  // namespace perfbench
