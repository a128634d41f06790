// bips_perfbench: the end-to-end, layer-attributed BIPS benchmark.
//
//   bips_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out FILE]
//   bips_perfbench --list-metrics | --list-workloads
//
// Repeats the workload (same seed, fresh world each time) at least three times
// and as long as another repetition fits in S seconds, then prints one human-
// readable report and, as its last line, a JSON object with the fields correct
// / attempted / failed / metrics. --trace 0 reports the end-to-end metrics from
// untraced repetitions; --trace 1 alternates untraced and traced repetitions
// and reports the per-layer metrics, the per-layer self times and the tracing
// overhead. Every repetition must produce the same correctness digest.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (--trace 0), in report order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"teardown_s", "s"},
    {"sim_rate", "sim_s/s"},
    {"cpu_per_sim_s", "cpu_s/sim_s"},
    {"peak_rss_mb", "MB"},
    {"query_p50_us", "us"},
    {"tracking_accuracy", "ratio"},
    {"fresh_p50_sim_s", "s"},
    {"fresh_p99_sim_s", "s"},
    {"fresh_censored_ratio", "ratio"},
};

/// The per-layer metrics (--trace 1) besides the per-query-kind ones.
constexpr Metric kPerLayer[] = {
    {"setup.building_s", "s"},
    {"setup.construct_s", "s"},
    {"setup.add_users_s", "s"},
    {"setup.start_s", "s"},
    {"sim.windows", "count"},
    {"sim.window_p50_us", "us"},
    {"sim.window_p99_us", "us"},
    {"sim.mail", "count"},
    {"sim.events", "count"},
    {"sim.shard_event_imbalance", "ratio"},
    {"kernel.skipped_slots", "count"},
    {"radio.transmissions", "count"},
    {"radio.collisions", "count"},
    {"radio.occ_wakeups", "count"},
    {"inquiry.resp", "count"},
    {"page.ok_ratio", "ratio"},
    {"piconet.elided_polls", "count"},
    {"ws.discoveries", "count"},
    {"lan.sent", "count"},
    {"lan.dropped", "count"},
    {"ws.retransmissions", "count"},
    {"svc.ingest_ops", "count"},
    {"svc.ingest_dupes", "count"},
    {"svc.shard_handoffs", "count"},
    {"svc.relogin", "count"},
    {"server.syncs_received", "count"},
    {"server.logins_ok", "count"},
    {"login.failed_ratio", "ratio"},
    {"query.p99_us", "us"},
    {"query.busy_s", "s"},
    {"server.path_cache_hit_ratio", "ratio"},
    {"subs.events_delivered", "count"},
    {"proto.encode_p50_us", "us"},
    {"proto.decode_p50_us", "us"},
    {"proto.busy_s", "s"},
    {"self.sim_s", "s"},
    {"self.core_s", "s"},
    {"self.proto_s", "s"},
    {"self.bench_s", "s"},
};

/// Per-layer metric list including query.<kind>_p50_us / _p99_us.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Metric& m : kPerLayer) out.emplace_back(m.name, m.unit);
  for (const char* kind : kQueryKindNames) {
    out.emplace_back(std::string("query.") + kind + "_p50_us", "us");
    out.emplace_back(std::string("query.") + kind + "_p99_us", "us");
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bips_perfbench: %s\n"
               "usage: bips_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "       bips_perfbench --list-metrics | --list-workloads\n",
               msg);
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view s, const char* what) {
  T v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) usage(what);
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median over repetitions of one per-repetition figure.
double med(const std::vector<RepResult>& reps,
           const std::function<double(const RepResult&)>& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(std::move(v));
}

void print_summary(const char* label, const std::vector<double>& v,
                   const char* unit) {
  const Summary s = summarize(v);
  std::printf("  %-22s n=%zu p50=%.4g %s %s=%.4g %s\n", label, s.n, s.p50,
              unit, percentile_label(s.tail_pct).c_str(), s.tail, unit);
}

double mean(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return v.empty() ? 0.0 : t / static_cast<double>(v.size());
}

double p99(std::vector<double> v) { return quantile(std::move(v), 0.99); }

/// The end-to-end metrics of the repetitions `reps[first..]`. The host's
/// speed drifts from one repetition to the next, so every timing averages
/// over the whole run instead of picking one repetition: the query median
/// is taken over the pooled queries of all the repetitions, the rates are
/// ratios of totals, teardown is a mean, and set-up is the median of every
/// set-up sample (each is short enough that one descheduling shows in it).
std::vector<std::pair<std::string, double>> end_to_end(
    const std::vector<RepResult>& all, std::size_t first,
    const WorkloadSpec& spec, unsigned threads) {
  const std::span<const RepResult> reps(all.begin() + static_cast<std::ptrdiff_t>(first),
                                        all.end());
  const RepResult& r0 = reps.front();
  double served_s = 0, cpu_s = 0, teardown_s = 0;
  std::vector<double> setups, queries;
  for (const RepResult& r : reps) {
    // The ground-truth probes and the benchmark's own bookkeeping at the
    // barriers are excluded; the queries are part of the served load.
    served_s += r.run_wall_s - r.hook_s + r.query_s;
    // Process CPU over run_for, less the barrier-hook time the probes and
    // bookkeeping took on every worker: the spin-waiting workers burn CPU
    // while the main thread runs the hook.
    cpu_s += r.run_cpu_s - (r.hook_s - r.query_s) * threads;
    teardown_s += r.teardown_s;
    setups.insert(setups.end(), r.setup_samples_s.begin(), r.setup_samples_s.end());
    queries.insert(queries.end(), r.query_us.begin(), r.query_us.end());
  }
  const auto n = static_cast<double>(reps.size());
  const double sim_s = spec.sim_seconds * n;
  return {
      {"setup_s", median(std::move(setups))},
      {"teardown_s", teardown_s / n},
      {"sim_rate", sim_s / served_s},
      {"cpu_per_sim_s", cpu_s / sim_s},
      {"peak_rss_mb", peak_rss_mb()},
      {"query_p50_us", median(std::move(queries))},
      {"tracking_accuracy",
       r0.tracking_samples > 0 ? static_cast<double>(r0.tracking_correct) /
                                     static_cast<double>(r0.tracking_samples)
                               : 0.0},
      {"fresh_p50_sim_s", median(r0.fresh_s)},
      {"fresh_p99_sim_s", p99(r0.fresh_s)},
      // Transitions that never got a sample: a slower discovery or login
      // shows here when the user moves on, or the run ends, first.
      {"fresh_censored_ratio", r0.fresh_censored_ratio},
  };
}

/// The per-layer metrics one traced repetition's spans give.
std::map<std::string, double> span_metrics(const std::vector<Span>& spans) {
  const auto p50_us = [&](std::string_view name) {
    std::vector<double> us;
    for (const Span& s : spans) {
      if (name == s.name) us.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
    return median(std::move(us));
  };
  std::map<std::string, double> out;
  out["proto.encode_p50_us"] = p50_us("proto.encode");
  out["proto.decode_p50_us"] = p50_us("proto.decode");
  out["proto.busy_s"] = total_time(spans, "proto.encode") + total_time(spans, "proto.decode");
  const auto by_layer = self_time_by_layer(spans);
  for (const char* layer : {"sim", "core", "proto", "bench"}) {
    const auto it = by_layer.find(layer);
    out[std::string("self.") + layer + "_s"] = it == by_layer.end() ? 0.0 : it->second;
  }
  return out;
}

std::vector<std::pair<std::string, double>> per_layer(
    const std::vector<RepResult>& reps,
    const std::vector<std::map<std::string, double>>& span_metrics) {
  const RepResult& r0 = reps.front();
  std::vector<std::pair<std::string, double>> out;
  const auto m = [&](const char* name,
                     const std::function<double(const RepResult&)>& f) {
    out.emplace_back(name, med(reps, f));
  };
  m("setup.building_s", [](const RepResult& r) { return r.building_s; });
  m("setup.construct_s", [](const RepResult& r) { return r.construct_s; });
  m("setup.add_users_s", [](const RepResult& r) { return r.add_users_s; });
  m("setup.start_s", [](const RepResult& r) { return r.start_s; });
  out.emplace_back("sim.windows", r0.counts.at("sim.windows"));
  m("sim.window_p50_us", [](const RepResult& r) { return median(r.window_us); });
  m("sim.window_p99_us", [](const RepResult& r) { return p99(r.window_us); });
  for (const char* name :
       {"sim.mail", "sim.events", "sim.shard_event_imbalance",
        "kernel.skipped_slots", "radio.transmissions", "radio.collisions",
        "radio.occ_wakeups", "inquiry.resp", "page.ok_ratio",
        "piconet.elided_polls", "ws.discoveries", "lan.sent", "lan.dropped",
        "ws.retransmissions", "svc.ingest_ops", "svc.ingest_dupes",
        "svc.shard_handoffs", "svc.relogin", "server.syncs_received",
        "server.logins_ok", "login.failed_ratio"}) {
    out.emplace_back(name, r0.counts.at(name));
  }
  m("query.p99_us", [](const RepResult& r) { return p99(r.query_us); });
  m("query.busy_s", [](const RepResult& r) { return r.query_s; });
  out.emplace_back("server.path_cache_hit_ratio",
                   r0.counts.at("server.path_cache_hit_ratio"));
  out.emplace_back("subs.events_delivered", r0.counts.at("subs.events_delivered"));

  // From the spans of the traced repetitions: medians across repetitions.
  for (const auto& [name, v] : span_metrics.front()) {
    std::vector<double> across;
    for (const auto& t : span_metrics) across.push_back(t.at(name));
    out.emplace_back(name, median(std::move(across)));
  }
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    const std::string base = std::string("query.") + kQueryKindNames[k];
    out.emplace_back(base + "_p50_us", med(reps, [k](const RepResult& r) {
                       return median(r.kind_us[k]);
                     }));
    out.emplace_back(base + "_p99_us", med(reps, [k](const RepResult& r) {
                       return p99(r.kind_us[k]);
                     }));
  }
  return out;
}

/// The result line: every declared metric, in declaration order. A declared
/// metric without a value is a bug in this program; it exits rather than
/// print a made-up number.
void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<std::string, double>>& values,
                const std::vector<std::pair<std::string, std::string>>& units) {
  std::string metrics;
  for (const auto& [name, unit] : units) {
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&](const auto& v) { return v.first == name; });
    if (it == values.end()) {
      std::fprintf(stderr, "bips_perfbench: no value for metric %s\n", name.c_str());
      std::exit(1);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), it->second, unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

int run(const Args& a) {
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) usage("unknown workload");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(spec->threads, hw);

  std::printf("workload %s seed %llu: %dx%d rooms, %d users, %.0f simulated s, "
              "%zu zones, %u worker(s)\n  why: %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              spec->rows, spec->cols, spec->users, spec->sim_seconds, kZones,
              threads, spec->why.c_str());

  // Untraced repetitions give the end-to-end numbers. The traced run
  // alternates untraced and traced repetitions so the overhead of tracing
  // is measured under the same conditions.
  std::vector<RepResult> plain, traced;
  std::vector<std::map<std::string, double>> traced_span_metrics;
  std::vector<Span> last_trace;  // the last traced repetition's spans
  // Repetitions run until the next one, taking as long as the median one
  // so far, would overrun --seconds.
  const std::int64_t t0 = now_ns();
  const std::size_t min_reps = a.trace ? 4 : 3;
  std::vector<double> rep_s;
  const auto another_fits = [&] {
    return 1e-9 * static_cast<double>(now_ns() - t0) + median(rep_s) < a.seconds;
  };
  for (std::size_t i = 0; i < min_reps || another_fits(); ++i) {
    if (a.trace && i % 2 == 1) {
      SpanRecorder rec;
      traced.push_back(run_rep(*spec, a.seed, threads, &rec));
      traced_span_metrics.push_back(span_metrics(rec.spans()));
      last_trace = rec.spans();
      rep_s.push_back(traced.back().rep_wall_s);
    } else {
      plain.push_back(run_rep(*spec, a.seed, threads, nullptr));
      rep_s.push_back(plain.back().rep_wall_s);
    }
  }

  // Correctness: every repetition of one seed must agree bit for bit.
  bool correct = true;
  const RepResult& r0 = plain.front();
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& r : *set) {
      attempted += r.queries;
      failed += r.query_failed;
      if (r.digest != r0.digest) {
        std::printf("  DIGEST MISMATCH: %s vs %s\n", r.digest.c_str(),
                    r0.digest.c_str());
        correct = false;
      }
    }
  }
  for (const std::string& note : r0.failure_notes) {
    std::printf("  failed query: %s\n", note.c_str());
  }
  if (r0.probe_mismatches > 0) {
    std::printf("  %llu cached ground-truth reads disagreed with true_room/db_room\n",
                static_cast<unsigned long long>(r0.probe_mismatches));
  }
  if (failed > 0 || r0.probe_mismatches > 0 || r0.fresh_s.empty() ||
      r0.tracking_samples == 0) {
    correct = false;
  }
  std::printf("digest: %s (%zu repetitions agree: %s)\n", r0.digest.c_str(),
              plain.size() + traced.size(), correct ? "yes" : "NO");
  std::printf("  queries %llu, failed %llu (ratio %.3g); logins failed ratio %.4g\n",
              static_cast<unsigned long long>(r0.queries),
              static_cast<unsigned long long>(r0.query_failed),
              r0.queries ? static_cast<double>(r0.query_failed) / static_cast<double>(r0.queries) : 0.0,
              r0.counts.at("login.failed_ratio"));
  std::printf("  counts:");
  for (const auto& [name, v] : r0.counts) std::printf(" %s=%.6g", name.c_str(), v);
  std::printf("\n");
  std::printf("  freshness: %zu samples, %llu censored\n", r0.fresh_s.size(),
              static_cast<unsigned long long>(r0.fresh_censored));
  print_summary("fresh (sim s)", r0.fresh_s, "s");
  print_summary("query (us)", r0.query_us, "us");
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    print_summary(kQueryKindNames[k], r0.kind_us[k], "us");
  }
  print_summary("window (us)", r0.window_us, "us");

  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& r : *set) {
      std::printf("  %s rep: setup %.4f s, run %.4f s (hook %.4f, queries %.4f), "
                  "cpu %.3f s, teardown %.4f s, query p50 %.3f us mean %.3f us\n",
                  set == &plain ? "untraced" : "traced", r.setup_s, r.run_wall_s,
                  r.hook_s, r.query_s, r.run_cpu_s, r.teardown_s, median(r.query_us), mean(r.query_us));
    }
  }
  // The first repetition warms the heap, the page tables and the caches;
  // the end-to-end figures come from the untraced repetitions after it.
  const auto e2e = end_to_end(plain, 1, *spec, threads);
  std::printf("end-to-end (%zu untraced repetitions after a warm-up one):\n",
              plain.size() - 1);
  for (const auto& [n, v] : e2e) std::printf("  %-20s %.6g\n", n.c_str(), v);

  if (!a.trace) {
    std::vector<std::pair<std::string, std::string>> units;
    for (const Metric& m : kEndToEnd) units.emplace_back(m.name, m.unit);
    print_json(correct, attempted, failed, e2e, units);
    return 0;
  }

  const auto e2e_traced = end_to_end(traced, 0, *spec, threads);
  std::printf("tracing overhead (traced minus untraced, %zu traced repetitions):\n",
              traced.size());
  for (std::size_t k = 0; k < e2e.size(); ++k) {
    const double d = e2e_traced[k].second - e2e[k].second;
    std::printf("  %-20s %+.6g (%+.1f%%)\n", e2e[k].first.c_str(), d,
                e2e[k].second != 0 ? 100.0 * d / e2e[k].second : 0.0);
  }
  std::printf("per-layer self time (last traced repetition):\n");
  const auto& t = last_trace;
  const double wall = traced.back().rep_wall_s;
  for (const auto& [layer, secs] : self_time_by_layer(t)) {
    std::printf("  %-10s %9.4f s  %5.1f%%\n", layer.c_str(), secs, 100.0 * secs / wall);
  }
  std::printf("per-span self time:\n");
  for (const auto& [name, secs] : self_time_by_name(t)) {
    std::printf("  %-20s %9.4f s  %5.1f%%\n", name.c_str(), secs, 100.0 * secs / wall);
  }
  std::printf("  spans cover %.4f s of %.4f s repetition wall time (%.1f%%)\n",
              root_time(t), wall, 100.0 * root_time(t) / wall);
  if (!a.spans_out.empty()) {
    std::ofstream os(a.spans_out);
    write_spans_jsonl(os, t);
    if (!os) {
      std::fprintf(stderr, "bips_perfbench: cannot write %s\n", a.spans_out.c_str());
      return 1;
    }
    std::printf("  spans written to %s\n", a.spans_out.c_str());
  }
  print_json(correct, attempted, failed, per_layer(traced, traced_span_metrics), per_layer_metrics());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto& m : perfbench::kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& [n, u] : perfbench::per_layer_metrics()) {
        std::printf("per_layer %s %s\n", n.c_str(), u.c_str());
      }
      return 0;
    }
    if (flag == "--list-workloads") {
      for (const auto& w : perfbench::workloads()) {
        std::printf("%s\t%s\n", w.name.c_str(), w.why.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = perfbench::parse_number<std::uint64_t>(v, "bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = perfbench::parse_number<double>(v, "bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return perfbench::run(a);
}
