// Unit tests for the benchmark's own arithmetic: percentiles, span self
// time and freshness/censoring bookkeeping.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "digest.hpp"
#include "freshness.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(quantile(iota(100), 0.5), 50);
  EXPECT_EQ(quantile(iota(100), 0.99), 99);
  EXPECT_EQ(quantile(iota(100), 1.0), 100);
  EXPECT_EQ(quantile(iota(1), 0.99), 1);
  EXPECT_EQ(quantile({}, 0.5), 0);
  EXPECT_EQ(quantile({3, 1, 2}, 0.5), 2);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 50);
  EXPECT_EQ(tail_percentile(99), 50);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(999), 90);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(9999), 99);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(1000000), 99.9);
}

TEST(Percentile, SummaryAndLabel) {
  const Summary s = summarize(iota(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(percentile_label(99.9), "p99.9");
  EXPECT_EQ(percentile_label(50), "p50");
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,60) > b [20,40); root > c [70,90); second root d.
  const std::vector<Span> spans = {
      span("sim.run", 0, 100, -1),     span("core.a", 10, 60, 0),
      span("proto.b", 20, 40, 1),      span("core.c", 70, 90, 0),
      span("bench.d", 100, 130, -1),
  };
  const auto by_name = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("sim.run"), 30e-9);
  EXPECT_DOUBLE_EQ(by_name.at("core.a"), 30e-9);
  EXPECT_DOUBLE_EQ(by_name.at("proto.b"), 20e-9);
  EXPECT_DOUBLE_EQ(by_name.at("core.c"), 20e-9);
  const auto by_layer = self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 50e-9);
  // Self times partition the root spans' time exactly.
  double sum = 0;
  for (const auto& [layer, secs] : by_layer) sum += secs;
  EXPECT_NEAR(sum, root_time(spans), 1e-15);
  EXPECT_DOUBLE_EQ(root_time(spans), 130e-9);
  EXPECT_DOUBLE_EQ(total_time(spans, "core.a"), 50e-9);
}

TEST(Spans, RecorderNestsAndSharesTraceIds) {
  SpanRecorder rec;
  {
    ScopedSpan q(&rec, "bench.query", 7);
    { ScopedSpan e(&rec, "proto.encode", 7); }
    { ScopedSpan c(&rec, "core.query", 7); }
  }
  { ScopedSpan other(&rec, "sim.run_for"); }
  { ScopedSpan off(nullptr, "never.recorded"); }
  const auto& s = rec.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[1].trace_id, 7u);
  EXPECT_EQ(s[2].trace_id, 7u);
  EXPECT_EQ(s[3].trace_id, 0u);
  for (const Span& x : s) EXPECT_LE(x.start_ns, x.end_ns);
  std::ostringstream os;
  write_spans_jsonl(os, s);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line.rfind("{\"n\":\"bench.query\",\"s\":0,", 0), 0u) << line;
  std::getline(lines, line);
  EXPECT_NE(line.find("\"p\":0,\"t\":7}"), std::string::npos) << line;
}

TEST(Freshness, SampleIsTruthChangeToFirstAnswerNamingIt) {
  FreshnessTracker f(1);
  f.observe_truth(0, 0, 5);
  EXPECT_TRUE(f.pending(0));
  f.observe_answer(0, 100, FreshnessTracker::kNoRoom);  // not yet
  f.observe_answer(0, 200, 4);                          // wrong room
  f.observe_truth(0, 300, 5);                           // no change
  EXPECT_EQ(f.truth(0), 5);
  EXPECT_EQ(f.since(0), 0);
  f.observe_answer(0, 1'500'000'000, 5);
  EXPECT_FALSE(f.pending(0));
  ASSERT_EQ(f.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(f.samples()[0], 1.5);
  f.observe_answer(0, 2'000'000'000, 5);  // a closed transition stays closed
  EXPECT_EQ(f.samples().size(), 1u);
  EXPECT_EQ(f.censored(), 0u);
}

TEST(Freshness, OvertakenAndUnfinishedTransitionsAreCensored) {
  FreshnessTracker f(2);
  f.observe_truth(0, 0, 1);
  f.observe_truth(0, 10, 2);  // left room 1 before any answer: censored
  EXPECT_EQ(f.censored(), 1u);
  f.observe_answer(0, 20, 1);  // a stale answer for the old room
  EXPECT_TRUE(f.pending(0));
  f.observe_answer(0, 30, 2);
  ASSERT_EQ(f.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(f.samples()[0], 20e-9);

  f.observe_truth(1, 0, 3);
  f.observe_truth(1, 5, FreshnessTracker::kNoRoom);  // out of coverage
  EXPECT_EQ(f.censored(), 2u);
  EXPECT_FALSE(f.pending(1));  // no room to name: no open transition
  f.observe_truth(1, 7, 4);
  EXPECT_DOUBLE_EQ(f.censored_ratio(), 2.0 / 3.0);
  f.finish();  // still open at the end of the run
  EXPECT_EQ(f.censored(), 3u);
  EXPECT_FALSE(f.pending(1));
  EXPECT_EQ(f.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(f.censored_ratio(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(FreshnessTracker(1).censored_ratio(), 0.0);
}

TEST(Digest, StableAndOrderSensitive) {
  Digest a, b, c;
  a.add("history");
  a.add(std::uint64_t{42});
  b.add("history");
  b.add(std::uint64_t{42});
  c.add(std::uint64_t{42});
  c.add("history");
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_NE(a.hex(), c.hex());
  EXPECT_EQ(Digest().hex(), "cbf29ce484222325");
}

}  // namespace
}  // namespace perfbench
