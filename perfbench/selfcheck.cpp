// Self-checks for the benchmark's own statistics (`perfbench --self-check`,
// run by `run.py --self-check`). Expected values are worked by hand or, for
// quartiles, taken from Python's statistics.quantiles(v, n=4).
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-check FAILED: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void check_percentiles() {
  // Nearest rank: p99 of 1..1000 is the 990th value, with 10 beyond it.
  const std::vector<double> v1000 = iota(1000);
  expect_near(nearest_rank(v1000, 0.99), 990, "p99 of 1..1000");
  expect(samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  double p = 0;
  expect(tail_percentile(v1000, 0.99, p) && p == 990,
         "p99 reportable at n=1000");
  // One sample short: 999 samples leave only 9 beyond p99.
  const std::vector<double> v999 = iota(999);
  expect(samples_beyond(999, 0.99) == 9, "9 beyond p99 of 999");
  p = -1;
  expect(!tail_percentile(v999, 0.99, p) && p == -1,
         "p99 refused at n=999");
  expect(tail_percentile(v999, 0.98, p) && p == 980, "p98 at n=999");
  expect_near(nearest_rank(iota(5), 0.5), 3, "median rank of 5");
  expect_near(nearest_rank(iota(4), 0.5), 2, "p50 rank of 4");
  expect_near(nearest_rank(iota(1), 0.99), 1, "p99 of one sample");
  // Failures sort last as +inf and dominate the tail.
  std::vector<double> with_inf = iota(1000);
  for (std::size_t i = 985; i < 1000; ++i)
    with_inf[i] = std::numeric_limits<double>::infinity();
  expect(std::isinf(nearest_rank(with_inf, 0.99)),
         "15 failures in 1000 put p99 at +inf");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median");
  expect_near(median({5, 1, 3}), 3, "odd median");
}

void check_quartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles(iota(10));
  expect_near(q[0], 2.75, "q1 of 1..10");
  expect_near(q[1], 5.5, "q2 of 1..10");
  expect_near(q[2], 8.25, "q3 of 1..10");
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  q = quartiles({3, 1, 2});
  expect_near(q[0], 1.0, "q1 of 3 samples");
  expect_near(q[2], 3.0, "q3 of 3 samples");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
  q = quartiles({2, 1});
  expect_near(q[0], 0.75, "q1 of 2 samples");
  expect_near(q[1], 1.5, "q2 of 2 samples");
  expect_near(q[2], 2.25, "q3 of 2 samples");
  // statistics.quantiles([10.0, 10.5, 9.5, 11.0, 9.0], n=4)
  //   == [9.25, 10.0, 10.75]
  q = quartiles({10.0, 10.5, 9.5, 11.0, 9.0});
  expect_near(q[0], 9.25, "q1 of 5 samples");
  expect_near(q[2], 10.75, "q3 of 5 samples");
}

void check_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [60,70]; the first child has its own child [12,18].
  std::vector<SpanRecord> s(5);
  s[0] = {"root", 0, 100, -1, 0, "", ""};
  s[1] = {"a", 10, 30, 0, 0, "", ""};
  s[2] = {"b", 20, 50, 0, 0, "", ""};
  s[3] = {"c", 60, 70, 0, 0, "", ""};
  s[4] = {"a.1", 12, 18, 1, 0, "", ""};
  const std::vector<double> self = self_seconds(s);
  expect_near(self[0], 50e-9, "root self time counts overlap once");
  expect_near(self[1], 14e-9, "child self time minus grandchild");
  expect_near(self[2], 30e-9, "leaf self time");
  expect_near(self[4], 6e-9, "grandchild self time");
  // A child that spills past its parent is clipped to the parent.
  std::vector<SpanRecord> t(2);
  t[0] = {"p", 0, 10, -1, 0, "", ""};
  t[1] = {"k", 5, 15, 0, 0, "", ""};
  expect_near(self_seconds(t)[0], 5e-9, "spilling child clipped");
}

void check_open_loop() {
  // Request 1 is sent 5 ms late and answered 20 ms after it was due;
  // request 2 fails and counts as +inf.
  const std::vector<OpenLoopSample> samples = {
      {0.000, 0.000, 0.004, true},
      {0.010, 0.015, 0.030, true},
      {0.020, 0.020, 0.000, false},
      {0.030, 0.030, 0.033, true},
  };
  const OpenLoopAccount a = account_open_loop(samples);
  expect(a.latency_ms.size() == 4, "one latency per request");
  expect_near(a.latency_ms[0], 3, "fastest latency");
  expect_near(a.latency_ms[1], 4, "second latency");
  expect_near(a.latency_ms[2], 20, "late send charged from the due time");
  expect(std::isinf(a.latency_ms[3]), "failed request is +inf");
  expect_near(a.lag_ms[3], 5, "generator lag");
  expect_near(a.lag_ms[0], 0, "on-time send has no lag");
}

void check_chrome_trace() {
  SpanLog log;
  const int root = log.begin("flow", -1, "s27");
  const int kid = log.begin("tgen.generate", root, "s27");
  log.end(kid, "\"faults\":32");
  log.end(root);
  const std::string json = log.chrome_json("flow-table6");
  expect(json.find("\"schema\": \"wbist.trace/1\"") != std::string::npos,
         "trace carries the wbist.trace/1 schema");
  expect(json.find("\"ph\":\"X\"") != std::string::npos,
         "spans are complete events");
  expect(json.find("\"parent\":0") != std::string::npos &&
             json.find("\"faults\":32") != std::string::npos,
         "parent and args recorded");
}

}  // namespace

int run_self_checks() {
  g_failures = 0;
  check_percentiles();
  check_quartiles();
  check_self_time();
  check_open_loop();
  check_chrome_trace();
  return g_failures;
}

}  // namespace perfbench
