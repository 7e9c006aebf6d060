// Self-test of the benchmark's own arithmetic: the tail-percentile rule,
// open-loop latency measured from the due time, span self time, metric
// names, the result line and the reference check.
//
//   perfbench_selftest <path to perfbench/reference.json>
//
// Prints one line per failed expectation and exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.hpp"

namespace {

namespace pb = perfbench;
int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_percentile() {
  const pb::Tail p99 = pb::tail_percentile(one_to(1000));
  expect(near(p99.q, 0.99) && p99.value == 990.0 && p99.beyond == 10,
         "1000 samples give p99 with 10 beyond");
  const pb::Tail p90 = pb::tail_percentile(one_to(100));
  expect(near(p90.q, 0.90) && p90.value == 90.0 && p90.beyond == 10,
         "100 samples fall back to p90 with 10 beyond");
  for (int n = 21; n <= 2000; ++n) {
    const pb::Tail t = pb::tail_percentile(one_to(n));
    const auto rank = static_cast<int>(std::lround(t.q * n));
    const int p99_rank = static_cast<int>(std::ceil(0.99 * n - 1e-9));
    // At least 10 beyond, never above p99, and the highest such rank.
    if (t.beyond < 10 || rank > p99_rank ||
        (rank != p99_rank && t.beyond != 10) ||
        t.value != static_cast<double>(rank)) {
      expect(false, "n=" + std::to_string(n) + " breaks the tail rule");
      break;
    }
  }
  const pb::Tail small = pb::tail_percentile(one_to(5));
  expect(small.value == 3.0 && small.beyond == 2,
         "too few samples report the median with the true count");
  expect(pb::nearest_rank(one_to(10), 0.5) == 5.0, "nearest-rank median");
  expect(pb::median(one_to(10)) == 5.5, "interpolated median");
}

void test_open_loop_from_due_time() {
  // Fake clock: every drain takes 1 s; sleeping jumps to the due time.
  double clock = 0.0;
  std::vector<std::size_t> submitted;
  const std::vector<double> due = {0.0, 0.1, 0.2, 5.0};
  const pb::OpenLoopTimes t = pb::run_open_loop(
      due, [&] { return clock; }, [&](double until) { clock = until; },
      [&](std::size_t i) { submitted.push_back(i); },
      [&](std::size_t, std::size_t) { clock += 1.0; });
  expect(submitted.size() == 4, "every request submitted");
  // Request 1 fell due at 0.1 while request 0's drain ran until 1.0; it is
  // submitted at 1.0 and completes at 2.0.  Its latency counts from 0.1.
  expect(near(t.latency[0], 1.0), "first request latency");
  expect(near(t.latency[1], 1.9), "latency counts from the due time");
  expect(near(t.latency[2], 1.8), "latency counts from the due time (2)");
  expect(near(t.queue_wait[1], 0.9), "queue wait counts from the due time");
  expect(near(t.late[1], 0.9), "generator lateness is submit - due");
  // The generator idles until request 3 is due: no lateness, 1 s latency.
  expect(near(t.late[3], 0.0) && near(t.latency[3], 1.0),
         "on-time request after an idle gap");
}

void test_self_time() {
  std::vector<pb::Span> spans;
  spans.push_back({"parent", 0.0, 10.0, -1, 1});
  spans.push_back({"a", 1.0, 3.0, 0, 1});
  spans.push_back({"b", 2.0, 5.0, 0, 1});    // overlaps a: union [1, 5]
  spans.push_back({"c", 8.0, 12.0, 0, 1});   // runs past the parent's end
  spans.push_back({"a.child", 1.5, 2.5, 1, 1});
  const std::vector<double> self = pb::self_times(spans);
  expect(near(self[0], 10.0 - 4.0 - 2.0), "parent self time");
  expect(near(self[1], 2.0 - 1.0), "nested self time");
  expect(near(self[2], 3.0) && near(self[3], 4.0), "leaf self time");
  const auto agg = pb::aggregate(spans);
  expect(agg.at("a").durations.size() == 1 &&
             near(agg.at("parent").self_s, 4.0),
         "aggregate by name");
  // A traced scope nests under the open span; a disabled tracer records
  // nothing.
  pb::Tracer tr(true);
  {
    pb::Tracer::Scope outer(tr, "outer", 7);
    pb::Tracer::Scope inner(tr, "inner", 7);
  }
  expect(tr.spans().size() == 2 && tr.spans()[1].parent == 0 &&
             tr.spans()[0].t1 >= tr.spans()[1].t1,
         "scoped spans nest");
  pb::Tracer off(false);
  { pb::Tracer::Scope s(off, "x"); }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

void test_metric_names() {
  for (const char* ok : {"setup_s", "solvers.run_s", "op_p99_s", "a-b.c_9",
                         "0x"}) {
    expect(pb::valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".lead", "_lead", "has space", "x/y", "p99%",
                          "ünits"}) {
    expect(!pb::valid_metric_name(bad), std::string("invalid name ") + bad);
  }
  expect(!pb::valid_metric_name(std::string(65, 'a')), "65 characters");
  pb::Report r;
  r.add("ok.metric_s", 1.25, "s");
  r.add("bad name", 1.0, "s");
  r.add("ok.metric_s", 2.0, "s");
  r.add("nan_s", std::nan(""), "s");
  expect(r.metrics().size() == 1 && r.errors().size() == 3,
         "report rejects bad names, duplicates and non-finite values");
  const tealeaf::io::JsonValue line =
      tealeaf::io::JsonValue::parse(r.result_line(true, 3, 0));
  expect(line.members().size() == 4 && line.at("correct").as_bool() &&
             line.at("attempted").as_number() == 3.0 &&
             line.at("metrics").at("ok.metric_s").at("value").as_number() ==
                 1.25 &&
             line.at("metrics").at("ok.metric_s").at("unit").as_string() == "s",
         "result line shape");
}

void test_reference_check(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const tealeaf::io::JsonValue doc = tealeaf::io::JsonValue::parse(buf.str());
  expect(doc.members().size() == 3, "reference.json has three entries");
  for (const auto& [key, entry] : doc.members()) {
    const pb::Reference ref = pb::reference_from_json(entry);
    expect(ref.rel_tol > 0.0 && ref.rel_tol < 1e-6 && ref.ie > 0.0,
           key + ": tolerance and values are set");
    pb::Observed fs{ref.avg_temp, ref.ie,
                    ref.temp_l2 < 0.0 ? 1.0 : ref.temp_l2};
    std::string why;
    expect(pb::matches_reference(fs, ref, &why), key + ": exact match passes");
    pb::Reference bad = ref;
    bad.avg_temp *= 1.0 + 100.0 * ref.rel_tol;
    expect(!pb::matches_reference(fs, bad, &why) &&
               why.find("avg_temp") != std::string::npos,
           key + ": corrupted avg_temp trips the check");
    bad = ref;
    bad.ie *= 1.0 - 100.0 * ref.rel_tol;
    expect(!pb::matches_reference(fs, bad, &why) &&
               why.find("ie") != std::string::npos,
           key + ": corrupted ie trips the check");
    if (ref.temp_l2 >= 0.0) {
      bad = ref;
      bad.temp_l2 *= 1.0 + 100.0 * ref.rel_tol;
      expect(!pb::matches_reference(fs, bad, &why) &&
                 why.find("temp_l2") != std::string::npos,
             key + ": corrupted temp_l2 trips the check");
    }
    fs.ie = std::nan("");
    expect(!pb::matches_reference(fs, ref, &why),
           key + ": NaN trips the check");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <reference.json>\n");
    return 2;
  }
  test_tail_percentile();
  test_open_loop_from_due_time();
  test_self_time();
  test_metric_names();
  test_reference_check(argv[1]);
  std::printf("perfbench self-test: %s (%d failure%s)\n",
              failures == 0 ? "ok" : "FAILED", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
