#pragma once

// Helpers of the end-to-end benchmark that carry no knowledge of the
// workloads: latency statistics, the in-memory span tracer, the metric
// report, the reference check and the open-loop request generator.  They
// are header-only so the benchmark's self-test links exactly the code the
// benchmark runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Median with linear interpolation between the middle samples (0 when
/// empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it.
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

/// A tail latency together with the percentile it was read at and the
/// number of samples beyond it.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest nearest-rank percentile, at most `cap`, that leaves at least
/// `min_beyond` samples strictly above its rank.  With 1000 samples this is
/// p99; smaller samples fall back to a lower percentile, never below the
/// median.  Samples too few for even the median to have `min_beyond`
/// beyond it report the median with the true (short) count.
inline Tail tail_percentile(std::vector<double> v, double cap = 0.99,
                            std::size_t min_beyond = 10) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // The epsilon keeps e.g. 0.99 * 100 from rounding up to rank 100.
  const auto cap_rank = static_cast<std::size_t>(
      std::ceil(cap * static_cast<double>(n) - 1e-9));
  const std::size_t median_rank = (n + 1) / 2;
  std::size_t rank = n > min_beyond ? std::min(cap_rank, n - min_beyond) : 0;
  rank = std::max(rank, median_rank);
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.q = static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One traced interval: a call the benchmark made into a layer.
struct Span {
  std::string name;
  double t0 = 0.0;  ///< seconds since the tracer's origin
  double t1 = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  long long id = -1;      ///< step or request id shared by related spans
};

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per call, so the untraced runs execute the same code.  Spans are
/// kept until the run ends and written out then.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Seconds since the tracer was constructed.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Open a span nested in the innermost open one.  Returns its index, or
  /// -1 when disabled.
  int begin(const std::string& name, long long id = -1) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now(), 0.0, parent, id});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].t1 = now();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Record a span with explicit times (e.g. a request that became due
  /// before the generator could submit it).  Returns its index.
  int add(const std::string& name, double t0, double t1, int parent,
          long long id) {
    if (!enabled_) return -1;
    spans_.push_back({name, t0, t1, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, long long id = -1)
        : tracer_(t), index_(t.begin(name, id)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.end(index_); }

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; parts of a
/// child outside the parent do not count).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].t0;
    const double hi = spans[i].t1;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = lo;  // end of the union swept so far
    for (const auto& [a0, a1] : iv) {
      const double s0 = std::max(a0, reach);
      const double s1 = std::min(a1, hi);
      if (s1 > s0) covered += s1 - s0;
      reach = std::max(reach, std::min(a1, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Per-name aggregate of a trace.
struct SpanStats {
  std::vector<double> durations;
  double total_s = 0.0;
  double self_s = 0.0;
};

inline std::map<std::string, SpanStats> aggregate(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& a = out[spans[i].name];
    const double d = spans[i].t1 - spans[i].t0;
    a.durations.push_back(d);
    a.total_s += d;
    a.self_s += self[i];
  }
  return out;
}

/// The trace file: every span plus the per-name aggregate.
inline tealeaf::io::JsonValue trace_json(const std::vector<Span>& spans) {
  using tealeaf::io::JsonValue;
  const std::vector<double> self = self_times(spans);
  JsonValue list = JsonValue::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    JsonValue s = JsonValue::object();
    s.set("name", spans[i].name);
    s.set("t0", spans[i].t0);
    s.set("t1", spans[i].t1);
    s.set("parent", spans[i].parent);
    s.set("id", spans[i].id);
    s.set("self", self[i]);
    list.push_back(std::move(s));
  }
  JsonValue agg = JsonValue::object();
  for (const auto& [name, a] : aggregate(spans)) {
    JsonValue row = JsonValue::object();
    row.set("count", static_cast<long long>(a.durations.size()));
    row.set("total_s", a.total_s);
    row.set("self_s", a.self_s);
    row.set("median_s", median(a.durations));
    agg.set(name, std::move(row));
  }
  JsonValue doc = JsonValue::object();
  doc.set("spans", std::move(list));
  doc.set("by_name", std::move(agg));
  return doc;
}

// ---------------------------------------------------------------------------
// Metrics and the result line
// ---------------------------------------------------------------------------

/// Metric names are letters, digits, '_', '.' and '-', start with a letter
/// or digit, and are at most 64 characters.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion-independent (sorted) order.  `add` rejects an
/// invalid name, a duplicate or a non-finite value.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) {
      errors_.push_back("invalid metric name '" + name + "'");
      return;
    }
    if (!std::isfinite(value)) {
      errors_.push_back("metric " + name + " is not finite");
      return;
    }
    if (!metrics_.emplace(name, Metric{value, unit}).second) {
      errors_.push_back("metric " + name + " reported twice");
    }
  }

  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// The single-line result object.  %.17g keeps every digit.
  [[nodiscard]] std::string result_line(bool correct, long long attempted,
                                        long long failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics_) {
      if (!first) out += ", ";
      first = false;
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Output correctness
// ---------------------------------------------------------------------------

/// The final state of a workload's fields: the FieldSummary's two
/// conserved quantities plus, where the benchmark can read the fields, the
/// L2 norm of the temperature, which diffusion changes every step.
struct Observed {
  double avg_temp = 0.0;
  double ie = 0.0;
  double temp_l2 = -1.0;  ///< negative: not observed
};

/// Recorded values of a workload's final state and the relative tolerance
/// they must be matched within (temp_l2 < 0: not recorded).
struct Reference {
  double avg_temp = 0.0;
  double ie = 0.0;
  double temp_l2 = -1.0;
  double rel_tol = 0.0;
};

inline Reference reference_from_json(const tealeaf::io::JsonValue& entry) {
  Reference r;
  r.avg_temp = entry.at("avg_temp").as_number();
  r.ie = entry.at("ie").as_number();
  if (entry.contains("temp_l2")) r.temp_l2 = entry.at("temp_l2").as_number();
  r.rel_tol = entry.at("rel_tol").as_number();
  return r;
}

/// True when every recorded value is matched within the relative
/// tolerance; otherwise `why` names the first that is not.
inline bool matches_reference(const Observed& got, const Reference& ref,
                              std::string* why) {
  const auto check = [&](const char* name, double value, double want) {
    if (std::isfinite(value) &&
        std::fabs(value - want) <= ref.rel_tol * std::fabs(want)) {
      return true;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %.17g != reference %.17g", name, value,
                  want);
    if (why != nullptr) *why = buf;
    return false;
  };
  return check("avg_temp", got.avg_temp, ref.avg_temp) &&
         check("ie", got.ie, ref.ie) &&
         (ref.temp_l2 < 0.0 || check("temp_l2", got.temp_l2, ref.temp_l2));
}

// ---------------------------------------------------------------------------
// Open-loop request generation
// ---------------------------------------------------------------------------

/// Per-request timings of an open-loop phase, all measured from the time
/// the request was due (not from when the generator got round to it).
struct OpenLoopTimes {
  std::vector<double> latency;     ///< completion - due
  std::vector<double> queue_wait;  ///< drain start - due
  std::vector<double> late;        ///< submit - due (generator lateness)
};

/// Single-threaded open-loop generator: request i is due at `due[i]`
/// (seconds on the `now` clock, ascending).  The generator sleeps until the
/// next request is due, submits every request that is due by then, and
/// drains the server; a request that fell due while a drain ran waits for
/// that drain, and the wait counts against its latency.  `now`,
/// `sleep_until`, `submit(i)` and `drain(first, count)` are injected so the
/// timing rule can be tested with a fake clock.
template <class Now, class SleepUntil, class Submit, class Drain>
OpenLoopTimes run_open_loop(const std::vector<double>& due, Now&& now,
                            SleepUntil&& sleep_until, Submit&& submit,
                            Drain&& drain) {
  const std::size_t n = due.size();
  OpenLoopTimes t;
  t.latency.assign(n, 0.0);
  t.queue_wait.assign(n, 0.0);
  t.late.assign(n, 0.0);
  std::size_t next = 0;
  while (next < n) {
    if (due[next] > now()) sleep_until(due[next]);
    const std::size_t first = next;
    const double ready = now();
    while (next < n && due[next] <= ready) {
      t.late[next] = now() - due[next];
      submit(next);
      ++next;
    }
    const double start = now();
    drain(first, next - first);
    const double done = now();
    for (std::size_t i = first; i < next; ++i) {
      t.queue_wait[i] = start - due[i];
      t.latency[i] = done - due[i];
    }
  }
  return t;
}

}  // namespace perfbench
