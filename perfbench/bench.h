// Shared pieces of the wbist benchmark binary: run options, results, the
// in-memory span log, and the statistics every workload reports with.
//
// Spans are recorded by the benchmark itself, around its calls into the
// program's public functions; nothing inside src/ is instrumented for it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wbist::core {
struct CircuitSpec;
}
namespace wbist::util {
class JsonValue;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seconds-long sizes that still run every code path (self-test).
  bool smoke = false;
  std::string work_dir;    ///< working space (sockets, traces)
  std::string golden_dir;  ///< perfbench/goldens
  std::string wbist_exe;   ///< the `wbist` binary built beside perfbench
  std::string trace_path;  ///< where a traced run writes its spans
};

/// Outputs at this seed are compared with the committed goldens.
inline constexpr std::uint64_t kGoldenSeed = 1;

struct Metric {
  std::string name;
  double value = 0;
};

/// What one workload run reports: operation counts, failed checks, and the
/// metrics of the requested kind (end-to-end, or per-layer when traced);
/// BENCHMARK.json holds every metric's unit.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> report;

  /// One operation: counted as attempted, and as failed unless `ok`.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
  void add(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
  /// A human-readable "name value unit (note)" line.
  void line(const std::string& name, double value, const std::string& unit,
            const std::string& note = {});
  bool correct() const { return failed == 0 && problems.empty(); }
};

// -- spans ------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the log's origin
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into the log, -1 for a root
  int lane = 0;               ///< Chrome `tid`: one lane per client thread
  std::string id;             ///< circuit or request id
  std::string args_json;      ///< extra `args` members, already JSON
};

/// Spans kept in memory and written once, at exit, as a Chrome
/// `trace_event` document (schema wbist.trace/1). Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  int begin(std::string name, int parent = -1, std::string id = {},
            int lane = 0);
  void end(int span, std::string args_json = {});
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::string id = {}, int lane = 0,
          std::string args_json = {});

  std::vector<SpanRecord> snapshot() const;
  std::string chrome_json(const std::string& workload) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span over one call; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent = -1,
             std::string id = {})
      : log_(log),
        index_(log ? log->begin(std::move(name), parent, std::move(id)) : -1) {
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void close(std::string args_json = {}) {
    if (log_ != nullptr && index_ >= 0) log_->end(index_, std::move(args_json));
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int index_;
};

/// Self time of every span in seconds: its duration minus the part of its
/// interval that its children's intervals cover (overlapping children are
/// counted once).
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

// -- statistics -------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank ceil(q * n).
double nearest_rank(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank percentile that reports only when at least `min_beyond`
/// samples lie beyond it; otherwise returns false and leaves `out` alone.
bool tail_percentile(const std::vector<double>& sorted, double q,
                     double& out, std::size_t min_beyond = 10);

double median(std::vector<double> v);

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) (the
/// 'exclusive' method) computes them. Needs at least two samples.
std::array<double, 3> quartiles(std::vector<double> v);

/// "name median M unit (n=N, quartiles Q1..Q3)": a repeated measurement
/// and its spread within the run.
std::string describe_samples(const std::string& name,
                             const std::vector<double>& v,
                             const std::string& unit);

/// One open-loop request as the generator saw it, in seconds since the
/// phase started. `done` is meaningless when !ok.
struct OpenLoopSample {
  double due = 0;
  double sent = 0;
  double done = 0;
  bool ok = false;
};

/// Latency from the *scheduled* send time (so a stalled generator or
/// connection charges the wait to every request it delays), with failed
/// requests as +infinity; and how late the generator sent each request.
struct OpenLoopAccount {
  std::vector<double> latency_ms;  ///< sorted ascending, +inf for failures
  std::vector<double> lag_ms;      ///< sorted ascending
};
OpenLoopAccount account_open_loop(const std::vector<OpenLoopSample>& samples);

// -- host and process facts -------------------------------------------------

/// VmHWM of `pid` (0 = this process) in MiB, or 0 when unreadable.
double peak_rss_mib(int pid = 0);

/// Largest max-RSS among waited-for children, in MiB.
double children_peak_rss_mib();

/// Read a whole file; throws std::runtime_error when it cannot.
std::string read_text(const std::string& path);
void write_text(const std::string& path, const std::string& text);

/// FNV-1a 64 of `text` as 16 hex digits.
std::string digest_hex(const std::string& text);

/// `v[key]`; throws std::runtime_error naming the key when it is absent, so
/// a malformed reply from the program fails the run instead of crashing it.
const wbist::util::JsonValue& member(const wbist::util::JsonValue& v,
                                     const char* key);

/// The spec of a registry circuit (circuits::registry name).
wbist::core::CircuitSpec registry_spec(const std::string& name);

// -- workloads --------------------------------------------------------------

Result run_flow_table6(const Options& opt);
Result run_serve_mix(const Options& opt);
/// Async-signal-safe: sends SIGTERM to a serve-mix daemon that is running,
/// so that a benchmark stopped by a signal leaves no daemon behind.
/// (Campaign workers exit by themselves when their driver's socket closes.)
void stop_children();
Result run_campaign_fsim(const Options& opt);

/// The statistics self-checks; returns the number of failures.
int run_self_checks();

}  // namespace perfbench
