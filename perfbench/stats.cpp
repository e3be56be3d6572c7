#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/artifact_cache.h"
#include "util/json.h"

namespace perfbench {

int SpanLog::begin(std::string name, int parent, std::string id, int lane) {
  const std::int64_t t = ns(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), t, t, parent, lane, std::move(id), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span, std::string args_json) {
  const std::int64_t t = ns(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.at(static_cast<std::size_t>(span)).end_ns = t;
  spans_[static_cast<std::size_t>(span)].args_json = std::move(args_json);
}

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, std::string id, int lane,
                 std::string args_json) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), ns(start), ns(end), parent, lane,
                    std::move(id), std::move(args_json)});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

namespace {

void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string SpanLog::chrome_json(const std::string& workload) const {
  const std::vector<SpanRecord> spans = snapshot();
  std::string out = "{\n\"schema\": \"wbist.trace/1\",\n";
  out += "\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"source\": \"perfbench\", \"workload\": ";
  wbist::util::append_json_string(out, workload);
  out += ", \"events\": " + std::to_string(spans.size()) +
         ", \"dropped_events\": 0},\n\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":";
    wbist::util::append_json_string(out, s.name);
    out += ",\"ph\":\"X\",\"ts\":";
    append_us(out, s.start_ns);
    out += ",\"dur\":";
    append_us(out, std::max<std::int64_t>(s.end_ns - s.start_ns, 0));
    out += ",\"pid\":1,\"tid\":" + std::to_string(s.lane) +
           ",\"args\":{\"span\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent);
    if (!s.id.empty()) {
      out += ",\"id\":";
      wbist::util::append_json_string(out, s.id);
    }
    if (!s.args_json.empty()) out += "," + s.args_json;
    out += "}}";
  }
  out += spans.empty() ? "]\n}\n" : "\n]\n}\n";
  return out;
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
  }
  return self;
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool tail_percentile(const std::vector<double>& sorted, double q, double& out,
                     std::size_t min_beyond) {
  if (samples_beyond(sorted.size(), q) < min_beyond) return false;
  out = nearest_rank(sorted, q);
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1, n = 4;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

void Result::line(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.6g ", value);
  report.push_back(name + buf + unit + (note.empty() ? "" : " (" + note + ")"));
}

std::string describe_samples(const std::string& name,
                             const std::vector<double>& v,
                             const std::string& unit) {
  char buf[160];
  if (v.size() < 2) {
    std::snprintf(buf, sizeof buf, " %.6g %s (n=%zu)", v.empty() ? 0.0 : v[0],
                  unit.c_str(), v.size());
  } else {
    const std::array<double, 3> q = quartiles(v);
    std::snprintf(buf, sizeof buf,
                  " median %.6g %s (n=%zu, quartiles %.6g..%.6g)", median(v),
                  unit.c_str(), v.size(), q[0], q[2]);
  }
  return name + buf;
}

OpenLoopAccount account_open_loop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopAccount a;
  a.latency_ms.reserve(samples.size());
  a.lag_ms.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    a.latency_ms.push_back(s.ok ? (s.done - s.due) * 1e3
                                : std::numeric_limits<double>::infinity());
    a.lag_ms.push_back(std::max(0.0, s.sent - s.due) * 1e3);
  }
  std::sort(a.latency_ms.begin(), a.latency_ms.end());
  std::sort(a.lag_ms.begin(), a.lag_ms.end());
  return a;
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double children_peak_rss_mib() {
  rusage ru{};
  if (::getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

std::string digest_hex(const std::string& text) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(wbist::core::fnv1a64(text)));
  return buf;
}

const wbist::util::JsonValue& member(const wbist::util::JsonValue& v,
                                     const char* key) {
  const wbist::util::JsonValue* m = v.get(key);
  if (m == nullptr)
    throw std::runtime_error(std::string("reply has no \"") + key + "\"");
  return *m;
}

wbist::core::CircuitSpec registry_spec(const std::string& name) {
  wbist::core::CircuitSpec spec;
  spec.registry_name = name;
  return spec;
}

}  // namespace perfbench
