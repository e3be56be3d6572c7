// serve-mix: a real `wbist serve` daemon (--worker-threads 2
// --serve-threads 4) driven over 4 persistent connections. An open-loop
// phase sends Poisson arrivals at a fixed rate of about half the daemon's
// capacity; a closed-loop phase then sends back to back on the same
// connections. Every response is checked against the in-process
// core::run_*_job output for the same request, computed after the timed
// phases.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/artifact_cache.h"
#include "core/service.h"
#include "serve/protocol.h"
#include "sim/sequence_io.h"
#include "util/json.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace core = wbist::core;
namespace util = wbist::util;
namespace serve = wbist::serve;

namespace {

struct Kind {
  const char* job;
  const char* circuit;
  int percent;
  std::size_t vectors;  ///< fault-sim sequence length (0 for other jobs)
  std::size_t pool;     ///< distinct seed-drawn sequences per fault-sim kind
  std::size_t inputs;   ///< the circuit's primary inputs (sequence width)
};

// info requests are pure daemon plumbing; tgen and fault-sim carry
// compaction and kernel work into the latency the client sees.
const Kind kMix[] = {
    {"info", "s298", 35, 0, 0, 0},
    {"fault-sim", "s1423", 35, 500, 64, 17},
    {"tgen", "s298", 15, 0, 0, 0},
    {"tgen", "s526", 10, 0, 0, 0},
    {"fault-sim", "s5378", 5, 200, 16, 35},
};
constexpr std::size_t kKinds = std::size(kMix);
constexpr int kConnections = 4;
constexpr double kOpenRate = 40;           // requests/s, ~half of capacity
constexpr std::size_t kOpenRequests = 1000;  // at least; p99 has 10 beyond
constexpr std::size_t kClosedRequests = 600;
constexpr int kDeadlineMs = 60000;
constexpr int kIoTimeoutMs = 60000;

struct Request {
  std::size_t kind = 0;
  std::size_t variant = 0;  ///< sequence pool index (fault-sim only)
  bool observe = false;
  int conn = 0;
  double due = 0;  ///< open loop: scheduled send, seconds from phase start
  std::string payload;
  // Filled in by the run.
  double sent = 0, done = 0;
  bool answered = false;
  std::string response;
};

std::string key_of(std::size_t kind, std::size_t variant) {
  std::string k = std::string(kMix[kind].job) + " " + kMix[kind].circuit;
  if (kMix[kind].pool != 0) k += " #" + std::to_string(variant);
  return k;
}

/// The seed-drawn inputs: sequence pools, and the two phases' requests.
struct Inputs {
  std::vector<std::vector<std::string>> sequences;  // [kind][variant]
  std::vector<Request> warmup, open, closed;
};

std::string payload_for(const Inputs& in, std::size_t kind,
                        std::size_t variant, bool observe) {
  const Kind& k = kMix[kind];
  std::string p = "{\"schema\":\"wbist.serve/1\",\"job\":\"" +
                  std::string(k.job) + "\",\"circuit\":\"" + k.circuit + "\"";
  if (k.pool != 0) {
    p += ",\"threads\":1,\"sequence\":";
    util::append_json_string(p, in.sequences[kind][variant]);
  }
  p += ",\"deadline_ms\":" + std::to_string(kDeadlineMs);
  if (observe) p += ",\"observe\":true";
  return p + "}";
}

/// `n` requests with exact per-kind counts (so every seed carries the same
/// amount of each kind of work), shuffled, on seed-drawn connections.
std::vector<Request> make_phase(const Inputs& in, std::size_t n,
                                util::Rng& rng, bool open) {
  std::vector<std::size_t> kinds;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::size_t c = k + 1 == kKinds
                              ? n - assigned
                              : (n * static_cast<std::size_t>(kMix[k].percent) +
                                 50) / 100;
    kinds.insert(kinds.end(), c, k);
    assigned += c;
  }
  for (std::size_t i = kinds.size(); i > 1; --i)
    std::swap(kinds[i - 1], kinds[rng.below(i)]);
  std::vector<Request> reqs(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.kind = kinds[i];
    r.variant = kMix[r.kind].pool == 0 ? 0 : rng.below(kMix[r.kind].pool);
    r.observe = i % 4 == 3;
    r.conn = static_cast<int>(rng.below(kConnections));
    if (open) {
      t += -std::log(1.0 - rng.next_double()) / kOpenRate;
      r.due = t;
    }
    r.payload = payload_for(in, r.kind, r.variant, r.observe);
  }
  return reqs;
}

Inputs make_inputs(std::uint64_t seed, double seconds, bool smoke) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
  Inputs in;
  in.sequences.resize(kKinds);
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t v = 0; v < kMix[k].pool; ++v) {
      std::string text = "# perfbench " + key_of(k, v) + "\n";
      for (std::size_t u = 0; u < kMix[k].vectors; ++u) {
        for (std::size_t i = 0; i < kMix[k].inputs; ++i)
          text += (rng.next_u64() & 1) != 0 ? '1' : '0';
        text += '\n';
      }
      in.sequences[k].push_back(std::move(text));
    }
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    Request r;
    r.kind = k;
    r.observe = true;
    r.payload = payload_for(in, k, 0, true);
    in.warmup.push_back(std::move(r));
  }
  in.open = make_phase(
      in,
      smoke ? 80
            : std::max(kOpenRequests,
                       static_cast<std::size_t>(kOpenRate * seconds)),
      rng, true);
  in.closed = make_phase(in, smoke ? 40 : kClosedRequests, rng, false);
  return in;
}

// -- daemon and connections -------------------------------------------------

class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

/// The running daemon's pid, for stop_children() in a signal handler.
std::atomic<pid_t> g_daemon_pid{-1};

/// A `wbist serve` child process. Construction returns once the daemon has
/// printed its `listening` line; destruction stops it if it still runs.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket,
         std::size_t flight_entries) {
    ::unlink(socket.c_str());
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    out_ = Fd(fds[0]);
    Fd write_end(fds[1]);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, write_end.get(), STDOUT_FILENO);
    const std::vector<std::string> args = {
        exe, "serve", "--socket", socket, "--worker-threads", "2",
        "--serve-threads", "4", "--flight-entries",
        std::to_string(flight_entries)};
    std::vector<char*> argv;
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int rc =
        ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + exe + ": " +
                               std::strerror(rc));
    }
    g_daemon_pid = pid_;
    write_end.reset();
    try {
      wait_until_listening();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  /// Reap the daemon after a `shutdown` request; true on a clean exit.
  bool wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    g_daemon_pid = -1;
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Block until the daemon says it listens; poll only bounds a daemon
  /// that never does.
  void wait_until_listening() {
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_.get(), POLLIN, 0};
      if (::poll(&p, 1, kIoTimeoutMs) <= 0)
        throw std::runtime_error("daemon did not start listening");
      char buf[256];
      const ssize_t n = ::read(out_.get(), buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("daemon exited before listening");
      line.append(buf, static_cast<std::size_t>(n));
    }
    if (line.find("listening") == std::string::npos)
      throw std::runtime_error("unexpected daemon output: " + line);
  }
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    wait();
  }

  pid_t pid_ = -1;
  Fd out_;  ///< kept open so the daemon never writes into a closed pipe
};

Fd connect_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) throw std::runtime_error("socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  return fd;
}

void send(int fd, const std::string& payload) {
  serve::write_frame(fd, payload, kIoTimeoutMs);
}

std::string receive(int fd) {
  std::string payload;
  const serve::ReadStatus st = serve::read_frame(
      fd, payload, {.idle_timeout_ms = kIoTimeoutMs,
                    .stall_timeout_ms = kIoTimeoutMs});
  if (st != serve::ReadStatus::kFrame)
    throw std::runtime_error("daemon closed or stalled the connection");
  return payload;
}

std::string round_trip(int fd, const std::string& payload) {
  send(fd, payload);
  return receive(fd);
}

// -- one pass ---------------------------------------------------------------

/// One span per answered request, from send to response, with the daemon's
/// observation of it attached when the request asked for one.
void log_requests(SpanLog& log, const std::vector<Request>& reqs,
                  Clock::time_point origin, int parent, bool open) {
  const auto at = [&](double s) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (!r.answered) continue;
    std::string args = "\"job\":" + util::json_quote(key_of(r.kind, r.variant));
    if (open)
      args += ",\"late_ms\":" + std::to_string((r.sent - r.due) * 1e3);
    const util::JsonValue doc = util::json_parse(r.response);
    if (const util::JsonValue* obs = doc.get("obs")) {
      for (const auto& [k, v] : member(*obs, "counters").as_object())
        args += "," + util::json_quote("obs." + k) + ":" +
                std::to_string(v.as_int());
      for (const util::JsonValue& sp : member(*obs, "spans").as_array())
        args += "," + util::json_quote("obs." + sp.get_string("name") + "_us") +
                ":" + std::to_string(sp.get_int("dur_us"));
    }
    log.add("serve.request", at(r.sent), at(r.done), parent,
            (open ? "open#" : "closed#") + std::to_string(i), r.conn + 1,
            args);
  }
}

struct Pass {
  std::vector<double> setup_s;
  double closed_s = 0;
  double rss_mib = 0;
  std::vector<Request> warmup, open, closed;
  util::JsonValue stats0, stats1;
  std::vector<util::JsonValue> flight;  ///< sim-job entries, oldest first
  std::size_t flight_warm = 0, flight_open = 0;  ///< entry counts after each
  std::int64_t flight_dropped = 0;  ///< entries the ring overwrote
  bool clean_exit = false;
};

/// The flight recorder's simulation-job entries, oldest first. The phase
/// boundaries index into them, so `dropped` must stay 0: the ring is sized
/// to hold every request of a pass.
std::vector<util::JsonValue> flight_entries(int fd, std::int64_t* dropped) {
  const util::JsonValue r =
      util::json_parse(round_trip(fd, "{\"job\":\"flight\"}"));
  const util::JsonValue& flight = member(r, "flight");
  *dropped = member(flight, "dropped").as_int();
  std::vector<util::JsonValue> out;
  for (const util::JsonValue& e : member(flight, "entries").as_array())
    if (e.get_string("job") != "flight" && e.get_string("job") != "stats")
      out.push_back(e);
  return out;
}

util::JsonValue stats(int fd) {
  return member(util::json_parse(round_trip(fd, "{\"job\":\"stats\"}")),
                "stats");
}

Pass run_pass(const Options& opt, const Inputs& in, SpanLog* log) {
  Pass pass;
  pass.open = in.open;
  pass.closed = in.closed;
  const std::string socket =
      opt.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: daemon start to its listening line, 4 connections, then one
  // warm-up request per request kind (which compiles every circuit into
  // the daemon's artifact cache). It is repeated before and after the
  // measured phases, so that one slow stretch of the host does not set the
  // median; the last daemon started before them serves the phases.
  // The flight ring holds every request of the pass and its scrapes.
  const std::size_t flight_size =
      in.warmup.size() + in.open.size() + in.closed.size() + 16;
  std::unique_ptr<Daemon> daemon;
  std::vector<Fd> conns;
  const auto setup = [&](int span) {
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.wbist_exe, socket, flight_size);
    for (int c = 0; c < kConnections; ++c)
      conns.push_back(connect_unix(socket));
    for (Request r : in.warmup) {
      const Clock::time_point s = Clock::now();
      r.response = round_trip(conns[0].get(), r.payload);
      r.answered = true;
      if (span >= 0)
        log->add("serve.warmup", s, Clock::now(), span, key_of(r.kind, 0));
      pass.warmup.push_back(std::move(r));
    }
    pass.setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  const auto stop = [&] {
    send(conns[0].get(), "{\"job\":\"shutdown\"}");
    receive(conns[0].get());
    conns.clear();
    const bool clean = daemon->wait();
    daemon.reset();
    return clean;
  };
  const int reps_before = opt.smoke ? 1 : 4, reps_after = opt.smoke ? 1 : 4;
  for (int rep = 0; rep < reps_before; ++rep) {
    if (daemon) stop();
    const int span = log != nullptr && rep + 1 == reps_before
                         ? log->begin("serve.setup")
                         : -1;
    setup(span);
    if (span >= 0) log->end(span);
  }
  pass.flight_warm =
      flight_entries(conns[0].get(), &pass.flight_dropped).size();
  pass.stats0 = stats(conns[0].get());

  // Open loop: one sender on the schedule; one reader per connection pops
  // the connection's oldest outstanding request (responses come in order).
  std::deque<std::size_t> inflight[kConnections];
  std::mutex mu[kConnections];
  std::size_t expected[kConnections] = {};
  for (const Request& r : pass.open) ++expected[r.conn];
  const Clock::time_point open0 = Clock::now();
  const int open_span = log ? log->begin("serve.open") : -1;
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      try {
        for (std::size_t k = 0; k < expected[c]; ++k) {
          std::string resp = receive(conns[c].get());
          const double t = seconds_between(open0, Clock::now());
          std::lock_guard<std::mutex> lk(mu[c]);
          if (inflight[c].empty())
            throw std::runtime_error("response without a request");
          Request& r = pass.open[inflight[c].front()];
          inflight[c].pop_front();
          r.done = t;
          r.response = std::move(resp);
          r.answered = true;
        }
      } catch (const std::exception&) {
        // Unanswered requests count as failed.
      }
    });
  }
  for (std::size_t i = 0; i < pass.open.size(); ++i) {
    Request& r = pass.open[i];
    std::this_thread::sleep_until(
        open0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(r.due)));
    {
      std::lock_guard<std::mutex> lk(mu[r.conn]);
      inflight[r.conn].push_back(i);
      r.sent = seconds_between(open0, Clock::now());
    }
    try {
      send(conns[r.conn].get(), r.payload);
    } catch (const std::exception&) {
      break;
    }
  }
  for (std::thread& t : readers) t.join();
  if (log) {
    log->end(open_span);
    log_requests(*log, pass.open, open0, open_span, true);
  }
  pass.flight_open =
      flight_entries(conns[0].get(), &pass.flight_dropped).size();

  // Closed loop: every connection sends its share back to back.
  const Clock::time_point closed0 = Clock::now();
  const int closed_span = log ? log->begin("serve.closed") : -1;
  readers.clear();
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      try {
        for (auto i = static_cast<std::size_t>(c); i < pass.closed.size();
             i += kConnections) {
          Request& r = pass.closed[i];
          r.conn = c;
          r.sent = seconds_between(closed0, Clock::now());
          r.response = round_trip(conns[c].get(), r.payload);
          r.done = seconds_between(closed0, Clock::now());
          r.answered = true;
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::thread& t : readers) t.join();
  pass.closed_s = seconds_between(closed0, Clock::now());
  if (log) {
    log->end(closed_span);
    log_requests(*log, pass.closed, closed0, closed_span, false);
  }

  pass.flight = flight_entries(conns[0].get(), &pass.flight_dropped);
  pass.stats1 = stats(conns[0].get());
  pass.rss_mib = peak_rss_mib(daemon->pid());
  pass.clean_exit = stop();
  for (int rep = 0; rep < reps_after; ++rep) {
    setup(-1);
    pass.clean_exit = stop() && pass.clean_exit;
  }
  return pass;
}

// -- checks -----------------------------------------------------------------

/// The in-process output for every distinct request (and each tgen
/// request's sequence text), keyed like key_of().
std::map<std::string, std::string> expected_outputs(const Inputs& in) {
  std::map<std::string, std::shared_ptr<const core::CompiledCircuit>> cc;
  for (const Kind& k : kMix)
    if (cc.count(k.circuit) == 0)
      cc[k.circuit] = core::CompiledCircuit::compile(registry_spec(k.circuit));
  struct Job {
    std::size_t kind, variant;
  };
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < kKinds; ++k)
    for (std::size_t v = 0; v < std::max<std::size_t>(kMix[k].pool, 1); ++v)
      jobs.push_back({k, v});
  std::vector<std::string> out(jobs.size()), seq_out(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      const Kind& k = kMix[jobs[i].kind];
      const core::CompiledCircuit& c = *cc[k.circuit];
      const std::string job = k.job;
      if (job == "info") {
        out[i] = core::info_report(c);
      } else if (job == "tgen") {
        const core::TgenJobResult r = core::run_tgen_job(c);
        out[i] = r.summary + "\n";
        seq_out[i] = r.sequence_text;
      } else {
        out[i] = core::run_fault_sim_job(
                     c,
                     wbist::sim::read_sequence(
                         in.sequences[jobs[i].kind][jobs[i].variant]),
                     1)
                     .output;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  std::map<std::string, std::string> m;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key = key_of(jobs[i].kind, jobs[i].variant);
    m[key] = out[i];
    if (!seq_out[i].empty()) m[key + " sequence"] = seq_out[i];
  }
  return m;
}

struct Checked {
  bool ok = false;
  bool cache_hit = false;
  util::JsonValue doc;
  const util::JsonValue* obs() const { return doc.get("obs"); }
};

/// Check one response against the in-process outputs and, at the default
/// seed, the goldens; records the operation.
Checked check(Result& res, const Request& r,
              const std::map<std::string, std::string>& expected,
              const util::JsonValue* golden, const std::string& label) {
  Checked c;
  if (!r.answered) {
    res.op(false, label + ": no response");
    return c;
  }
  c.doc = util::json_parse(r.response);
  const std::string key = key_of(r.kind, r.variant);
  const std::string seq_key = key + " sequence";
  const bool has_seq = expected.count(seq_key) != 0;
  const std::string output = c.doc.get_string("output");
  const std::string seq = c.doc.get_string("sequence");
  std::string why;
  if (!c.doc.get_bool("ok"))
    why = "not ok: " + c.doc.get_string("error");
  else if (output != expected.at(key) ||
           (has_seq && seq != expected.at(seq_key)))
    why = "differs from the in-process output";
  else if (golden != nullptr &&
           (output != golden->get_string(key) ||
            (has_seq && seq != golden->get_string(seq_key))))
    why = "differs from the golden";
  c.ok = why.empty();
  res.op(c.ok, label + " (" + key + "): " + why);
  if (const util::JsonValue* cache = c.doc.get("cache"))
    c.cache_hit = cache->get_bool("hit");
  return c;
}

/// A daemon counter's growth between the stats scrapes around the phases.
double counter_delta(const Pass& p, const std::string& name) {
  const auto value = [&](const util::JsonValue& s) {
    const util::JsonValue* c = s.get("counters");
    const util::JsonValue* v = c ? c->get(name) : nullptr;
    return v ? v->as_number() : 0.0;
  };
  return value(p.stats1) - value(p.stats0);
}

double p50(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.5);
}

/// p99 when at least 10 samples lie beyond it; smoke sizes fall back to the
/// maximum.
double p99(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double out = v.back();
  tail_percentile(v, 0.99, out);
  return out;
}

}  // namespace

void stop_children() {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) ::kill(pid, SIGTERM);
}

Result run_serve_mix(const Options& opt) {
  Result res;
  const Inputs in = make_inputs(opt.seed, opt.seconds, opt.smoke);
  const Pass plain = run_pass(opt, in, nullptr);
  SpanLog log;
  Pass traced;
  if (opt.trace) traced = run_pass(opt, in, &log);

  // Checks, after the timed phases.
  const int verify_span = opt.trace ? log.begin("serve.verify") : -1;
  const std::map<std::string, std::string> expected = expected_outputs(in);
  const std::string golden_path = opt.golden_dir + "/serve-mix.json";
  const bool at_golden_seed = opt.seed == kGoldenSeed && !opt.smoke;
  util::JsonValue golden_doc;
  if (at_golden_seed) golden_doc = util::json_parse(read_text(golden_path));
  const util::JsonValue* golden = at_golden_seed ? &golden_doc : nullptr;

  const Pass& p = opt.trace ? traced : plain;
  std::vector<OpenLoopSample> samples;
  std::vector<double> overhead_ms;
  std::size_t hits = 0, oks = 0;
  std::map<std::string, double> stage_s;  // observed tgen stage spans
  const auto tally = [&](const Checked& c) {
    if (!c.ok) return;
    ++oks;
    hits += c.cache_hit ? 1 : 0;
    if (c.obs() == nullptr) return;
    for (const util::JsonValue& s : member(*c.obs(), "spans").as_array())
      stage_s[s.get_string("name")] +=
          static_cast<double>(s.get_int("dur_us")) * 1e-6;
  };
  for (const Pass* pp : std::vector<const Pass*>{&plain, &traced}) {
    if (pp == &traced && !opt.trace) break;
    for (const Request& r : pp->warmup)
      check(res, r, expected, golden, "warm-up");
    for (std::size_t i = 0; i < pp->open.size(); ++i) {
      const Request& r = pp->open[i];
      const Checked c =
          check(res, r, expected, golden, "open #" + std::to_string(i));
      if (pp != &p) continue;
      samples.push_back({r.due, r.sent, r.done, c.ok});
      tally(c);
      if (c.ok && c.obs() != nullptr) {
        const util::JsonValue& k = member(*c.obs(), "counters");
        overhead_ms.push_back((r.done - r.sent) * 1e3 -
                              static_cast<double>(k.get_int("queue_wait_us") +
                                                  k.get_int("run_us")) *
                                  1e-3);
      }
    }
    for (std::size_t i = 0; i < pp->closed.size(); ++i) {
      const Checked c =
          check(res, pp->closed[i], expected, golden,
                "closed #" + std::to_string(i));
      if (pp == &p) tally(c);
    }
    if (!pp->clean_exit) res.problems.push_back("daemon did not exit cleanly");
    if (pp->flight_dropped != 0)
      res.problems.push_back("the flight recorder dropped " +
                             std::to_string(pp->flight_dropped) + " entries");
  }
  if (opt.trace) log.end(verify_span);

  const OpenLoopAccount acct = account_open_loop(samples);
  std::size_t closed_ok = 0;
  for (const Request& r : p.closed)
    if (r.answered && util::json_parse(r.response).get_bool("ok")) ++closed_ok;
  const double capacity = static_cast<double>(closed_ok) / p.closed_s;
  // The open-loop latencies are printed on every run but not gated: on
  // this host they move with its slow stretches more than a bound allows
  // (NOTES.md, "Deviations").
  const double lat50 = nearest_rank(acct.latency_ms, 0.5);
  double lat99 = acct.latency_ms.back();
  const bool p99_valid = tail_percentile(acct.latency_ms, 0.99, lat99);
  const std::string n = std::to_string(samples.size());
  res.line("latency_p50_ms", lat50, "ms", n + " open-loop requests");
  res.line("latency_p99_ms", lat99, "ms",
           p99_valid ? n + " open-loop requests"
                     : "the maximum: too few samples for p99");
  res.line("capacity_rps", capacity, "1/s",
           std::to_string(p.closed.size()) + " closed-loop requests on " +
               std::to_string(kConnections) + " connections");
  res.line("serve.gen_lag_ms.p99", nearest_rank(acct.lag_ms, 0.99), "ms");
  res.report.push_back(describe_samples("setup_s", p.setup_s, "s"));
  if (!opt.trace) {
    res.add("setup_s", median(p.setup_s));
    res.add("work_s", p.closed_s);
    res.add("peak_rss_mib", p.rss_mib);
    return res;
  }

  // Per-layer numbers from the traced pass.
  // Every set-up compiles each circuit once, in its warm-ups.
  std::vector<double> compile_s(p.setup_s.size(), 0.0);
  for (std::size_t i = 0; i < p.warmup.size(); ++i) {
    const util::JsonValue doc = util::json_parse(p.warmup[i].response);
    if (const util::JsonValue* obs = doc.get("obs"))
      for (const util::JsonValue& s : member(*obs, "spans").as_array())
        if (s.get_string("name") == "compile")
          compile_s[i / kKinds] +=
              static_cast<double>(s.get_int("dur_us")) * 1e-6;
  }
  std::vector<double> wait_open;
  std::map<std::string, std::vector<double>> run_ms;
  double closed_busy_ms = 0;
  for (std::size_t i = p.flight_warm; i < p.flight.size(); ++i) {
    const util::JsonValue& e = p.flight[i];
    const double run = static_cast<double>(e.get_int("run_us")) * 1e-3;
    if (i < p.flight_open)
      wait_open.push_back(static_cast<double>(e.get_int("queue_wait_us")) *
                          1e-3);
    else
      closed_busy_ms += run;
    run_ms[e.get_string("job")].push_back(run);
  }
  const util::JsonValue& cache = member(p.stats1, "cache");
  res.add("compile.s", median(compile_s));
  res.add("compile.mib",
          member(cache, "bytes").as_number() / (1 << 20));
  res.add("tgen.generate.s", stage_s["generate"]);
  res.add("tgen.compact.s", stage_s["compaction"]);
  for (const char* c : {"fault_sim.kernel_cycles", "fault_sim.gates_evaluated",
                        "fault_sim.traces", "fault_sim.trace_cycles"})
    res.add(c, counter_delta(p, c));
  const double kernel = counter_delta(p, "fault_sim.kernel_cycles");
  res.add("fault_sim.gates_per_kernel_cycle",
          kernel == 0 ? 0
                      : counter_delta(p, "fault_sim.gates_evaluated") / kernel);
  res.add("serve.queue_wait_ms.p50", p50(wait_open));
  res.add("serve.queue_wait_ms.p99", p99(wait_open));
  res.add("serve.run_ms.p50.info", p50(run_ms["info"]));
  res.add("serve.run_ms.p50.tgen", p50(run_ms["tgen"]));
  res.add("serve.run_ms.p50.fault-sim", p50(run_ms["fault-sim"]));
  res.add("serve.overhead_ms.p50", p50(overhead_ms));
  res.add("serve.busy_frac", closed_busy_ms * 1e-3 / (2.0 * p.closed_s));
  res.add("serve.cache_hit_frac",
          oks == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(oks));
  res.add("serve.rejected", counter_delta(p, "serve.jobs_rejected") +
                                counter_delta(p, "serve.conns_rejected"));
  res.add("serve.deadline_expired", counter_delta(p, "serve.deadline_expired"));
  res.add("serve.latency_p50_ms", lat50);
  res.add("serve.latency_p99_ms", lat99);
  res.add("serve.gen_lag_ms.p99", nearest_rank(acct.lag_ms, 0.99));
  res.add("trace.overhead_frac", traced.closed_s / plain.closed_s - 1.0);
  write_text(opt.trace_path, log.chrome_json("serve-mix"));
  return res;
}

}  // namespace perfbench
