// The wbist benchmark binary. run.py builds it and invokes
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --golden-dir <dir>
//             --benchmark-json <file> [--commit <id>]
//             [--source-digest <hex>] [--smoke]
//   perfbench --self-check
//
// Human-readable lines come first; the last line of stdout is the JSON
// result. The exit code is non-zero when any output check failed.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/campaign_runner.h"
#include "sim/kernel.h"
#include "util/json.h"

extern char** environ;

namespace perfbench {
namespace {

/// The end-to-end metric (and workload) each per-layer metric should move.
/// BENCHMARK.json is the one list of metric names and units; every name
/// here must be one of its per-layer metrics and every per-layer metric
/// must be here, or the run stops before it measures anything.
const std::map<std::string, std::string> kMoves = {
    {"compile.s", "setup_s (all); work_s (campaign-fsim)"},
    {"compile.mib", "peak_rss_mib (campaign-fsim)"},
    {"tgen.generate.s", "work_s (flow-table6)"},
    {"tgen.compact.s", "work_s (flow-table6); latency_p99_ms (serve-mix)"},
    {"tgen.compact.sims", "exact"},
    {"tgen.compact.removed_per_sim", "useful per attempt"},
    {"tgen.compact.kernel_cycles", "work_s (flow-table6); exact"},
    {"core.procedure.s", "work_s (flow-table6)"},
    {"core.procedure.candidates", "exact"},
    {"core.procedure.full_sims", "exact"},
    {"core.procedure.sample_reject_frac", "useful per attempt"},
    {"core.procedure.keep_frac", "useful per attempt"},
    {"core.procedure.trace_cycles", "work_s (flow-table6); exact"},
    {"core.reverse_sim.s", "work_s (flow-table6)"},
    {"core.reverse_sim.keep_frac", "useful per attempt"},
    {"core.fsm_synth.s", "work_s (flow-table6)"},
    {"flow.self_s", "work_s (flow-table6)"},
    {"tgen.generate.fsim_s", "work_s (flow-table6)"},
    {"tgen.generate.other_s", "work_s (flow-table6)"},
    {"tgen.compact.fsim_s", "work_s (flow-table6)"},
    {"tgen.compact.other_s", "work_s (flow-table6)"},
    {"core.procedure.fsim_s", "work_s (flow-table6)"},
    {"core.procedure.other_s", "work_s (flow-table6)"},
    {"core.reverse_sim.fsim_s", "work_s (flow-table6)"},
    {"core.reverse_sim.other_s", "work_s (flow-table6)"},
    {"fault_sim.kernel_cycles", "work_s; exact"},
    {"fault_sim.gates_evaluated", "work_s; exact"},
    {"fault_sim.traces", "work_s; exact"},
    {"fault_sim.trace_cycles", "work_s; exact"},
    {"fault_sim.gates_per_kernel_cycle", "work_s (campaign-fsim)"},
    {"serve.latency_p50_ms", "the open-loop median (not gated)"},
    {"serve.latency_p99_ms", "the open-loop p99 (not gated)"},
    {"serve.queue_wait_ms.p50", "latency_p99_ms (serve-mix)"},
    {"serve.queue_wait_ms.p99", "latency_p99_ms (serve-mix)"},
    {"serve.run_ms.p50.info", "latency_p50_ms (serve-mix)"},
    {"serve.run_ms.p50.tgen", "latency_p50_ms (serve-mix)"},
    {"serve.run_ms.p50.fault-sim", "latency_p50_ms (serve-mix)"},
    {"serve.overhead_ms.p50", "latency_p50_ms (serve-mix)"},
    {"serve.busy_frac", "work_s (serve-mix)"},
    {"serve.cache_hit_frac", "latency_p50_ms (serve-mix)"},
    {"serve.rejected", "failed"},
    {"serve.deadline_expired", "failed"},
    {"serve.gen_lag_ms.p99", "validates the open loop"},
    {"campaign.worker_init_s", "work_s (campaign-fsim)"},
    {"campaign.shard_s.p50", "work_s (campaign-fsim)"},
    {"campaign.shard_s.max", "work_s (campaign-fsim)"},
    {"campaign.worker_busy_frac", "work_s (campaign-fsim)"},
    {"campaign.driver_s", "work_s (campaign-fsim)"},
    {"campaign.kernel_cycles", "work_s (campaign-fsim); exact"},
    {"campaign.trace_cycles", "work_s (campaign-fsim); exact"},
    {"campaign.shards_retried", "failed"},
    {"campaign.worker_deaths", "failed"},
    {"trace.overhead_frac", "traced vs untraced work_s"},
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string moves;
};

/// The end-to-end (`traced` false) or per-layer metrics BENCHMARK.json
/// declares, in its order. Throws when its per-layer list and kMoves
/// disagree.
std::vector<MetricDef> declared_metrics(const std::string& path, bool traced) {
  const wbist::util::JsonValue doc = wbist::util::json_parse(read_text(path));
  std::vector<MetricDef> out;
  for (const wbist::util::JsonValue& m :
       member(doc, traced ? "per_layer" : "end_to_end").as_array())
    out.push_back({m.get_string("name"), m.get_string("unit"), ""});
  if (!traced) return out;
  std::size_t annotated = 0;
  for (MetricDef& d : out) {
    const auto it = kMoves.find(d.name);
    if (it == kMoves.end())
      throw std::runtime_error(path + " declares " + d.name +
                               ", which main.cpp does not annotate");
    d.moves = it->second;
    ++annotated;
  }
  if (annotated != kMoves.size())
    throw std::runtime_error("main.cpp annotates per-layer metrics that " +
                             path + " does not declare");
  return out;
}

extern "C" void on_stop_signal(int sig) {
  stop_children();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <flow-table6|"
               "serve-mix|campaign-fsim> --seed N --seconds S --trace 0|1 "
               "--work-dir D --golden-dir D --benchmark-json F [--commit C] "
               "[--source-digest H] [--smoke]\n       perfbench --self-check\n",
               why);
  std::exit(2);
}

/// A JSON number with all its digits. JSON has no infinity; a latency that
/// is infinite because requests failed prints as the largest double.
std::string number(double v) {
  if (std::isnan(v)) v = 0;
  if (std::isinf(v)) v = std::copysign(1.7976931348623157e308, v);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string stamp_json(const std::string& commit, const std::string& digest) {
  std::string j = "{\"commit\":" + wbist::util::json_quote(commit) +
                  ",\"source_digest\":" + wbist::util::json_quote(digest) +
                  ",\"nproc\":" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\"kernel\":" +
                  wbist::util::json_quote(wbist::sim::active_kernel().name) +
                  ",\"compiler\":" +
                  wbist::util::json_quote(PERFBENCH_COMPILER) +
                  ",\"build_type\":" +
                  wbist::util::json_quote(PERFBENCH_BUILD_TYPE) + ",\"env\":{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WBIST_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    if (!first) j += ",";
    first = false;
    const std::string name(*e, static_cast<std::size_t>(eq - *e));
    j += wbist::util::json_quote(name) + ":" + wbist::util::json_quote(eq + 1);
  }
  return j + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown", digest = "unknown", benchmark_json;
  bool have_seed = false, have_trace = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--self-check") {
      const int failures = run_self_checks();
      std::printf("self-check: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    } else if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--golden-dir") {
      opt.golden_dir = value();
    } else if (a == "--benchmark-json") {
      benchmark_json = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--source-digest") {
      digest = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_trace || !have_seconds || opt.work_dir.empty() ||
      opt.golden_dir.empty() || benchmark_json.empty())
    usage("--seed, --seconds, --trace, --work-dir, --golden-dir and "
          "--benchmark-json are required");

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "flow-table6") run = run_flow_table6;
  if (opt.workload == "serve-mix") run = run_serve_mix;
  if (opt.workload == "campaign-fsim") run = run_campaign_fsim;
  if (run == nullptr)
    usage(("unknown workload '" + opt.workload + "'").c_str());

  // The program under test is built beside this binary.
  const std::string self = wbist::serve::self_exe_path(argv[0]);
  opt.wbist_exe = self.substr(0, self.rfind('/') + 1) + "wbist";
  opt.trace_path = opt.work_dir + "/" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".trace.json";

  std::printf("perfbench: workload %s seed %llu seconds %g trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " (smoke)" : "");
  std::printf("stamp %s\n", stamp_json(commit, digest).c_str());
  std::fflush(stdout);

  for (const int sig : {SIGINT, SIGTERM, SIGHUP})
    std::signal(sig, on_stop_signal);
  std::vector<MetricDef> declared;
  Result res;
  try {
    declared = declared_metrics(benchmark_json, opt.trace);
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : res.report)
    std::printf("  %s\n", line.c_str());
  std::printf("  failed_frac %.6g (%llu of %llu operations)\n",
              res.attempted == 0 ? 1.0
                                 : static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  for (const std::string& p : res.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

  // Every declared metric is printed: end-to-end ones must be reported,
  // a per-layer one a workload does not observe reads 0 and is marked n/a.
  // A reported metric that BENCHMARK.json does not declare is an error.
  std::map<std::string, double> got;
  for (const Metric& m : res.metrics) got[m.name] = m.value;
  std::string metrics;
  for (const MetricDef& d : declared) {
    const auto it = got.find(d.name);
    if (it == got.end() && !opt.trace) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   opt.workload.c_str(), d.name.c_str());
      return 1;
    }
    const double v = it == got.end() ? 0.0 : it->second;
    std::printf("  %-34s %14.6g %-11s %s%s%s\n", d.name.c_str(), v,
                d.unit.c_str(), it == got.end() ? "n/a " : "",
                d.moves.empty() ? "" : "-> ", d.moves.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += wbist::util::json_quote(d.name) + ": {\"value\": " +
               number(v) + ", \"unit\": " + wbist::util::json_quote(d.unit) +
               "}";
    if (it != got.end()) got.erase(it);
  }
  if (!got.empty()) {
    std::fprintf(stderr, "perfbench: %s reported %s, which %s does not "
                 "declare\n", opt.workload.c_str(), got.begin()->first.c_str(),
                 benchmark_json.c_str());
    return 1;
  }
  if (opt.trace) std::printf("  spans written to %s\n", opt.trace_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.correct() && res.attempted > 0 ? 0 : 1;
}
