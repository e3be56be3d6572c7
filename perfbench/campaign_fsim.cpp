// campaign-fsim: serve::run_campaign drives real `wbist campaign-worker`
// processes (2 workers x 1 worker thread, default sharding) to simulate
// s38417's collapsed fault list against a seed-drawn 1000-vector random
// sequence. The kernel does nearly all the work here, over long runs of a
// huge fault list; compaction, the procedure and the daemon do none.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "bench.h"
#include "circuits/registry.h"
#include "core/artifact_cache.h"
#include "core/campaign.h"
#include "fault/fault_list.h"
#include "fault/fault_sim.h"
#include "serve/campaign_runner.h"
#include "sim/sequence_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {

namespace core = wbist::core;
namespace fault = wbist::fault;
namespace util = wbist::util;

namespace {

constexpr std::size_t kSampleFaults = 2048;

struct Size {
  const char* circuit;
  std::size_t vectors;
};

/// The same text `wbist campaign <c> --random-cycles N --seed S` simulates.
std::string random_sequence_text(std::size_t cycles, std::size_t width,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::string text;
  text.reserve(cycles * (width + 1));
  for (std::size_t u = 0; u < cycles; ++u) {
    for (std::size_t i = 0; i < width; ++i)
      text += (rng.next_u64() & 1) != 0 ? '1' : '0';
    text += '\n';
  }
  return text;
}

struct WorkerTrace {
  double init_s = 0;     ///< init frame to first shard (compile + trace)
  double compile_s = 0;  ///< the compile_circuit span
  std::vector<std::pair<double, double>> shards;  ///< (start, dur) seconds
};

/// Shard and init timings from the Chrome traces the workers write under
/// CampaignOptions::trace_dir.
std::vector<WorkerTrace> read_worker_traces(const std::string& dir) {
  std::vector<WorkerTrace> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  std::vector<std::string> files;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("worker-", 0) == 0) files.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    WorkerTrace w;
    const util::JsonValue doc = util::json_parse(read_text(f));
    double first_shard = -1;
    for (const util::JsonValue& e : member(doc, "traceEvents").as_array()) {
      if (e.get_string("ph") != "X") continue;
      const double ts = member(e, "ts").as_number() * 1e-6;
      const double dur = member(e, "dur").as_number() * 1e-6;
      const std::string name = e.get_string("name");
      if (name == "compile_circuit") w.compile_s += dur;
      if (name == "campaign.shard") {
        w.shards.emplace_back(ts, dur);
        if (first_shard < 0 || ts < first_shard) first_shard = ts;
      }
    }
    w.init_s = std::max(first_shard, 0.0);
    out.push_back(std::move(w));
    ::unlink(f.c_str());
  }
  return out;
}

struct Pass {
  wbist::serve::CampaignOutcome outcome;
  double wall_s = 0;
  std::vector<WorkerTrace> workers;
};

Pass run_pass(const Options& opt, const Size& size, std::size_t faults,
              const std::string& seq_text, SpanLog* log, int parent) {
  wbist::serve::CampaignOptions co;
  co.worker_exe = opt.wbist_exe;
  co.workers = 2;
  co.worker_threads = 1;
  const std::string tag =
      opt.work_dir + "/campaign-" + std::to_string(::getpid());
  co.checkpoint_path = tag + ".jsonl";
  ::unlink(co.checkpoint_path.c_str());
  if (log != nullptr) {
    co.trace_dir = tag + "-traces";
    ::mkdir(co.trace_dir.c_str(), 0777);
  }
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.outcome = wbist::serve::run_campaign(registry_spec(size.circuit),
                                            size.circuit, faults, seq_text,
                                            size.vectors, co);
  const Clock::time_point t1 = Clock::now();
  pass.wall_s = seconds_between(t0, t1);
  ::unlink(co.checkpoint_path.c_str());
  if (log != nullptr) {
    const int span = log->add("campaign", t0, t1, parent, size.circuit);
    pass.workers = read_worker_traces(co.trace_dir);
    ::rmdir(co.trace_dir.c_str());
    // Worker clocks start at their init frame, a spawn away from t0.
    for (std::size_t w = 0; w < pass.workers.size(); ++w)
      for (const auto& [start, dur] : pass.workers[w].shards) {
        const auto at = [&](double s) {
          return t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(s));
        };
        log->add("campaign.shard", at(start), at(start + dur), span,
                 "worker " + std::to_string(w), static_cast<int>(w) + 1);
      }
  }
  return pass;
}

}  // namespace

Result run_campaign_fsim(const Options& opt) {
  Result res;
  const Size size = opt.smoke ? Size{"s1423", 200} : Size{"s38417", 1000};
  SpanLog log;
  const int root = opt.trace ? log.begin("campaign-fsim") : -1;

  // Set-up, as the campaign driver does it: netlist, collapsed fault list,
  // and the seed-drawn sequence. It is repeated before and after the
  // campaigns and the median reported, so that one slow stretch of the
  // host does not set it.
  std::vector<double> setup_s;
  std::size_t faults = 0;
  std::string seq_text;
  const auto setup = [&] {
    ScopedSpan span(opt.trace ? &log : nullptr, "campaign.setup", root);
    const Clock::time_point t0 = Clock::now();
    const wbist::netlist::Netlist nl =
        wbist::circuits::circuit_by_name(size.circuit);
    faults = fault::FaultSet::collapsed(nl, fault::CollapseMode::kEquivalence)
                 .size();
    seq_text = random_sequence_text(size.vectors, nl.primary_inputs().size(),
                                    opt.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  const int reps = opt.smoke ? 1 : 8;
  for (int rep = 0; rep < reps; ++rep) setup();

  // Whole campaigns until --seconds have passed.
  std::vector<Pass> passes;
  std::vector<double> wall_s;
  const Clock::time_point m0 = Clock::now();
  do {
    passes.push_back(run_pass(opt, size, faults, seq_text, nullptr, -1));
    wall_s.push_back(passes.back().wall_s);
  } while (seconds_between(m0, Clock::now()) < opt.seconds);
  const double work_s = median(wall_s);
  // The campaign driver's peak, before the checks below compile the circuit
  // in-process.
  const double driver_rss_mib = peak_rss_mib();
  Pass traced;
  if (opt.trace) traced = run_pass(opt, size, faults, seq_text, &log, root);

  for (int rep = 0; rep < reps; ++rep) setup();

  // Checks: shard accounting, a seed-drawn sample against an in-process
  // FaultSimulator::run, and the result digest at the default seed.
  ScopedSpan verify(opt.trace ? &log : nullptr, "campaign.verify", root);
  const auto cc = core::CompiledCircuit::compile(registry_spec(size.circuit));
  const fault::FaultSimulator sim(cc->netlist(), cc->faults(), cc->cones());
  const fault::GoodTrace good =
      sim.make_trace(wbist::sim::read_sequence(seq_text));
  util::Rng rng(opt.seed ^ 0xca3fa1a5ULL);
  std::vector<fault::FaultId> sample;
  for (std::size_t i = 0; i < std::min(kSampleFaults, faults); ++i)
    sample.push_back(static_cast<fault::FaultId>(rng.below(faults)));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  fault::FaultSimOptions fo;
  fo.threads = 1;  // as the workers run
  const fault::DetectionResult det = sim.run(good, sample, fo);

  const bool golden = opt.seed == kGoldenSeed && !opt.smoke;
  const std::string golden_digest =
      golden ? util::json_parse(
                   read_text(opt.golden_dir + "/campaign-fsim.json"))
                   .get_string("digest")
             : "";
  std::vector<const Pass*> checked;
  for (const Pass& p : passes) checked.push_back(&p);
  if (opt.trace) checked.push_back(&traced);
  for (const Pass* p : checked) {
    const wbist::serve::CampaignOutcome& o = p->outcome;
    const core::FaultSimResult& r = o.result;
    const std::vector<core::Shard> plan =
        core::plan_shards(faults, o.shards_total == 0 ? 1 : o.shards_total);
    std::vector<std::string> why(plan.size());
    if (!o.complete || r.total() != faults)
      why.assign(plan.size(), "the campaign is incomplete");
    for (std::size_t k = 0; k < sample.size() && r.total() == faults; ++k) {
      const fault::FaultId f = sample[k];
      if (r.detection_time[f] == det.detection_time[k] &&
          r.detecting_line[f] == det.detecting_line[k])
        continue;
      for (std::size_t sh = 0; sh < plan.size(); ++sh)
        if (f >= plan[sh].begin && f < plan[sh].end)
          why[sh] = "fault " + std::to_string(f) +
                    " differs from the in-process FaultSimulator::run";
    }
    const std::string digest =
        digest_hex(core::render_fault_sim_result_json(r));
    if (golden && digest != golden_digest) {
      why.assign(plan.size(), "result digest " + digest +
                                  " differs from the golden " + golden_digest);
    }
    for (std::size_t sh = 0; sh < plan.size(); ++sh)
      res.op(why[sh].empty(), "shard " + std::to_string(sh) + ": " + why[sh]);
    // A retried shard counts as failed even when its retry succeeded.
    if (o.shards_retried != 0) {
      res.failed = std::min(res.failed + o.shards_retried, res.attempted);
      res.problems.push_back(std::to_string(o.shards_retried) +
                             " shard(s) retried");
    }
  }
  verify.close();

  const double fv =
      static_cast<double>(faults) * static_cast<double>(size.vectors);
  res.line("fsim_mfv_per_s", fv / work_s * 1e-6, "1e6/s",
           std::string(size.circuit) + ": " + std::to_string(faults) +
               " faults x " + std::to_string(size.vectors) + " vectors, " +
               std::to_string(passes.front().outcome.shards_total) +
               " shards, median of " + std::to_string(passes.size()) +
               " campaign(s)");

  res.report.push_back(describe_samples("setup_s", setup_s, "s"));
  if (!opt.trace) {
    res.add("setup_s", median(setup_s));
    res.add("work_s", work_s);
    res.add("peak_rss_mib", std::max(driver_rss_mib, children_peak_rss_mib()));
    return res;
  }

  // The workers publish kernel cycles but no gate counts, so every shard
  // runs again in-process with the calls and thread count a worker uses:
  // the same fault groups, so the same kernel cycles as the campaign's.
  const auto counter = [](const char* name) {
    return util::metrics().counter(name).value();
  };
  const std::uint64_t kernel0 = counter("fault_sim.kernel_cycles");
  const std::uint64_t gates0 = counter("fault_sim.gates_evaluated");
  for (const core::Shard& sh : core::plan_shards(
           faults, std::max<std::size_t>(traced.outcome.shards_total, 1))) {
    std::vector<fault::FaultId> ids;
    for (std::size_t f = sh.begin; f < sh.end; ++f)
      ids.push_back(static_cast<fault::FaultId>(f));
    ScopedSpan replay(&log, "campaign.shard_replay", root,
                      "shard " + std::to_string(sh.index));
    sim.run(good, ids, fo);
  }
  const std::uint64_t kernel = counter("fault_sim.kernel_cycles") - kernel0;
  const std::uint64_t gates = counter("fault_sim.gates_evaluated") - gates0;
  res.op(kernel == traced.outcome.kernel_cycles,
         "the in-process shard replay took " + std::to_string(kernel) +
             " kernel cycles, the campaign " +
             std::to_string(traced.outcome.kernel_cycles));

  log.end(root);
  std::vector<double> shard_s, compile_s, init_s;
  double busiest = 0, busy = 0;
  for (const WorkerTrace& w : traced.workers) {
    double mine = w.init_s;
    for (const auto& sh : w.shards) {
      shard_s.push_back(sh.second);
      mine += sh.second;
      busy += sh.second;
    }
    busiest = std::max(busiest, mine);
    compile_s.push_back(w.compile_s);
    init_s.push_back(w.init_s);
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  std::sort(shard_s.begin(), shard_s.end());
  const wbist::serve::CampaignOutcome& o = traced.outcome;
  res.add("compile.s", mean(compile_s));
  res.add("compile.mib", static_cast<double>(cc->approx_bytes()) / (1 << 20));
  res.add("fault_sim.kernel_cycles", static_cast<double>(kernel));
  res.add("fault_sim.gates_evaluated", static_cast<double>(gates));
  res.add("fault_sim.gates_per_kernel_cycle",
          kernel == 0 ? 0.0
                      : static_cast<double>(gates) /
                            static_cast<double>(kernel));
  res.add("campaign.worker_init_s", mean(init_s));
  res.add("campaign.shard_s.p50",
          shard_s.empty() ? 0 : nearest_rank(shard_s, 0.5));
  res.add("campaign.shard_s.max", shard_s.empty() ? 0 : shard_s.back());
  const double workers =
      static_cast<double>(std::max<std::size_t>(traced.workers.size(), 1));
  res.add("campaign.worker_busy_frac", busy / (workers * traced.wall_s));
  res.add("campaign.driver_s", traced.wall_s - busiest);
  res.add("campaign.kernel_cycles", static_cast<double>(o.kernel_cycles));
  res.add("campaign.trace_cycles", static_cast<double>(o.trace_cycles));
  res.add("campaign.shards_retried", static_cast<double>(o.shards_retried));
  res.add("campaign.worker_deaths", static_cast<double>(o.worker_deaths));
  res.add("trace.overhead_frac", traced.wall_s / work_s - 1.0);
  write_text(opt.trace_path, log.chrome_json("campaign-fsim"));
  return res;
}

}  // namespace perfbench
