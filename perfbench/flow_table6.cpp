// flow-table6: the ROADMAP's end-to-end unit. One closed-loop client runs
// core::run_flow_job (the call behind `wbist flow` and the daemon's flow
// job) on the Table-6 circuits one after another, with FlowConfig defaults
// (threads = hardware concurrency). The traced run makes the five stage
// calls of core::run_flow itself, in run_flow's order, with a span and
// counter deltas around each.
#include <map>
#include <memory>

#include "bench.h"
#include "core/artifact_cache.h"
#include "core/flow.h"
#include "core/service.h"
#include "fault/fault_sim.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"

namespace perfbench {

namespace core = wbist::core;
namespace fault = wbist::fault;
namespace util = wbist::util;

namespace {

const std::vector<std::string> kCircuits = {"s298", "s344", "s386",
                                            "s420", "s820", "s1423"};
const std::vector<std::string> kSmokeCircuits = {"s27", "s298"};

/// The seed sets the procedure's fault-sample draws. T stays the one the
/// default tgen seed gives: on s1423 the tgen seed alone moves the flow
/// from 32 s to 45 s, which would make runs of different seeds measure
/// different amounts of work. Seed 1 is the CLI default (procedure seed
/// 7), so the default-seed goldens are exactly what `wbist flow` prints.
core::FlowConfig config_for(std::uint64_t seed) {
  core::FlowConfig c;
  c.procedure.seed = seed + 6;
  return c;
}

/// The Table-6 row as core::run_flow_job renders it.
std::string render_row(const core::Table6Row& r, double fault_efficiency) {
  util::Table t;
  t.header({"circuit", "len", "det", "seq", "subs", "len", "num", "out",
            "f.e."});
  t.row({r.circuit, std::to_string(r.t_length), std::to_string(r.t_detected),
         std::to_string(r.n_seq), std::to_string(r.n_subs),
         std::to_string(r.max_len), std::to_string(r.n_fsms),
         std::to_string(r.n_fsm_outputs),
         util::fixed(100.0 * fault_efficiency, 1)});
  return t.render();
}

struct Compiled {
  std::shared_ptr<const core::CompiledCircuit> cc;
  std::unique_ptr<fault::FaultSimulator> sim;
};

/// Process-wide fault-simulation counters, read around each stage call.
struct Counters {
  double fsim_s = 0;
  std::uint64_t kernel_cycles = 0, gates = 0, traces = 0, trace_cycles = 0;

  static Counters now() {
    util::MetricsRegistry& m = util::metrics();
    return {m.timer("fault_sim.run").seconds(),
            m.counter("fault_sim.kernel_cycles").value(),
            m.counter("fault_sim.gates_evaluated").value(),
            m.counter("fault_sim.traces").value(),
            m.counter("fault_sim.trace_cycles").value()};
  }
  Counters operator-(const Counters& o) const {
    return {fsim_s - o.fsim_s, kernel_cycles - o.kernel_cycles,
            gates - o.gates, traces - o.traces,
            trace_cycles - o.trace_cycles};
  }
  Counters& operator+=(const Counters& o) {
    fsim_s += o.fsim_s;
    kernel_cycles += o.kernel_cycles;
    gates += o.gates;
    traces += o.traces;
    trace_cycles += o.trace_cycles;
    return *this;
  }
};

/// Per-layer sums over one traced batch.
struct StageSums {
  std::map<std::string, double> seconds;  ///< stage span self time
  std::map<std::string, Counters> delta;  ///< counter deltas per stage
  std::size_t compact_sims = 0, compact_removed = 0;
  std::size_t candidates = 0, full_sims = 0, sample_rejections = 0;
  std::size_t omega_before = 0, omega_after = 0;
};

const char* const kStages[] = {"tgen.generate", "tgen.compact",
                               "core.procedure", "core.reverse_sim",
                               "core.fsm_synth"};

/// core::run_flow, one public stage call at a time, spans and counters
/// around each. Returns the rendered Table-6 row.
std::string traced_flow(const Compiled& c, const core::FlowConfig& config,
                        SpanLog& log, int circuit_span, StageSums& sums) {
  using fault::DetectionResult;
  using fault::FaultId;
  const fault::FaultSimulator& sim = *c.sim;
  const auto stage = [&](const char* name, auto&& body) {
    const Counters c0 = Counters::now();
    ScopedSpan span(&log, name, circuit_span, c.cc->name());
    body();
    span.close();
    sums.delta[name] += Counters::now() - c0;
  };

  wbist::sim::TestSequence seq;
  std::vector<std::int32_t> detection_time;
  stage("tgen.generate", [&] {
    auto gen = wbist::tgen::generate_test_sequence(sim, config.tgen);
    seq = std::move(gen.sequence);
    detection_time = std::move(gen.detection_time);
  });
  if (config.compact && seq.length() > 1) {
    stage("tgen.compact", [&] {
      std::vector<FaultId> must;
      for (FaultId f = 0; f < detection_time.size(); ++f)
        if (detection_time[f] != DetectionResult::kUndetected)
          must.push_back(f);
      auto comp =
          wbist::tgen::compact_sequence(sim, seq, must, config.compaction);
      sums.compact_sims += comp.simulations_used;
      sums.compact_removed += comp.removed_vectors;
      seq = std::move(comp.sequence);
      detection_time = std::move(comp.detection_time);
    });
  }
  std::size_t t_detected = 0;
  for (const std::int32_t t : detection_time)
    if (t != DetectionResult::kUndetected) ++t_detected;

  core::ProcedureResult proc;
  stage("core.procedure", [&] {
    proc = core::select_weight_assignments(sim, seq, detection_time,
                                           config.procedure);
  });
  sums.candidates += proc.stats.assignments_tried;
  sums.full_sims += proc.stats.full_simulations;
  sums.sample_rejections += proc.stats.sample_rejections;
  sums.omega_before += proc.omega.size();

  core::ReverseSimResult pruned;
  stage("core.reverse_sim", [&] {
    std::vector<FaultId> targets;
    for (FaultId f = 0; f < detection_time.size(); ++f)
      if (detection_time[f] != DetectionResult::kUndetected)
        targets.push_back(f);
    pruned = core::reverse_order_prune(sim, proc.omega, targets,
                                       proc.sequence_length,
                                       config.procedure.threads);
  });
  sums.omega_after += pruned.omega.size();

  core::FsmSynthesisResult fsms;
  stage("core.fsm_synth", [&] {
    std::vector<core::Subsequence> subs;
    for (const core::WeightAssignment& w : pruned.omega)
      subs.insert(subs.end(), w.per_input.begin(), w.per_input.end());
    fsms = core::synthesize_weight_fsms(subs);
  });
  const core::Table6Row row = core::make_table6_row(
      c.cc->name(), seq.length(), t_detected, pruned.omega, fsms);
  return render_row(row, proc.fault_efficiency());
}

}  // namespace

Result run_flow_table6(const Options& opt) {
  Result res;
  const std::vector<std::string>& names = opt.smoke ? kSmokeCircuits
                                                    : kCircuits;
  const core::FlowConfig config = config_for(opt.seed);
  SpanLog log;

  // Set-up: compile every circuit and build its simulator. It takes a few
  // milliseconds, so it is repeated before, between the flows of, and after
  // the measured phase, and the median reported: one slow stretch of the
  // host then cannot set it. The last set-up before the phase is used.
  std::vector<double> setup_s, compile_s;
  const auto setup = [&] {
    std::vector<Compiled> out;
    double compile_total = 0;
    const Clock::time_point t0 = Clock::now();
    for (const std::string& name : names) {
      const Clock::time_point c0 = Clock::now();
      Compiled c;
      c.cc = core::CompiledCircuit::compile(registry_spec(name));
      const Clock::time_point c1 = Clock::now();
      compile_total += seconds_between(c0, c1);
      if (opt.trace && setup_s.empty()) log.add("compile", c0, c1, -1, name);
      c.sim = std::make_unique<fault::FaultSimulator>(
          c.cc->netlist(), c.cc->faults(), c.cc->cones());
      out.push_back(std::move(c));
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    compile_s.push_back(compile_total);
    return out;
  };
  const int reps = opt.smoke ? 1 : 4;
  std::vector<Compiled> compiled;
  for (int rep = 0; rep < reps; ++rep) compiled = setup();

  // Goldens: the rendered Table-6 row per circuit at the default seed.
  const std::string golden_path = opt.golden_dir + "/flow-table6.json";
  const bool check_golden = opt.seed == kGoldenSeed && !opt.smoke;
  util::JsonValue golden;
  if (check_golden) golden = util::json_parse(read_text(golden_path));

  // Measured phase: whole batches until --seconds have passed.
  std::vector<double> batch_s;
  std::map<std::string, std::string> rows;
  const Clock::time_point m0 = Clock::now();
  do {
    double total = 0;
    for (const Compiled& c : compiled) {
      const Clock::time_point t0 = Clock::now();
      const core::FlowJobResult r = core::run_flow_job(*c.cc, config);
      const double took = seconds_between(t0, Clock::now());
      total += took;
      const std::string& name = c.cc->name();
      res.report.push_back(name + " flow " + std::to_string(took) + " s");
      std::string why;
      if (r.flow.procedure.fault_efficiency() != 1.0)
        why = "fault efficiency below 100%";
      else if (check_golden && r.output != golden.get_string(name))
        why = "Table-6 row differs from the golden:\n" + r.output;
      else if (rows.count(name) != 0 && rows[name] != r.output)
        why = "row changed between batches";
      rows[name] = r.output;
      res.op(why.empty(), name + " flow: " + why);
      if (!opt.smoke) setup();
    }
    batch_s.push_back(total);
  } while (seconds_between(m0, Clock::now()) < opt.seconds);

  for (int rep = 0; rep < reps; ++rep) setup();

  const double work_s = median(batch_s);
  res.line("flow_s", work_s, "s",
           "median of " + std::to_string(batch_s.size()) + " batch(es) of " +
               std::to_string(names.size()) + " circuits");

  res.report.push_back(describe_samples("setup_s", setup_s, "s"));
  if (!opt.trace) {
    res.add("setup_s", median(setup_s));
    res.add("work_s", work_s);
    res.add("peak_rss_mib", peak_rss_mib());
    return res;
  }

  // Traced batch: same seed, same circuits, stage by stage.
  StageSums sums;
  const Counters all0 = Counters::now();
  double traced_total = 0;
  for (const Compiled& c : compiled) {
    const std::string& name = c.cc->name();
    const Clock::time_point t0 = Clock::now();
    const int span = log.begin("flow", -1, name);
    const std::string row = traced_flow(c, config, log, span, sums);
    log.end(span);
    traced_total += seconds_between(t0, Clock::now());
    res.op(row == rows[name],
           name + ": the traced stage calls assemble a different row:\n" + row);
  }
  const Counters all = Counters::now() - all0;

  const std::vector<SpanRecord> spans = log.snapshot();
  const std::vector<double> self = self_seconds(spans);
  double flow_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "flow")
      flow_self += self[i];
    else
      sums.seconds[spans[i].name] += self[i];
  }
  std::size_t bytes = 0;
  for (const Compiled& c : compiled) bytes += c.cc->approx_bytes();

  res.add("compile.s", median(compile_s));
  res.add("compile.mib", static_cast<double>(bytes) / (1 << 20));
  for (const char* s : kStages)
    res.add(std::string(s) + ".s", sums.seconds[s]);
  res.add("tgen.compact.sims", static_cast<double>(sums.compact_sims));
  res.add("tgen.compact.removed_per_sim",
          sums.compact_sims == 0 ? 0.0
                                 : static_cast<double>(sums.compact_removed) /
                                       static_cast<double>(sums.compact_sims));
  res.add("tgen.compact.kernel_cycles",
          static_cast<double>(sums.delta["tgen.compact"].kernel_cycles));
  res.add("core.procedure.candidates", static_cast<double>(sums.candidates));
  res.add("core.procedure.full_sims", static_cast<double>(sums.full_sims));
  res.add("core.procedure.sample_reject_frac",
          sums.candidates == 0 ? 0.0
                               : static_cast<double>(sums.sample_rejections) /
                                     static_cast<double>(sums.candidates));
  res.add("core.procedure.keep_frac",
          sums.full_sims == 0 ? 0.0
                              : static_cast<double>(sums.omega_before) /
                                    static_cast<double>(sums.full_sims));
  res.add("core.procedure.trace_cycles",
          static_cast<double>(sums.delta["core.procedure"].trace_cycles));
  res.add("core.reverse_sim.keep_frac",
          sums.omega_before == 0 ? 0.0
                                 : static_cast<double>(sums.omega_after) /
                                       static_cast<double>(sums.omega_before));
  res.add("flow.self_s", flow_self);
  for (const char* s : {"tgen.generate", "tgen.compact", "core.procedure",
                        "core.reverse_sim"}) {
    const double fsim = sums.delta[s].fsim_s;
    res.add(std::string(s) + ".fsim_s", fsim);
    res.add(std::string(s) + ".other_s", sums.seconds[s] - fsim);
  }
  res.add("fault_sim.kernel_cycles", static_cast<double>(all.kernel_cycles));
  res.add("fault_sim.gates_evaluated", static_cast<double>(all.gates));
  res.add("fault_sim.traces", static_cast<double>(all.traces));
  res.add("fault_sim.trace_cycles", static_cast<double>(all.trace_cycles));
  res.add("fault_sim.gates_per_kernel_cycle",
          all.kernel_cycles == 0 ? 0.0
                                 : static_cast<double>(all.gates) /
                                       static_cast<double>(all.kernel_cycles));
  res.add("trace.overhead_frac", traced_total / work_s - 1.0);
  write_text(opt.trace_path, log.chrome_json("flow-table6"));
  return res;
}

}  // namespace perfbench
