// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Runs one named workload in this process on at most four threads (an
// executor with three workers plus the caller's help-first join), checks
// every output, and prints one JSON result as the last line of stdout.
// With --trace 0 the run calls the library's public entry points exactly
// as users do (run_matrix, run_flow, serve::Server::run_wave) and reports
// the end-to-end metrics. With --trace 1 it rebuilds flows one at a time
// from the public stage functions under a span recorder (rebuild.hpp),
// checks each rebuilt flow against run_flow bit for bit, reports the
// per-layer metrics and writes the spans to DIR/trace.json. Workloads,
// metrics and the known two-phase defect are described in README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/paper_reference.hpp"
#include "perfbench/rebuild.hpp"
#include "perfbench/trace.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/matrix.hpp"
#include "src/flow/serialize.hpp"
#include "src/serve/server.hpp"
#include "src/util/executor.hpp"
#include "src/util/hash.hpp"
#include "src/util/log.hpp"

namespace perfbench {
namespace {

using namespace tp;
using flow::DesignStyle;
using flow::FlowOptions;
using flow::MatrixResult;
using flow::RunPlan;

// --- run state ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

/// Threads the benchmark may keep busy: nproc, capped at four.
std::size_t thread_budget() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

/// Executor workers such that workers plus the joining caller stay within
/// the budget (an Executor always has at least one worker).
std::size_t executor_workers() {
  return std::max<std::size_t>(1, thread_budget() - 1);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the end-to-end or per-layer metrics of the
/// result line, plus report-only metrics printed on their own lines.
class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  const Args& args() const { return args_; }
  Tracer& tracer() { return tracer_; }
  bool traced() const { return args_.trace; }

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Printed by name and unit, but not part of the result line.
  void report(std::string name, double value, std::string unit) {
    report_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& text) {
    std::printf("perfbench: %s\n", text.c_str());
  }

  /// One checked operation; `failure` is empty when it passed. A failure
  /// of a known, documented defect keeps the run correct but still counts
  /// in `failed` and fail_ratio.
  void check(const std::string& what, const std::string& failure,
             bool known_defect = false) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    if (!known_defect) correct_ = false;
    note(std::string(known_defect ? "known defect: " : "FAILED: ") + what +
         ": " + failure);
  }
  void fail_run(const std::string& why) {
    correct_ = false;
    note("FAILED: " + why);
  }

  double fail_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  void print_result() const {
    std::printf("perfbench: metric fail_ratio = %.17g ratio (%ld of %ld)\n",
                fail_ratio(), failed_, attempted_);
    for (const Metric& m : report_) {
      std::printf("perfbench: metric %s = %.17g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct_ && attempted_ > 0 ? "true" : "false",
                std::max(attempted_, 1L), failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  Args args_;
  Tracer tracer_;
  std::vector<Metric> metrics_;
  std::vector<Metric> report_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

/// Repeats `make` at least kSetupReps times and for at least kSetupSeconds
/// (so one burst of host noise cannot set a short set-up's median), and
/// returns the median wall time; `last` receives the final repetition's
/// inputs. A traced run sets up once, under spans, and reports no setup_s.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;

template <class T, class F>
double timed_setup(Run& run, F make, T* last) {
  if (run.traced()) {
    *last = make(&run.tracer());
    return 0;
  }
  std::vector<double> times;
  double total = 0;
  while (times.size() < kSetupReps || total < kSetupSeconds) {
    Stopwatch watch;
    T value = make(nullptr);
    times.push_back(watch.seconds());
    total += times.back();
    *last = std::move(value);  // the previous inputs are freed untimed
  }
  return median(times);
}

/// Wraps a call into the circuits generators in a span when tracing.
template <class F>
decltype(auto) circuits_call(Tracer* tracer, F&& fn) {
  if (tracer == nullptr) return std::forward<F>(fn)();
  return tracer->span("circuits", std::forward<F>(fn));
}

/// Closed-loop pass rule: always one pass, then another only while it is
/// expected to end within the measuring window.
bool another_pass(double elapsed, double last_pass, double seconds) {
  return elapsed + last_pass <= seconds;
}

/// Known defect: the two-phase backend changes DES3's behavior (SEC
/// falsified at stage "convert"). Its cells are still run and counted.
bool known_defect(const std::string& design, DesignStyle style) {
  return style == DesignStyle::kTwoPhase && design == "DES3";
}

std::string token(DesignStyle style) {
  return std::string(flow::style_token(style));
}

// --- per-layer metrics ---------------------------------------------------------

const char* const kLayers[] = {
    "circuits", "transform.synthesis", "phase", "transform.convert",
    "retime",   "transform.gating",    "timing", "place",
    "cts",      "sim",                 "power",  "equiv",
    "check",    "analysis",            "flow",   "serve"};

/// Workload-level inputs to the per-layer table that the spans cannot give.
struct FlowLayerStats {
  double utilization = 0;        // cpu_s / (threads x wall) of untraced work
  double reported_over_wall = 0; // program's own task timers / (threads x wall)
};

struct ServeLayerStats {
  double busy_s = 0;
  double hit_ratio = 0;
  double cells_computed = 0;
  double disk_hits = 0;
  double in_wave_p50_ms = 0;
};

void per_layer_metrics(Run& run, const FlowLayerStats& flow_stats,
                       const ServeLayerStats& serve_stats) {
  const Tracer& t = run.tracer();
  std::map<std::string, double> self = t.self_seconds();
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  for (const char* layer : kLayers) {
    const double s = self[layer];
    run.metric(std::string(layer) + ".self_s", s, "s");
    run.metric(std::string(layer) + ".share", total > 0 ? s / total : 0,
               "ratio");
  }
  const auto per_second = [&](const char* counter, const char* layer) {
    return self[layer] > 0 ? t.counter(counter) / self[layer] : 0.0;
  };
  run.metric("place.cells_per_s", per_second("place.cells", "place"), "1/s");
  run.metric("place.hpwl_um", t.counter("place.hpwl_um"), "um");
  run.metric("retime.closure_attempts", t.counter("retime.closure_attempts"),
             "count");
  const double closures = t.counter("retime.closures");
  run.metric("retime.first_try_ratio",
             closures > 0 ? t.counter("retime.first_try") / closures : 0,
             "ratio");
  run.metric("cts.buffers", t.counter("cts.buffers"), "count");
  run.metric("phase.inserted_p2", t.counter("phase.inserted_p2"), "count");
  for (const char* c : {"timing.full_runs", "timing.incremental_runs",
                        "timing.skipped_runs", "timing.cone_cells",
                        "timing.hold_buffers"}) {
    run.metric(c, t.counter(c), "count");
  }
  run.metric("sim.cell_cycles_per_s", per_second("sim.cell_cycles", "sim"),
             "1/s");
  for (const char* c :
       {"equiv.sat_calls", "equiv.sat_conflicts", "equiv.aig_nodes"}) {
    run.metric(c, t.counter(c), "count");
  }
  run.metric("flow.utilization", flow_stats.utilization, "ratio");
  run.metric("flow.reported_over_wall", flow_stats.reported_over_wall,
             "ratio");
  run.metric("serve.busy_s", serve_stats.busy_s, "s");
  run.metric("serve.hit_ratio", serve_stats.hit_ratio, "ratio");
  run.metric("serve.cells_computed", serve_stats.cells_computed, "count");
  run.metric("serve.disk_hits", serve_stats.disk_hits, "count");
  run.metric("serve.in_wave_p50_ms", serve_stats.in_wave_p50_ms, "ms");
}

/// The timed passes of one run. End-to-end rates and CPU are medians over
/// passes, so a burst of host noise moves one pass, not the result.
struct Throughput {
  struct Pass {
    double wall_s = 0;
    double cpu_s = 0;     // process CPU over the pass
    double flows = 0;     // flows run to completion
    double requests = 0;  // cells or request lines answered
  };
  double setup_s = 0;
  std::vector<Pass> passes;
  /// Peak resident set at the end of the first pass: what set-up and one
  /// pass need. Read later, it would depend on how many passes fit in the
  /// window: a second paper_grid pass raised it from about 216 to 275 MB.
  double peak_rss_mb = 0;

  void add(const Pass& pass) {
    passes.push_back(pass);
    if (passes.size() == 1) peak_rss_mb = perfbench::peak_rss_mb();
  }

  [[nodiscard]] double wall_s() const {
    double sum = 0;
    for (const Pass& p : passes) sum += p.wall_s;
    return sum;
  }
  [[nodiscard]] double cpu_s() const {
    double sum = 0;
    for (const Pass& p : passes) sum += p.cpu_s;
    return sum;
  }
};

void end_to_end_metrics(Run& run, const Throughput& t) {
  std::vector<double> flows, requests, cpu;
  for (const Throughput::Pass& p : t.passes) {
    std::printf("perfbench: pass %zu wall %.4f s cpu %.4f s flows %.0f\n",
                flows.size() + 1, p.wall_s, p.cpu_s, p.flows);
    flows.push_back(p.flows / p.wall_s);
    requests.push_back(p.requests / p.wall_s);
    cpu.push_back(p.cpu_s);
  }
  run.metric("setup_s", t.setup_s, "s");
  run.metric("flows_per_s", median(flows), "1/s");
  run.metric("requests_per_s", median(requests), "1/s");
  run.metric("cpu_s", median(cpu), "s");
  run.metric("peak_rss_mb", t.peak_rss_mb, "MB");
  run.report("passes", static_cast<double>(t.passes.size()), "count");
}

/// One traced cell: run_flow untraced, then the traced rebuild.
struct TracedCell {
  double untraced_s = 0;
  double untraced_cpu_s = 0;
  double reported_s = 0;  // the program's own StepTimes total
  double traced_s = 0;
  FlowDigest result;      // run_flow's result
};

/// Runs run_flow untraced, then the traced rebuild, and checks that they
/// agree bit for bit (and with `matrix_result` when one is given).
TracedCell trace_cell(Run& run, int flow_id, const std::string& what,
                      const circuits::Benchmark& bench, DesignStyle style,
                      std::span<const Stimulus> lanes,
                      const FlowOptions& options,
                      const flow::FlowResult* matrix_result) {
  TracedCell cell;
  FlowDigest rebuilt;
  const auto untraced = [&] {
    const double cpu0 = cpu_seconds();
    Stopwatch watch;
    const flow::FlowResult reference =
        flow::run_flow(bench, style, lanes, options);
    cell.untraced_s = watch.seconds();
    cell.untraced_cpu_s = cpu_seconds() - cpu0;
    cell.reported_s = reference.times.total_s();
    cell.result = digest(reference);
  };
  const auto traced = [&] {
    run.tracer().set_flow(flow_id);
    Stopwatch watch;
    rebuilt = traced_flow(bench, style, lanes, options, run.tracer());
    cell.traced_s = watch.seconds();
    run.tracer().set_flow(-1);
  };
  // Alternate which side runs first, so warm-up favors neither.
  if (flow_id % 2 == 0) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
  std::string failure = same_result(cell.result, rebuilt);
  if (!failure.empty()) {
    failure = "traced rebuild differs from run_flow in " + failure;
  } else if (matrix_result != nullptr) {
    failure = same_result(digest(*matrix_result), cell.result);
    if (!failure.empty()) {
      failure = "run_matrix differs from run_flow in " + failure;
    }
  }
  run.check("traced " + what, failure);
  return cell;
}

void report_trace_overhead(Run& run, double untraced_s, double traced_s) {
  run.report("trace.untraced_s", untraced_s, "s");
  run.report("trace.traced_s", traced_s, "s");
  run.report("trace.overhead_s", traced_s - untraced_s, "s");
  const std::string path = run.args().out_dir + "/trace.json";
  if (!run.tracer().write(path)) run.fail_run("cannot write " + path);
  run.note("trace written to " + path);
}

// --- grid workloads (paper_grid, verify_grid) -----------------------------------

struct GridSpec {
  /// Designs of each run_matrix call of a pass, called in this order.
  std::vector<std::vector<std::string>> calls;
  std::vector<DesignStyle> styles;
  FlowOptions options;
  std::size_t cycles = 0;
  std::size_t lanes = 1;
  /// Designs whose cells the traced run rebuilds (all styles each).
  std::vector<std::string> traced_designs;
  /// Designs run once per run, after the timed passes, by one more
  /// run_matrix call: checked and counted like every cell, but not timed.
  std::vector<std::string> checked_once;

  /// Every design in call order: the design order of a pass's results.
  [[nodiscard]] std::vector<std::string> designs() const {
    std::vector<std::string> out;
    for (const auto& call : calls) out.insert(out.end(), call.begin(), call.end());
    return out;
  }
};

/// The inputs run_task generates for each design: the benchmark and its
/// per-lane stimuli (identical for every style of the design).
struct GridInputs {
  std::vector<circuits::Benchmark> benchmarks;
  std::vector<std::vector<Stimulus>> lanes;
};

GridInputs make_grid_inputs(const RunPlan& plan, Tracer* tracer) {
  GridInputs in;
  const std::size_t per_lane = (plan.cycles + plan.lanes - 1) / plan.lanes;
  for (const std::string& name : plan.benchmarks) {
    in.benchmarks.push_back(
        circuits_call(tracer, [&] { return circuits::make_benchmark(name); }));
    const std::uint64_t seed = flow::task_seed(plan.stimulus_seed, name);
    std::vector<Stimulus> lanes;
    for (std::size_t l = 0; l < plan.lanes; ++l) {
      lanes.push_back(circuits_call(tracer, [&] {
        return circuits::make_stimulus(in.benchmarks.back(), plan.workload,
                                       per_lane, flow::lane_seed(seed, l));
      }));
    }
    in.lanes.push_back(std::move(lanes));
  }
  return in;
}

/// Checks one grid pass: flow errors, output streams against the FF cell
/// of the same design, and (when enabled) SEC and lint verdicts. Returns
/// one failure text per cell, empty for a cell that passed.
std::vector<std::string> check_grid(const GridSpec& spec,
                                    const std::vector<MatrixResult>& results) {
  const std::size_t num_styles = spec.styles.size();
  const auto ff_at = std::find(spec.styles.begin(), spec.styles.end(),
                               DesignStyle::kFlipFlop);
  std::vector<std::string> failures(results.size());
  for (std::size_t b = 0; b * num_styles < results.size(); ++b) {
    const MatrixResult* ff =
        ff_at == spec.styles.end()
            ? nullptr
            : &results[b * num_styles + (ff_at - spec.styles.begin())];
    for (std::size_t s = 0; s < num_styles; ++s) {
      const MatrixResult& r = results[b * num_styles + s];
      std::string& failure = failures[b * num_styles + s];
      if (!r.ok()) {
        failure = r.error;
        continue;
      }
      if (ff != nullptr && ff->ok() && &r != ff) {
        const flow::StreamDiff diff = flow::equivalent(ff->result, r.result);
        if (!diff.equal()) failure = "stream vs FF: " + diff.to_string();
      }
      if (spec.options.check_equivalence) {
        if (const flow::StageCheck* bad = r.result.equiv.first_failure()) {
          if (!failure.empty()) failure += "; ";
          failure += "SEC " + std::string(equiv::status_name(bad->result.status)) +
                     " at stage '" + bad->stage + "'";
        }
      }
      if (spec.options.check_rules || spec.options.check_analysis) {
        if (const flow::StageLint* bad = r.result.lint.first_violation()) {
          if (!failure.empty()) failure += "; ";
          failure += "lint not clean at stage '" + bad->stage + "'";
        }
      }
    }
  }
  return failures;
}

struct GridRun {
  Throughput throughput;
  std::vector<MatrixResult> first_pass;
  std::vector<MatrixResult> once;  // the spec.checked_once cells
  double reported_s = 0;  // sum of MatrixResult::seconds over the passes
};

GridRun run_grid(Run& run, const GridSpec& spec, GridInputs* inputs) {
  RunPlan all;
  all.benchmarks = spec.designs();
  all.styles = spec.styles;
  all.options = spec.options;
  all.workload = circuits::Workload::kPaperDefault;
  all.cycles = spec.cycles;
  all.lanes = spec.lanes;
  all.stimulus_seed = run.args().seed;
  std::vector<RunPlan> plans(spec.calls.size(), all);
  for (std::size_t c = 0; c < plans.size(); ++c) {
    plans[c].benchmarks = spec.calls[c];
  }

  GridRun out;
  out.throughput.setup_s = timed_setup(
      run, [&](Tracer* t) { return make_grid_inputs(all, t); }, inputs);
  util::Executor executor(executor_workers());
  const double budget = run.traced() ? 0 : run.args().seconds;
  // A cell is one checked operation per run, however many passes fit: it
  // fails if it fails in any pass (the first failure is kept). Counting
  // per pass would make attempted, and with a known defect fail_ratio,
  // depend on the host's speed.
  std::vector<std::string> failures;
  double last = 0;
  do {
    const double cpu0 = cpu_seconds();
    Stopwatch watch;
    std::vector<MatrixResult> results;
    for (const RunPlan& plan : plans) {
      std::vector<MatrixResult> part = flow::run_matrix(plan, executor);
      std::move(part.begin(), part.end(), std::back_inserter(results));
    }
    last = watch.seconds();
    const double cells = static_cast<double>(results.size());
    out.throughput.add({last, cpu_seconds() - cpu0, cells, cells});
    for (const MatrixResult& r : results) out.reported_s += r.seconds;
    const std::vector<std::string> pass = check_grid(spec, results);
    failures.resize(pass.size());
    for (std::size_t c = 0; c < pass.size(); ++c) {
      if (failures[c].empty()) failures[c] = pass[c];
    }
    if (out.first_pass.empty()) out.first_pass = std::move(results);
  } while (another_pass(out.throughput.wall_s(), last, budget));
  std::vector<std::string> designs = spec.designs();
  if (!spec.checked_once.empty()) {
    RunPlan once = all;
    once.benchmarks = spec.checked_once;
    out.once = flow::run_matrix(once, executor);
    const std::vector<std::string> pass = check_grid(spec, out.once);
    failures.insert(failures.end(), pass.begin(), pass.end());
    designs.insert(designs.end(), once.benchmarks.begin(), once.benchmarks.end());
  }
  const std::size_t num_styles = spec.styles.size();
  for (std::size_t c = 0; c < failures.size(); ++c) {
    const std::string& design = designs[c / num_styles];
    const DesignStyle style = spec.styles[c % num_styles];
    run.check(design + "/" + token(style), failures[c],
              known_defect(design, style));
  }
  return out;
}

/// Traced run of a grid workload: one untraced run_matrix pass (checks,
/// flow utilization and the program's own timers), then every cell of
/// spec.traced_designs rebuilt serially under spans.
void trace_grid(Run& run, const GridSpec& spec, const GridRun& grid,
                const GridInputs& inputs) {
  const double threads = static_cast<double>(thread_budget());
  FlowLayerStats flow_stats;
  flow_stats.utilization =
      grid.throughput.cpu_s() / (threads * grid.throughput.wall_s());
  flow_stats.reported_over_wall =
      grid.reported_s / (threads * grid.throughput.wall_s());
  FlowOptions options = spec.options;
  options.executor = nullptr;  // serial: nothing foreign inside a span
  // run_matrix hands its executor to each flow, and with an executor every
  // analysis checkpoint runs the full run_analysis; the serial reference
  // and the rebuild must take that path too, not the incremental session.
  options.incremental_analysis = false;
  double untraced = 0, traced = 0;
  int flow_id = 0;
  const std::vector<std::string> designs = spec.designs();
  for (const std::string& name : spec.traced_designs) {
    const std::size_t b = static_cast<std::size_t>(
        std::find(designs.begin(), designs.end(), name) - designs.begin());
    for (std::size_t s = 0; s < spec.styles.size(); ++s) {
      const TracedCell cell = trace_cell(
          run, flow_id++, name + "/" + token(spec.styles[s]),
          inputs.benchmarks[b], spec.styles[s], inputs.lanes[b], options,
          &grid.first_pass[b * spec.styles.size() + s].result);
      untraced += cell.untraced_s;
      traced += cell.traced_s;
    }
  }
  per_layer_metrics(run, flow_stats, {});
  report_trace_overhead(run, untraced, traced);
}

void paper_grid(Run& run) {
  GridSpec spec;
  // AES runs as its own run_matrix call after the other 17 designs. In one
  // 54-cell call its three flows start whenever a help-first join happens
  // to pick them up, and the pass wall varied 12.5-17 s at a fixed seed;
  // split, it varies about half as much for the same total.
  spec.calls.emplace_back();
  for (const std::string& name : circuits::benchmark_names()) {
    if (name != "AES") spec.calls.back().push_back(name);
  }
  spec.calls.push_back({"AES"});
  spec.styles = {DesignStyle::kFlipFlop, DesignStyle::kMasterSlave,
                 DesignStyle::kThreePhase};
  spec.options = FlowOptions::paper_defaults();
  spec.cycles = 128;  // the cycle budget of table1/table2
  spec.lanes = 1;
  spec.traced_designs = {"s13207", "DES3", "SHA256", "Plasma"};
  GridInputs inputs;
  const GridRun grid = run_grid(run, spec, &inputs);

  // Table I/II averages over the designs, 3-P against FF, as table1/table2
  // print them; the paper gap compares per-design power savings.
  double power = 0, area = 0, gap = 0;
  int rows = 0, gap_rows = 0;
  const std::vector<std::string> designs = spec.designs();
  for (std::size_t b = 0; b < designs.size(); ++b) {
    const MatrixResult& ff = grid.first_pass[b * 3 + 0];  // styles ff, ms, 3p
    const MatrixResult& p3 = grid.first_pass[b * 3 + 2];
    if (!ff.ok() || !p3.ok()) continue;
    const double saving = bench::save_pct(ff.result.power.total_mw(),
                                          p3.result.power.total_mw());
    power += saving;
    area += bench::save_pct(ff.result.area_um2, p3.result.area_um2);
    ++rows;
    if (const auto paper = bench::paper_row(designs[b])) {
      gap += std::abs(saving - bench::save_pct(paper->ff_power, paper->p3_power));
      ++gap_rows;
    }
  }
  if (run.traced()) {
    trace_grid(run, spec, grid, inputs);
    return;
  }
  end_to_end_metrics(run, grid.throughput);
  run.report("power_saving_pct", rows ? power / rows : 0, "%");
  run.report("area_saving_pct", rows ? area / rows : 0, "%");
  run.report("paper_power_gap_pct", gap_rows ? gap / gap_rows : 0, "%");
}

void verify_grid(Run& run) {
  GridSpec spec;
  // DES3's SEC is memory-bound: on a 4-vCPU VM of a shared host, one
  // memory-walking process beside it raised its CPU time 4-23%, against
  // under 1% for s5378 and s9234, and without one it still varied 13%
  // back to back. Timed, it set the spread of the whole workload, so its
  // six cells run once per run, after the timed passes: checked and
  // counted (DES3 x 2p is a known defect), but not timed.
  spec.calls = {{"s5378", "s9234"}};
  spec.checked_once = {"DES3"};
  for (const flow::ConversionBackend* backend : flow::backend_registry()) {
    spec.styles.push_back(backend->id());
  }
  spec.options = FlowOptions::fast();
  spec.options.check_equivalence = true;
  spec.options.check_rules = true;
  spec.options.check_analysis = true;
  spec.lanes = 64;
  spec.cycles = 64 * 128;
  spec.traced_designs = {"s5378"};
  GridInputs inputs;
  const GridRun grid = run_grid(run, spec, &inputs);

  double checkpoints = 0, proven = 0;
  for (const auto* cells : {&grid.first_pass, &grid.once}) {
    for (const MatrixResult& r : *cells) {
      for (const flow::StageCheck& c : r.result.equiv.stages) {
        checkpoints += 1;
        proven += c.result.status == equiv::SecStatus::kProven;
      }
    }
  }
  if (run.traced()) {
    trace_grid(run, spec, grid, inputs);
    return;
  }
  end_to_end_metrics(run, grid.throughput);
  run.report("proven_ratio", checkpoints > 0 ? proven / checkpoints : 0,
             "ratio");
}

// --- macro_ladder ---------------------------------------------------------------

struct MacroInputs {
  std::vector<circuits::Benchmark> benchmarks;
  std::vector<Stimulus> stimuli;
  std::vector<OutputStream> reference;  // FF netlist's own output stream
};

constexpr int kMacroSizes[] = {4000, 8000, 16000};
constexpr std::size_t kMacroCycles = 64;

/// Known defect: 3-P conversion of a make_macro pipeline can change its
/// output stream under some stimuli (README.md). A divergence is counted in
/// `failed` and printed, but keeps the run correct. This structure under
/// this stimulus always shows it (cycle 27); it is a fixed input, run once
/// per run after the timed passes, so the defect stays visible on every
/// seed until it is fixed.
constexpr int kDefectFlipFlops = 16000;
constexpr std::uint64_t kDefectStimulusSeed = 13;

/// "" when the converted flow reproduces the FF stream, else where not.
std::string macro_stream_failure(const OutputStream& reference,
                                 const OutputStream& outputs) {
  const std::ptrdiff_t cycle = first_mismatch(reference, outputs);
  return cycle < 0 ? "" : "stream vs FF differs at cycle " + std::to_string(cycle);
}

circuits::Benchmark make_macro_benchmark(const circuits::MacroSpec& spec,
                                         const std::string& name) {
  return circuits::Benchmark{.name = name,
                             .suite = "MACRO",
                             .netlist = circuits::make_macro(spec),
                             .period_ps = spec.period_ps,
                             .paper_workload = "pseudo-random"};
}

/// Runs the known-defect macro through run_flow and checks its stream.
void check_macro_defect(Run& run, const FlowOptions& options) {
  circuits::MacroSpec spec;
  spec.flip_flops = kDefectFlipFlops;
  spec.seed = util::splitmix64(kDefectStimulusSeed ^ kDefectFlipFlops);
  const circuits::Benchmark bench =
      make_macro_benchmark(spec, "macro16000-defect");
  const Stimulus stimulus =
      circuits::make_stimulus(bench, circuits::Workload::kPaperDefault,
                              kMacroCycles, kDefectStimulusSeed);
  Simulator sim(bench.netlist);
  const OutputStream reference =
      run_stream(sim, stimulus, options.warmup_cycles);
  const flow::FlowResult r =
      flow::run_flow(bench, DesignStyle::kThreePhase, stimulus, options);
  run.check(bench.name + "/3p", macro_stream_failure(reference, r.outputs),
            /*known_defect=*/true);
}

MacroInputs make_macro_inputs(std::uint64_t seed, Tracer* tracer) {
  MacroInputs in;
  for (const int ffs : kMacroSizes) {
    circuits::MacroSpec spec;
    spec.flip_flops = ffs;  // make_macro's default structure seed
    in.benchmarks.push_back(circuits_call(tracer, [&] {
      return make_macro_benchmark(spec, "macro" + std::to_string(ffs));
    }));
    in.stimuli.push_back(circuits_call(tracer, [&] {
      return circuits::make_stimulus(in.benchmarks.back(),
                                     circuits::Workload::kPaperDefault,
                                     kMacroCycles, seed);
    }));
  }
  return in;
}

void macro_ladder(Run& run) {
  MacroInputs in;
  Throughput t;
  t.setup_s = timed_setup(
      run, [&](Tracer* tr) { return make_macro_inputs(run.args().seed, tr); },
      &in);
  FlowOptions options = FlowOptions::paper_defaults();
  // The FF design's behavior, simulated once outside the timed region;
  // every converted flow must reproduce it.
  for (std::size_t i = 0; i < in.benchmarks.size(); ++i) {
    Simulator sim(in.benchmarks[i].netlist);
    in.reference.push_back(run_stream(sim, in.stimuli[i], options.warmup_cycles));
  }
  util::Executor executor(executor_workers());
  options.executor = &executor;
  const double threads = static_cast<double>(thread_budget());

  if (run.traced()) {
    double untraced = 0, traced = 0, cpu = 0, reported = 0;
    for (std::size_t i = 0; i < in.benchmarks.size(); ++i) {
      const TracedCell cell = trace_cell(
          run, static_cast<int>(i), in.benchmarks[i].name + "/3p",
          in.benchmarks[i], DesignStyle::kThreePhase,
          std::span<const Stimulus>(&in.stimuli[i], 1), options, nullptr);
      untraced += cell.untraced_s;
      traced += cell.traced_s;
      cpu += cell.untraced_cpu_s;
      reported += cell.reported_s;
    }
    per_layer_metrics(run,
                      {.utilization = cpu / (threads * untraced),
                       .reported_over_wall = reported / (threads * untraced)},
                      {});
    report_trace_overhead(run, untraced, traced);
    check_macro_defect(run, options);
    return;
  }

  std::vector<std::vector<double>> walls(in.benchmarks.size());
  // One checked operation per ladder cell and run, failed if any pass
  // diverges (as for grid cells), so attempted does not depend on speed.
  std::vector<std::string> failures(in.benchmarks.size());
  double last = 0;
  do {
    const double cpu0 = cpu_seconds();
    Stopwatch pass;
    for (std::size_t i = 0; i < in.benchmarks.size(); ++i) {
      Stopwatch watch;
      const flow::FlowResult r = flow::run_flow(
          in.benchmarks[i], DesignStyle::kThreePhase, in.stimuli[i], options);
      walls[i].push_back(watch.seconds());
      if (failures[i].empty()) {
        failures[i] = macro_stream_failure(in.reference[i], r.outputs);
      }
    }
    last = pass.seconds();
    const double flows = static_cast<double>(in.benchmarks.size());
    t.add({last, cpu_seconds() - cpu0, flows, flows});
  } while (another_pass(t.wall_s(), last, run.args().seconds));
  for (std::size_t i = 0; i < failures.size(); ++i) {
    run.check(in.benchmarks[i].name + "/3p", failures[i], /*known_defect=*/true);
  }

  // Least-squares slope of log(median wall) against log(FFs).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(walls.size());
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const double x = std::log(static_cast<double>(kMacroSizes[i]));
    const double y = std::log(median(walls[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  end_to_end_metrics(run, t);
  run.report("macro_flow_s", median(walls.back()), "s");
  run.report("scaling_exponent", (n * sxy - sx * sy) / (n * sxx - sx * sx),
             "ratio");
  check_macro_defect(run, options);
}

// --- serve_sweep ----------------------------------------------------------------

// The request stream of bench/serve_throughput (docs/serving.md): the same
// four small ISCAS designs, every backend, both job types, the "fast"
// preset and 24 cycles, in waves of 64 requests of which a quarter are
// novel computations and the rest repeat earlier ones round-robin. There
// the novel requests all come first; in this closed loop every wave after
// the first carries the same 1:3 mix, so each wave both computes and reads
// the cache. The server keeps serve_cli's default cache options (1024
// memory entries) plus a disk tier in a fresh directory, so once more than
// 1024 distinct results exist, repeats of older ones are read from disk.
const char* const kServeDesigns[] = {"s1196", "s1238", "s1423", "s1488"};
constexpr std::size_t kWaveRequests = 64;
constexpr std::size_t kNovelPerWave = kWaveRequests / 4;
constexpr int kWavesPerPass = 20;
constexpr std::uint64_t kServeCycles = 24;
constexpr const char* kServePreset = "fast";

/// The text after "payload": in a response line (the payload JSON and the
/// response's closing brace), or "" when there is none.
std::string payload_of(const std::string& line) {
  const std::size_t at = line.find("\"payload\":");
  return at == std::string::npos ? "" : line.substr(at + 10);
}

struct Sent {
  serve::Request request;
  std::string line;
  std::string payload;  // payload of the computed (first) answer
};

void serve_sweep(Run& run) {
  const std::filesystem::path root =
      std::filesystem::path(run.args().out_dir) / "serve-cache";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  // Set-up is a server's cold start: construction on an empty cache
  // directory (the cache creates it) and a first wave of one 12-cycle
  // convert per design, which loads each design once. The stream never
  // repeats these requests (its requests have kServeCycles cycles).
  std::vector<std::string> cold_wave;
  for (const char* name : kServeDesigns) {
    serve::Request req;
    req.id = std::string("cold-") + name;
    req.type = serve::JobType::kConvert;
    req.benchmark = name;
    req.spec.preset = kServePreset;
    req.spec.cycles = kServeCycles / 2;
    req.spec.seed = run.args().seed;
    cold_wave.push_back(serve::request_to_json(req));
  }
  int setup_rep = 0;
  std::unique_ptr<serve::Server> server;
  Throughput t;
  t.setup_s = timed_setup(
      run,
      [&](Tracer* tracer) {
        serve::ServerOptions options;
        options.cache.dir = (root / std::to_string(setup_rep++)).string();
        options.threads = executor_workers();
        auto s = std::make_unique<serve::Server>(options);
        const auto wave = [&] { return s->run_wave(cold_wave); };
        for (const serve::Outcome& o :
             tracer != nullptr ? tracer->span("serve", wave) : wave()) {
          if (!o.ok) run.fail_run("cold-start response not ok: " + o.line);
        }
        return s;
      },
      &server);
  const serve::ServerCounters cold = server->counters();

  const std::uint64_t seed_base = (run.args().seed % 100000) * 100000;
  std::uint64_t novel = 0;
  std::size_t next_repeat = 0;
  std::vector<Sent> history;
  std::vector<double> wave_ms, in_wave_ms;
  double reported = 0;
  const double window =
      run.traced() ? run.args().seconds / 2 : run.args().seconds;
  std::vector<std::size_t> computed;  // computed convert requests, in order
  const auto& registry = flow::backend_registry();
  // A pass is a block of kWavesPerPass consecutive waves.
  Throughput::Pass block;
  int block_waves = 0;
  std::uint64_t computed_before = cold.cells_computed;
  double elapsed = 0;

  while (elapsed < window) {
    std::vector<std::string> lines;
    std::vector<long> origin;  // history index of a repeat, -1 for novel
    const std::size_t first_new = history.size();
    for (std::size_t k = 0; k < kNovelPerWave; ++k, ++novel) {
      serve::Request req;
      req.id = "n" + std::to_string(novel);
      req.type = novel % 2 == 0 ? serve::JobType::kConvert
                                : serve::JobType::kPowerEval;
      req.benchmark = kServeDesigns[novel % std::size(kServeDesigns)];
      req.style =
          registry[(novel / std::size(kServeDesigns)) % registry.size()]->id();
      req.spec.preset = kServePreset;
      req.spec.cycles = kServeCycles;
      req.spec.seed = seed_base + novel;
      lines.push_back(serve::request_to_json(req));
      origin.push_back(-1);
      history.push_back({req, lines.back(), ""});
    }
    if (first_new > 0) {
      for (std::size_t k = kNovelPerWave; k < kWaveRequests; ++k) {
        if (next_repeat == first_new) next_repeat = 0;  // wrap round-robin
        const std::size_t h = next_repeat++;
        lines.push_back(history[h].line);
        origin.push_back(static_cast<long>(h));
      }
    }
    const double cpu0 = cpu_seconds();
    Stopwatch watch;
    const std::vector<serve::Outcome> outcomes =
        run.traced() ? run.tracer().span(
                           "serve", [&] { return server->run_wave(lines); })
                     : server->run_wave(lines);
    const double wall = watch.seconds();
    elapsed += wall;
    block.wall_s += wall;
    block.cpu_s += cpu_seconds() - cpu0;
    block.requests += static_cast<double>(lines.size());
    wave_ms.push_back(1e3 * wall);
    if (++block_waves == kWavesPerPass) {
      const std::uint64_t computed_now = server->counters().cells_computed;
      block.flows = static_cast<double>(computed_now - computed_before);
      computed_before = computed_now;
      t.add(block);
      block = {};
      block_waves = 0;
    }

    std::size_t next_new = first_new;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const serve::Outcome& o = outcomes[i];
      reported += o.latency_s;
      if (o.ok) in_wave_ms.push_back(1e3 * o.latency_s);
      const std::string payload = payload_of(o.line);
      std::string failure;
      if (!o.ok || payload.empty()) {
        failure = "response not ok: " + o.line.substr(0, 200);
      } else if (origin[i] < 0) {
        history[next_new].payload = payload;
        if (history[next_new].request.type == serve::JobType::kConvert) {
          computed.push_back(next_new);
        }
      } else if (!o.cached) {
        failure = "repeat missed the cache";
      } else if (payload != history[static_cast<std::size_t>(origin[i])].payload) {
        failure = "cached payload differs from the computed one";
      }
      if (origin[i] < 0) ++next_new;
      run.check("request " + o.line.substr(0, o.line.find(',')), failure);
    }
  }
  const serve::ServerCounters counters = server->counters();
  if (t.passes.empty()) {  // too few waves for a full block: use them all
    block.flows =
        static_cast<double>(counters.cells_computed - computed_before);
    t.add(block);
  }

  if (run.traced()) {
    // Rebuild the first computed convert cells under spans; each must match
    // run_flow and the payload the server returned for it.
    const double threads = static_cast<double>(thread_budget());
    FlowOptions options;
    flow::options_from_preset(kServePreset, &options);
    double untraced = 0, traced = 0;
    for (std::size_t k = 0; k < std::min<std::size_t>(6, computed.size()); ++k) {
      const Sent& sent = history[computed[k]];
      const circuits::Benchmark bench =
          circuits::make_benchmark(sent.request.benchmark);
      const Stimulus stimulus = circuits::make_stimulus(
          bench, circuits::Workload::kPaperDefault, kServeCycles,
          flow::task_seed(sent.request.spec.seed, sent.request.benchmark));
      const TracedCell cell =
          trace_cell(run, static_cast<int>(k),
                     sent.request.benchmark + "/" + token(sent.request.style),
                     bench, sent.request.style,
                     std::span<const Stimulus>(&stimulus, 1), options, nullptr);
      untraced += cell.untraced_s;
      traced += cell.traced_s;
      char hash[48];
      std::snprintf(hash, sizeof(hash), "\"stream_hash\":\"%016llx\"",
                    static_cast<unsigned long long>(cell.result.stream_hash));
      run.check("served payload " + sent.request.id,
                sent.payload.find(hash) == std::string::npos
                    ? "served stream hash differs from run_flow"
                    : "");
    }
    // The server's counters over the stream only, without the cold start.
    const auto hits =
        static_cast<double>(counters.cache.hits() - cold.cache.hits());
    const auto misses =
        static_cast<double>(counters.cache.misses - cold.cache.misses);
    per_layer_metrics(
        run,
        {.utilization = t.cpu_s() / (threads * t.wall_s()),
         .reported_over_wall = reported / (threads * t.wall_s())},
        {.busy_s = counters.busy_s - cold.busy_s,
         .hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0,
         .cells_computed =
             static_cast<double>(counters.cells_computed - cold.cells_computed),
         .disk_hits = static_cast<double>(counters.cache.disk_hits -
                                          cold.cache.disk_hits),
         .in_wave_p50_ms = median(in_wave_ms)});
    report_trace_overhead(run, untraced, traced);
  } else {
    end_to_end_metrics(run, t);
    std::sort(wave_ms.begin(), wave_ms.end());
    const double n = static_cast<double>(wave_ms.size());
    const auto rank = [&](double p) {
      return static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    };
    double tail_p = 50;
    for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
      if (n - static_cast<double>(rank(p)) >= 10) tail_p = p;
    }
    run.report("p50_ms", wave_ms[std::max<std::size_t>(rank(50), 1) - 1], "ms");
    run.report("tail_ms", wave_ms[std::max<std::size_t>(rank(tail_p), 1) - 1],
               "ms");
    run.report("tail_percentile", tail_p, "%");
    run.report("tail_samples", n, "count");
    run.report("tail_samples_beyond", n - static_cast<double>(rank(tail_p)),
               "count");
  }
  server.reset();  // flushes the cache before its directory goes
  std::filesystem::remove_all(root);
}

// --- main -----------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && !args->out_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_grid|macro_ladder|"
                 "verify_grid|serve_sweep --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR\n");
    return 2;
  }
  const std::map<std::string, void (*)(Run&)> workloads = {
      {"paper_grid", paper_grid},
      {"macro_ladder", macro_ladder},
      {"verify_grid", verify_grid},
      {"serve_sweep", serve_sweep},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  Run run(args);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "threads=%zu (%zu executor workers + the joining caller) "
              "build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), thread_budget(),
              executor_workers(), PERFBENCH_BUILD_TYPE);
  try {
    it->second(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  run.print_result();
  return 0;
}
