#include "perfbench/rebuild.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/analysis/analysis.hpp"
#include "src/analysis/domains.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"
#include "src/netlist/traverse.hpp"
#include "src/place/placer.hpp"
#include "src/timing/incremental.hpp"

namespace perfbench {
namespace {

using namespace tp;
using flow::DesignStyle;
using flow::FlowOptions;

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

std::size_t live_cells(const Netlist& netlist) {
  return netlist.count_cells([](CellKind) { return true; });
}

/// The simulation run_flow() performs: every lane bit-parallel in one
/// WideSimulator pass when allowed, otherwise the scalar engine lane by
/// lane with the activity summed.
OutputStream simulate(const Netlist& netlist, std::span<const Stimulus> lanes,
                      std::size_t warmup, bool wide, ActivityStats* activity,
                      Tracer& tracer) {
  tracer.add("sim.cell_cycles", static_cast<double>(live_cells(netlist)) *
                                    static_cast<double>(lanes.front().size()) *
                                    static_cast<double>(lanes.size()));
  return tracer.span("sim", [&] {
    SimOptions options;
    options.snapshot_event = netlist.clocks().phases.size() >= 2 ? 1 : 0;
    if (wide && lanes.size() >= 2) {
      WideSimulator sim(netlist, lanes.size(), options);
      OutputStream stream = run_wide_stream(sim, pack_stimulus(lanes), warmup);
      *activity = sim.stats();
      return stream;
    }
    Simulator sim(netlist, options);
    OutputStream stream;
    ActivityStats total;
    total.net_toggles.assign(netlist.num_nets(), 0);
    for (const Stimulus& lane : lanes) {
      OutputStream s = run_stream(sim, lane, warmup);
      stream.insert(stream.end(), std::make_move_iterator(s.begin()),
                    std::make_move_iterator(s.end()));
      for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
        total.net_toggles[n] += sim.stats().net_toggles[n];
      }
      total.cycles += sim.stats().cycles;
    }
    *activity = std::move(total);
    return stream;
  });
}

/// The backends' retiming with timing-closure retries: progressively more
/// conservative attempts on a pristine copy until setup passes.
void retime_with_closure(Netlist& netlist, const CellLibrary& library,
                         Phase movable, const FlowOptions& options,
                         Tracer& tracer) {
  struct Attempt {
    double margin;
    bool full_borrowing;
  };
  const Netlist pristine = netlist;
  int attempts = 0;
  for (const Attempt attempt : {Attempt{120, false}, Attempt{300, false},
                                Attempt{120, true}, Attempt{500, true}}) {
    netlist = pristine;
    ++attempts;
    tracer.span("retime", [&] {
      return retime_inserted_latches(
          netlist, library,
          {.movable_phase = movable,
           .margin_ps = attempt.margin,
           .assume_full_borrowing = attempt.full_borrowing,
           .executor = options.executor});
    });
    const bool setup_ok = tracer.span("timing", [&] {
      return check_timing(netlist, library, options.timing).setup_ok;
    });
    if (setup_ok) break;
  }
  tracer.add("retime.closures", 1);
  tracer.add("retime.closure_attempts", attempts);
  tracer.add("retime.first_try", attempts == 1 ? 1 : 0);
}

}  // namespace

FlowDigest digest(const flow::FlowResult& result) {
  FlowDigest d;
  d.registers = result.registers;
  d.area_um2 = result.area_um2;
  d.power = result.power;
  d.stream_hash = flow::stream_hash(result.outputs);
  d.timing = timing_identity(result.timing);
  d.proven = result.equiv.all_proven();
  d.clean = result.lint.all_clean();
  return d;
}

std::string same_result(const FlowDigest& a, const FlowDigest& b) {
  if (a.registers != b.registers) return "registers";
  if (bits(a.area_um2) != bits(b.area_um2)) return "area";
  if (bits(a.power.clock_mw) != bits(b.power.clock_mw) ||
      bits(a.power.seq_mw) != bits(b.power.seq_mw) ||
      bits(a.power.comb_mw) != bits(b.power.comb_mw) ||
      bits(a.power.leakage_mw) != bits(b.power.leakage_mw)) {
    return "power";
  }
  if (a.stream_hash != b.stream_hash) return "stream hash";
  if (a.timing != b.timing) return "timing identity";
  if (a.proven != b.proven) return "SEC verdict";
  if (a.clean != b.clean) return "lint verdict";
  return "";
}

FlowDigest traced_flow(const circuits::Benchmark& benchmark,
                       DesignStyle style, std::span<const Stimulus> lanes,
                       const FlowOptions& options, Tracer& tracer) {
  FlowDigest out;
  // Kept past the flow span so the quality counters are computed outside
  // it and never count as flow time.
  std::optional<Netlist> final_netlist;
  std::optional<Placement> final_placement;
  tracer.span("flow", [&] {
    const flow::ConversionBackend& backend = flow::backend_for(style);
    CellLibrary library = CellLibrary::nominal_28nm();
    backend.adjust_library(library);
    Netlist netlist = benchmark.netlist;

    check::CheckOptions lint_options = options.lint;
    lint_options.ddcg_max_fanout = std::max(lint_options.ddcg_max_fanout,
                                            options.ddcg_options.max_fanout);
    analysis::AnalysisOptions analysis_options;
    analysis_options.check = lint_options;
    analysis_options.timing = options.timing;
    analysis_options.borrow_budget_ps = options.borrow_budget_ps;
    std::optional<analysis::AnalysisSession> session;
    if (options.check_analysis && options.incremental_analysis &&
        options.executor == nullptr) {
      netlist.enable_journal();
      session.emplace(analysis_options);
    }
    const auto checkpoint = [&](const char*) {
      if (options.check_equivalence) {
        const equiv::SecResult sec = tracer.span("equiv", [&] {
          return equiv::check_sequential_equivalence(benchmark.netlist,
                                                     netlist, options.sec);
        });
        tracer.add("equiv.sat_calls", static_cast<double>(sec.stats.sat_calls));
        tracer.add("equiv.sat_conflicts",
                   static_cast<double>(sec.stats.sat_conflicts));
        tracer.add("equiv.aig_nodes", static_cast<double>(sec.stats.aig_nodes));
        out.proven = out.proven && sec.status == equiv::SecStatus::kProven;
      }
      if (!options.check_rules && !options.check_analysis) return;
      check::CheckReport report;
      if (options.check_rules) {
        report = tracer.span(
            "check", [&] { return check::run_checks(netlist, lint_options); });
      }
      if (options.check_analysis) {
        report.merge(tracer.span("analysis", [&] {
          return session ? session->reanalyze(netlist, netlist.take_touched())
                         : analysis::run_analysis(netlist, analysis_options);
        }));
      }
      out.clean = out.clean && report.clean();
    };

    // Synthesis front end.
    tracer.span("transform.synthesis", [&] {
      return infer_clock_gating(netlist, options.synthesis_cg);
    });
    tracer.span("transform.synthesis", [&] {
      return buffer_high_fanout(netlist, options.buffering);
    });
    checkpoint("synthesis");

    // Conversion segment of each backend.
    switch (style) {
      case DesignStyle::kFlipFlop:
        break;
      case DesignStyle::kMasterSlave:
        netlist = tracer.span("transform.convert",
                              [&] { return to_master_slave(netlist); });
        checkpoint("convert");
        if (options.retime && options.retime_master_slave) {
          retime_with_closure(netlist, library, Phase::kClk, options, tracer);
          checkpoint("retime");
        }
        break;
      case DesignStyle::kThreePhase: {
        const PhaseAssignment assignment = tracer.span("phase", [&] {
          const RegisterGraph graph = build_register_graph(netlist);
          return assign_phases(graph, options.assign);
        });
        ThreePhaseOptions convert_options;
        convert_options.precomputed = &assignment;
        ThreePhaseResult converted = tracer.span("transform.convert", [&] {
          return to_three_phase(netlist, convert_options);
        });
        netlist = std::move(converted.netlist);
        tracer.add("phase.inserted_p2", converted.inserted_p2);
        checkpoint("convert");
        if (options.retime) {
          retime_with_closure(netlist, library, Phase::kP2, options, tracer);
          checkpoint("retime");
        }
        if (options.p2_common_enable_cg) {
          tracer.span("transform.gating", [&] {
            return gate_p2_latches(netlist, {.use_m1 = options.use_m1});
          });
          checkpoint("p2-gating");
        }
        if (options.use_m2) {
          tracer.span("transform.gating", [&] { return apply_m2(netlist); });
          checkpoint("m2");
        }
        if (options.ddcg) {
          ActivityStats activity;
          simulate(netlist, lanes, options.warmup_cycles, options.wide_sim,
                   &activity, tracer);
          tracer.span("transform.gating", [&] {
            return apply_ddcg(netlist, activity, options.ddcg_options);
          });
          checkpoint("ddcg");
        }
        break;
      }
      case DesignStyle::kPulsedLatch:
        netlist = tracer.span("transform.convert", [&] {
          return to_pulsed_latch(netlist, options.pulsed_latch).netlist;
        });
        checkpoint("convert");
        break;
      case DesignStyle::kTwoPhase:
        netlist = tracer.span("transform.convert", [&] {
          return to_two_phase(netlist, options.two_phase).netlist;
        });
        checkpoint("convert");
        break;
      case DesignStyle::kDetFf:
        netlist = tracer.span("transform.convert",
                              [&] { return to_det_ff(netlist).netlist; });
        checkpoint("convert");
        break;
    }

    // Hold repair and signoff on one incremental timing session.
    std::optional<IncrementalTimer> timer;
    if (options.incremental_timing) {
      netlist.enable_journal();
      timer.emplace(library, options.timing);
    }
    if (options.hold_repair) {
      const HoldRepairResult hold = tracer.span("timing", [&] {
        return repair_hold(netlist, library, options.timing, 10,
                           timer ? &*timer : nullptr);
      });
      tracer.add("timing.hold_buffers", hold.buffers_inserted);
      checkpoint("hold-repair");
    }
    const TimingReport report = tracer.span("timing", [&] {
      return timer ? timer->sync(netlist)
                   : check_timing(netlist, library, options.timing);
    });
    out.timing = timing_identity(report);
    if (timer) {
      const SmoEngine::Stats& stats = timer->stats();
      tracer.add("timing.full_runs", stats.full_runs);
      tracer.add("timing.incremental_runs", stats.incremental_runs);
      tracer.add("timing.skipped_runs", stats.skipped_runs);
      tracer.add("timing.cone_cells", static_cast<double>(stats.cone_cells));
    }

    // Physical design.
    PlaceOptions place_options = options.place;
    place_options.executor = options.executor;
    Placement placement = tracer.span(
        "place", [&] { return place(netlist, library, place_options); });
    CtsOptions cts_options = options.cts;
    cts_options.executor = options.executor;
    const ClockTreeReport clock_tree = tracer.span("cts", [&] {
      return synthesize_clock_trees(netlist, placement, cts_options);
    });

    // Validation stream and power.
    ActivityStats activity;
    const OutputStream outputs =
        simulate(netlist, lanes, options.warmup_cycles, options.wide_sim,
                 &activity, tracer);
    out.registers = static_cast<int>(netlist.registers().size());
    out.area_um2 = library.total_area_um2(netlist) +
                   clock_tree.buffer_area_um2(library);
    out.power = tracer.span("power", [&] {
      return compute_power(netlist, library, activity, &placement,
                           &clock_tree);
    });
    out.stream_hash = flow::stream_hash(outputs);
    tracer.add("cts.buffers", clock_tree.total_buffers);
    final_netlist.emplace(std::move(netlist));
    final_placement.emplace(std::move(placement));
  });
  tracer.add("place.cells", static_cast<double>(live_cells(*final_netlist)));
  tracer.add("place.hpwl_um", final_placement->total_hpwl_um(*final_netlist));
  return out;
}

}  // namespace perfbench
