// Traced rebuild of one flow from the library's public stage functions.
//
// traced_flow() runs the same stages, in the same order and with the same
// arguments, as flow::run_flow() and the backend's ConversionBackend::
// convert(), recording a Tracer span around each call. Per-stage SEC and
// lint checkpoints always run inline on the calling thread, so a span
// never contains work of another flow or stage; `options.executor`, when
// set, is handed only to the stages that parallelize internally (retime,
// place, CTS), exactly as run_flow() hands it to them.
//
// The identity check (same_result) compares the rebuilt flow with a
// run_flow() result: registers, area bits, power bits, output-stream hash
// and timing_identity(). A mismatch means the per-layer numbers would not
// describe the shipped program, so callers count it as a failure.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "perfbench/trace.hpp"
#include "src/circuits/benchmark.hpp"
#include "src/flow/flow.hpp"

namespace perfbench {

/// What the identity check and the verdict checks read from one flow.
struct FlowDigest {
  int registers = 0;
  double area_um2 = 0;
  tp::PowerBreakdown power;
  std::uint64_t stream_hash = 0;
  std::string timing;  // tp::timing_identity of the signoff report
  bool proven = true;  // every SEC checkpoint proven (true when none ran)
  bool clean = true;   // every lint checkpoint clean (true when none ran)
};

FlowDigest digest(const tp::flow::FlowResult& result);

/// Empty when `a` and `b` agree bit for bit; otherwise names the first
/// field that differs.
std::string same_result(const FlowDigest& a, const FlowDigest& b);

/// Rebuilds run_flow(benchmark, style, lanes, options) under `tracer`.
FlowDigest traced_flow(const tp::circuits::Benchmark& benchmark,
                       tp::flow::DesignStyle style,
                       std::span<const tp::Stimulus> lanes,
                       const tp::flow::FlowOptions& options, Tracer& tracer);

}  // namespace perfbench
