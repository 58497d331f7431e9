#pragma once

// Span aggregation for the traced run: folds the drained trace into self
// time per deck layer, plus the few inclusive span totals the per-layer
// metrics name.
//
// Attribution rule. Only coordinator spans (pid 0) under a bench.* root
// count. A span's self time is its duration minus its children's. Each span
// belongs to a layer chosen by name:
//   bench.apply / bench.flush / bench.query / serve.query   → serve
//   recovery.attempt / recovery.round                       → sketch
//   bench.solve (driver code outside any phase)             → ecss
//   Network phase spans                                     → phase_layer()
//   net.execute and everything under it                     → net
//   anything else (seq.execute, round, ...)                 → its parent's
// so engine rounds run for a phase are charged to that phase's layer,
// except over the TCP fleet, where the coordinator's execute span (barrier,
// routing and the wait on workers) is the net layer.

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

/// Layer names, in report order.
inline constexpr const char* kLayers[] = {"serve", "sketch", "congest", "mst", "decomp",
                                          "tap",   "ecss",   "cycles",  "net"};

/// deck's layer for a Network phase name: *.bfs → congest (primitives),
/// mst.* → mst, decomp.* → decomp, tap.* / ftmst.* → tap, 3ecss.aug →
/// cycles (cycle-space labels), other kecss/augment/2ecss/3ecss → ecss.
const char* phase_layer(const std::string& phase);

/// Phase name as a metric-name fragment: "kecss.aug1(mst)" → "kecss.aug1_mst".
std::string sanitize_phase(const std::string& phase);

struct TraceSummary {
  std::map<std::string, double> layer_self_s;  // keys from kLayers (+ "other")
  double roots_s = 0;           // total duration of the bench.* roots
  double serve_query_self_s = 0;
  double recovery_s = 0;        // inclusive recovery.attempt time
  double attempt_self_s = 0;    // recovery.attempt minus its rounds: bank
                                // clone, certificate build, clone release
  double recovery_round_s = 0;  // inclusive recovery.round time
  double worker_step_s = 0;     // worker.round spans, all worker lanes
  std::size_t events = 0;
};

TraceSummary summarize(std::span<const deck::obs::TraceEvent> events);

}  // namespace perfbench
