// End-to-end benchmark of the deck pipeline: stream → sketch → certificate →
// CONGEST 2/k/3-ECSS, driven through public entry points only.
//
//   perfbench_e2e --workload {serve-churn|ecss2-seq} --seed N
//                 --seconds S --trace {0|1} [--smoke] [--trace-out PATH]
//                 [--break {cert|ecss}]
//
// Each workload is a closed loop driven by one client. Inputs come from the
// seed; every timed call is timed from outside with steady_clock, and every
// output is checked outside the timed region. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (an untraced run
// followed by a traced pass with obs metrics and tracing on). `# host` and
// `# run` lines before it name the host, the options in effect, and how the
// tail percentile was taken. --smoke shrinks every size to seconds-long
// runs; --break drops one edge of each certificate (cert) or ECSS output
// (ecss) before its check, to prove the checks bite. Any failure makes the
// exit status nonzero.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "congest/network.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_3ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "fleet.hpp"
#include "graph/bridges.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "sketch/apply.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using deck::Graph;
using deck::GraphSession;
using deck::GraphStream;
using deck::Json;
using deck::StreamUpdate;
using deck::VertexId;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"pipeline_s", "s"},      {"ingest_updates_per_s", "updates/s"},
    {"query_p50_ms", "ms"},     {"query_tail_ms", "ms"},  {"peak_rss_mb", "MB"},
};

// Per-layer metrics other than the per-phase ones (see kPhases).
constexpr MetricDef kPerLayer[] = {
    {"solve_s", "s"},
    {"rounds", "count"},
    {"messages", "count"},
    {"ecss_weight", "weight"},
    {"error_rate", "fraction"},
    {"trace.pipeline_s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
    {"serve.open_s", "s"},
    {"serve.apply_s", "s"},
    {"serve.flush_s", "s"},
    {"serve.query_s", "s"},
    {"serve.gutter_flushes", "count"},
    {"serve.halves_per_flush", "halves"},
    {"serve.bank_reuses", "count"},
    {"serve.bank_replays", "count"},
    {"serve.gutter_flush_s", "s"},
    {"serve.query_self_s", "s"},
    {"sketch.recovery_rounds", "count"},
    {"sketch.samples", "count"},
    {"sketch.sample_fail_ratio", "ratio"},
    {"sketch.attempts", "count"},
    {"sketch.copies_used", "count"},
    {"sketch.cert_edges", "count"},
    {"sketch.recovery_s", "s"},
    {"sketch.recovery_round_s", "s"},
    {"sketch.attempt_self_s", "s"},
    {"layer.serve_s", "s"},
    {"layer.sketch_s", "s"},
    {"layer.congest_s", "s"},
    {"layer.mst_s", "s"},
    {"layer.decomp_s", "s"},
    {"layer.tap_s", "s"},
    {"layer.ecss_s", "s"},
    {"layer.cycles_s", "s"},
    {"layer.net_s", "s"},
    {"congest.us_per_round", "us"},
    {"congest.ns_per_message", "ns"},
    {"ecss.iterations", "count"},
    {"ecss.ecss2_rounds_over_budget", "ratio"},
    {"ecss.ecss3_rounds_over_budget", "ratio"},
    {"net.fleet_start_s", "s"},
    {"net.barrier_wait_s", "s"},
    {"net.wire_bytes_per_round", "B"},
    {"net.delta_frame_ratio", "ratio"},
    {"net.tx_bytes", "B"},
    {"net.rx_bytes", "B"},
    {"net.rx_wait_s", "s"},
    {"net.worker_step_s", "s"},
    {"net.worker_deaths", "count"},
    {"net.reassigns", "count"},
    {"net.pipelined_solve_s", "s"},
    {"net.unpipelined_solve_s", "s"},
};

// Network phases the workloads run (sanitized names). Each reports
// congest.<phase>_s / _rounds / _messages; phases that repeat within one
// solve also report _count. Phases outside this list fold into
// congest.other_phases_*.
constexpr const char* kPhases[] = {
    "2ecss.bfs",     "2ecss.mst",        "mst.stage1",    "mst.stage2",       "mst.orient",
    "decomp.mark",   "decomp.segments",  "decomp.knowledge", "tap.setup",     "tap.iteration",
    "kecss.bfs",     "kecss.aug1_mst",   "kecss.aug2",    "kecss.aug3",       "augment.setup",
    "augment.connector", "3ecss.base",   "3ecss.aug",
};
constexpr const char* kFoldedPhases[] = {"tap.iteration", "augment.connector"};

// Full-size vertex counts (--smoke shrinks each); kK3N sizes ecss2-seq's
// k = 3 probe.
constexpr int kServeN = 10000;
constexpr int kEcss2N = 3000;
constexpr int kK3N = 250;
// Setup is sampled this many times in fresh child processes, plus once in
// the run itself; setup_s is the median.
constexpr int kSetupProbes = 8;
// Queries per ecss2-seq pass: the client polls the certificate a few times
// before solving, so every run has enough query samples for a median and a
// tail.
constexpr int kEcss2Queries = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string break_what;  // "", "cert" or "ecss"
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Peak resident set (VmHWM) of this process.
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Live edge set as the client knows it (independent of the session).
class LiveSet {
 public:
  explicit LiveSet(int n) : n_(n) {}
  std::uint64_t key(VertexId u, VertexId v) const {
    const VertexId lo = std::min(u, v), hi = std::max(u, v);
    return static_cast<std::uint64_t>(lo) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(hi);
  }
  bool contains(VertexId u, VertexId v) const { return keys_.count(key(u, v)) != 0; }
  void apply(const StreamUpdate& up) {
    if (up.insert)
      keys_.insert(key(up.u, up.v));
    else
      keys_.erase(key(up.u, up.v));
  }

 private:
  int n_;
  std::unordered_set<std::uint64_t> keys_;
};

/// RMAT-skewed transient edges over a FIFO window: each pair inserts a fresh
/// non-live edge and deletes the oldest window edge, so a few hot vertices
/// take most of the writes while the live graph keeps its size.
class RmatChurn {
 public:
  RmatChurn(int n, std::uint64_t seed) : n_(n), rng_(seed) {
    while ((1 << levels_) < n) ++levels_;
    perm_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;
    rng_.shuffle(perm_);
  }

  /// Opens `count` window edges (inserts only).
  std::vector<StreamUpdate> fill(int count, LiveSet& live) {
    std::vector<StreamUpdate> out;
    for (int i = 0; i < count; ++i) out.push_back(open(live));
    return out;
  }

  /// `pairs` insert/delete pairs.
  std::vector<StreamUpdate> batch(int pairs, LiveSet& live) {
    std::vector<StreamUpdate> out;
    for (int i = 0; i < pairs; ++i) {
      out.push_back(open(live));
      const auto [u, v] = window_.front();
      window_.pop_front();
      out.push_back(StreamUpdate{u, v, false});
      live.apply(out.back());
    }
    return out;
  }

 private:
  StreamUpdate open(LiveSet& live) {
    for (;;) {
      VertexId u = 0, v = 0;
      for (int l = 0; l < levels_; ++l) {
        const double r = rng_.next_double();  // quadrants a=.57 b=.19 c=.19 d=.05
        const int q = r < 0.57 ? 0 : r < 0.76 ? 1 : r < 0.95 ? 2 : 3;
        u = 2 * u + (q >> 1);
        v = 2 * v + (q & 1);
      }
      if (u >= n_ || v >= n_ || u == v) continue;
      u = perm_[static_cast<std::size_t>(u)];
      v = perm_[static_cast<std::size_t>(v)];
      if (live.contains(u, v)) continue;
      window_.emplace_back(u, v);
      const StreamUpdate up{u, v, true};
      live.apply(up);
      return up;
    }
  }

  int n_;
  int levels_ = 0;
  deck::Rng rng_;
  std::vector<VertexId> perm_;
  std::deque<std::pair<VertexId, VertexId>> window_;
};

/// One edge incident to a minimum-degree vertex of the selected subgraph —
/// the edge whose loss is most likely to break k-edge-connectivity.
deck::EdgeId weakest_edge(const Graph& g, const std::vector<char>& in) {
  std::vector<int> deg(static_cast<std::size_t>(g.num_vertices()), 0);
  for (deck::EdgeId e = 0; e < g.num_edges(); ++e)
    if (in[static_cast<std::size_t>(e)] != 0) {
      ++deg[static_cast<std::size_t>(g.edge(e).u)];
      ++deg[static_cast<std::size_t>(g.edge(e).v)];
    }
  const auto vmin = static_cast<VertexId>(std::min_element(deg.begin(), deg.end()) - deg.begin());
  for (const deck::Adj& a : g.neighbors(vmin))
    if (in[static_cast<std::size_t>(a.edge)] != 0) return a.edge;
  return deck::kNoEdge;
}

struct PhaseAgg {
  double s = 0;
  std::uint64_t rounds = 0, messages = 0, count = 0;
};

/// Run-wide state: operation accounting, timings, and the traced pass's
/// per-layer numbers.
class Bench {
 public:
  explicit Bench(Args a) : args(std::move(a)) {}

  Args args;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_samples;
  double setup_extra_s = 0;  // Network/engine creation, added to the median
  std::vector<double> ingest_rates;  // updates/s of each ingest or batch
  std::uint64_t ingest_updates = 0;
  std::uint64_t rounds = 0, messages = 0;  // every solve of the run
  std::vector<double> query_ms;
  std::vector<double> pass_s;
  bool traced = false;  // inside the traced pass
  std::vector<double> traced_pass_s;
  std::map<std::string, double> layer;  // per-layer metric values
  std::map<std::string, PhaseAgg> phases;
  Json options = Json::object();
  int n = 0, k = 0;

  void fail(std::uint64_t count, const std::string& why) {
    failed += count;
    std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n", static_cast<unsigned long long>(count),
                 why.c_str());
  }

  /// Times `f` under a bench span; in the traced pass also adds the time to
  /// the per-layer bench timer `timer` (when given).
  template <class F>
  double timed(const char* span, const char* timer, F&& f) {
    const Clock::time_point t0 = Clock::now();
    {
      deck::obs::Span s(span);
      f();
    }
    const double dt = since(t0);
    if (traced && timer != nullptr) layer[timer] += dt;
    return dt;
  }

  /// Session setup sample, measured in a fresh child process.
  void setup_probe(const std::function<double()>& probe) {
    const double v = run_in_child(probe, 120.0);
    if (v < 0)
      fail(1, "setup probe child failed");
    else
      setup_samples.push_back(v);
  }

  double ingest(GraphSession& s, const GraphStream& stream) {
    attempted += stream.size();
    try {
      const double t = timed("bench.apply", "serve.apply_s", [&] { s.ingest(stream); }) +
                       timed("bench.flush", "serve.flush_s", [&] { s.flush(); });
      ingest_rates.push_back(static_cast<double>(stream.size()) / t);
      ingest_updates += stream.size();
      return t;
    } catch (const std::exception& e) {
      fail(stream.size(), std::string("ingest: ") + e.what());
      throw;
    }
  }

  double apply(GraphSession& s, const std::vector<StreamUpdate>& batch) {
    attempted += batch.size();
    try {
      const double t = timed("bench.apply", "serve.apply_s", [&] {
                         for (const StreamUpdate& u : batch) s.apply(u);
                       }) +
                       timed("bench.flush", "serve.flush_s", [&] { s.flush(); });
      ingest_rates.push_back(static_cast<double>(batch.size()) / t);
      ingest_updates += batch.size();
      return t;
    } catch (const std::exception& e) {
      fail(batch.size(), std::string("apply: ") + e.what());
      throw;
    }
  }

  /// Times one query and checks its certificate against the client's live
  /// edge set: inside the live graph, at most k(n-1) edges, k-edge-connected.
  double query(GraphSession& s, const LiveSet& live, deck::SparsifyResult& out) {
    ++attempted;
    double t = 0;
    try {
      t = timed("bench.query", "serve.query_s", [&] { out = s.query(); });
    } catch (const std::exception& e) {
      fail(1, std::string("query: ") + e.what());
      throw;
    }
    query_ms.push_back(t * 1e3);
    if (traced) {
      layer["sketch.recovery_rounds"] += out.stats.rounds;
      layer["sketch.samples"] += static_cast<double>(out.stats.samples);
      layer["sketch.failures"] += static_cast<double>(out.stats.failures);
      layer["sketch.attempts"] += out.attempts;
      layer["sketch.copies_used"] += out.copies_used;
      layer["sketch.cert_edges"] += out.certificate.num_edges();
      layer["queries"] += 1;
    }
    Graph cert = out.certificate;
    std::vector<char> all(static_cast<std::size_t>(cert.num_edges()), 1);
    if (args.break_what == "cert" && cert.num_edges() > 0) {
      const deck::EdgeId drop = weakest_edge(cert, all);
      std::vector<deck::EdgeId> keep;
      for (deck::EdgeId e = 0; e < cert.num_edges(); ++e)
        if (e != drop) keep.push_back(e);
      cert = cert.edge_subgraph(keep);
      all.assign(static_cast<std::size_t>(cert.num_edges()), 1);
    }
    const int sn = s.num_vertices(), sk = s.k();  // as the client opened it
    bool ok = cert.num_vertices() == sn && cert.num_edges() <= sk * (sn - 1);
    for (const deck::Edge& e : cert.edges()) ok = ok && live.contains(e.u, e.v);
    ok = ok && (sk == 2 ? deck::is_two_edge_connected(cert, all)
                        : deck::is_k_edge_connected(cert, all, sk));
    check(ok, "query certificate check");
    return t;
  }

  /// The final query must equal a one-shot recover_certificate over a fresh
  /// bank built from the client's own copy of every update sent.
  void check_one_shot(const deck::IngestOptions& opt, const std::vector<StreamUpdate>& sent,
                      const deck::SparsifyResult& last) {
    const deck::SparsifyResult ref = deck::recover_certificate(
        k, opt.sketch, opt.recovery, [&](const deck::SketchOptions& aopt) {
          deck::SketchConnectivity bank(n, aopt);
          for (const StreamUpdate& u : sent) bank.update(u.u, u.v, u.insert ? 1 : -1);
          return bank;
        });
    bool same = ref.copies_used == last.copies_used && ref.forests.size() == last.forests.size();
    for (std::size_t f = 0; same && f < ref.forests.size(); ++f) {
      same = ref.forests[f].size() == last.forests[f].size();
      for (std::size_t i = 0; same && i < ref.forests[f].size(); ++i)
        same = ref.forests[f][i].u == last.forests[f][i].u &&
               ref.forests[f][i].v == last.forests[f][i].v;
    }
    if (!same) fail(1, "final query differs from one-shot recover_certificate");
  }

  /// Solves on `net` under a bench.solve span; folds the phases in when
  /// traced. Returns the solve seconds.
  template <class F>
  double solve(deck::Network& net, F&& algorithm) {
    ++attempted;
    double t = 0;
    try {
      t = timed("bench.solve", "solve_s", [&] {
        algorithm();
        net.end_phase();
      });
    } catch (const std::exception& e) {
      fail(1, std::string("solve: ") + e.what());
      throw;
    }
    rounds += net.rounds();
    messages += net.messages();
    if (traced) {
      layer["rounds"] += static_cast<double>(net.rounds());
      layer["messages"] += static_cast<double>(net.messages());
      for (const deck::Network::PhaseStat& p : net.phases()) {
        PhaseAgg& a = phases[sanitize_phase(p.name)];
        a.s += static_cast<double>(p.wall_ns) * 1e-9;
        a.rounds += p.rounds;
        a.messages += p.messages;
        a.count += 1;
      }
    }
    return t;
  }

  /// Drops one edge (incident to a minimum-degree vertex) from an ECSS
  /// output when --break ecss asks for it.
  std::vector<char> output_mask(const Graph& g, const std::vector<deck::EdgeId>& edges) const {
    std::vector<char> mask = deck::edge_mask(g, edges);
    if (args.break_what == "ecss" && !edges.empty()) {
      const deck::EdgeId drop = weakest_edge(g, mask);
      if (drop != deck::kNoEdge) mask[static_cast<std::size_t>(drop)] = 0;
    }
    return mask;
  }

  void check(bool ok, const char* what) {
    if (!ok) fail(1, what);
  }
};

// ---------------------------------------------------------------------------
// Traced pass: obs on around a callable; the drained spans and the metrics
// registry become per-layer numbers.

struct Capture {
  std::vector<deck::obs::TraceEvent> events;
  deck::obs::Snapshot snap;
};

/// Runs `f` with obs metrics and tracing on, from a clean registry and sink.
template <class F>
Capture capture(const Bench& b, F&& f) {
  deck::obs::Registry::global().reset();
  deck::obs::TraceSink::global().clear();
  deck::obs::set_trace_id(0xbe7c4 ^ b.args.seed);
  deck::obs::set_enabled(true);
  deck::obs::set_tracing(true);
  f();
  deck::obs::set_tracing(false);
  deck::obs::set_enabled(false);
  return Capture{deck::obs::TraceSink::global().drain(), deck::obs::Registry::global().scrape()};
}

/// The net layer's registry metrics, worker step time and net self time of a
/// capture; all 0 when it ran no fleet.
void record_net(Bench& b, const Capture& c, const TraceSummary& sum) {
  const deck::obs::Snapshot& snap = c.snap;
  const auto hist_sum = [&](const char* name) {
    const auto* h = snap.histogram(name);
    return h != nullptr ? static_cast<double>(h->sum) : 0.0;
  };
  const auto hist_count = [&](const char* name) {
    const auto* h = snap.histogram(name);
    return h != nullptr ? static_cast<double>(h->count) : 0.0;
  };
  b.layer["layer.net_s"] = sum.layer_self_s.count("net") != 0 ? sum.layer_self_s.at("net") : 0.0;
  b.layer["net.worker_step_s"] = sum.worker_step_s;
  b.layer["net.barrier_wait_s"] = hist_sum("congest.net.barrier_wait_ns") * 1e-9;
  const double wire_rounds = hist_count("congest.net.round_wire_bytes");
  b.layer["net.wire_bytes_per_round"] =
      wire_rounds > 0 ? hist_sum("congest.net.round_wire_bytes") / wire_rounds : 0;
  const double delta = static_cast<double>(snap.counter("congest.net.delta_frames"));
  const double full = static_cast<double>(snap.counter("congest.net.full_frames"));
  b.layer["net.delta_frame_ratio"] = delta + full > 0 ? delta / (delta + full) : 0;
  b.layer["net.tx_bytes"] = static_cast<double>(snap.counter("net.tx.bytes"));
  b.layer["net.rx_bytes"] = static_cast<double>(snap.counter("net.rx.bytes"));
  b.layer["net.rx_wait_s"] = hist_sum("net.rx.wait_ns") * 1e-9;
  b.layer["net.worker_deaths"] = static_cast<double>(snap.counter("congest.net.worker_deaths"));
  b.layer["net.reassigns"] = static_cast<double>(snap.counter("congest.net.reassigns"));
  if (b.layer["net.worker_deaths"] > 0)
    b.fail(static_cast<std::uint64_t>(b.layer["net.worker_deaths"]), "worker death");
}

void write_trace(const Capture& c, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << deck::obs::chrome_trace_json(c.events);
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

/// Traces one timed pass: layer self times, coverage, the serve/sketch span
/// metrics and the net registry metrics (0 unless the pass used a fleet).
template <class F>
void traced_pass(Bench& b, F&& pass) {
  b.traced = true;
  const Capture c = capture(b, pass);
  b.traced = false;

  const TraceSummary sum = summarize(c.events);
  double covered = 0;
  for (const char* l : kLayers) {
    const double v = sum.layer_self_s.count(l) != 0 ? sum.layer_self_s.at(l) : 0.0;
    b.layer[std::string("layer.") + l + "_s"] = v;
    covered += v;
  }
  const double traced_total = b.layer["serve.apply_s"] + b.layer["serve.flush_s"] +
                              b.layer["serve.query_s"] + b.layer["solve_s"];
  b.layer["trace.coverage"] = traced_total > 0 ? covered / traced_total : 0;
  b.layer["serve.query_self_s"] = sum.serve_query_self_s;
  b.layer["sketch.recovery_s"] = sum.recovery_s;
  b.layer["sketch.recovery_round_s"] = sum.recovery_round_s;
  b.layer["sketch.attempt_self_s"] = sum.attempt_self_s;
  const auto* flush = c.snap.histogram("serve.gutter.flush_ns");
  b.layer["serve.gutter_flush_s"] = flush != nullptr ? static_cast<double>(flush->sum) * 1e-9 : 0;
  record_net(b, c, sum);
  write_trace(c, b.args.trace_out);
  std::fprintf(stderr, "perfbench: traced pass: %zu spans, layer self time (s):\n", sum.events);
  for (const char* l : kLayers)
    std::fprintf(stderr, "  %-8s %10.4f\n", l, b.layer[std::string("layer.") + l + "_s"]);
}

void record_session_stats(Bench& b, const deck::SessionStats& st) {
  b.layer["serve.gutter_flushes"] = static_cast<double>(st.gutter.flushes);
  b.layer["serve.halves_per_flush"] =
      st.gutter.flushes > 0 ? static_cast<double>(st.gutter.flushed_halves) /
                                  static_cast<double>(st.gutter.flushes)
                            : 0;
  b.layer["serve.bank_reuses"] = static_cast<double>(st.bank_reuses);
  b.layer["serve.bank_replays"] = static_cast<double>(st.bank_replays);
}

Json ingest_options_json(const deck::IngestOptions& o) {
  Json j = Json::object();
  j.set("mode", o.mode == deck::IngestMode::kSequential ? "sequential"
                : o.mode == deck::IngestMode::kSharded  ? "sharded"
                                                        : "coordinated");
  j.set("backend", o.shard.backend == deck::ApplyBackend::kScalar ? "scalar" : "simd");
  j.set("sketch_columns", o.sketch.columns);
  j.set("sketch_rounds_slack", o.sketch.rounds_slack);
  j.set("auto_size", o.sketch.auto_size.enabled);
  j.set("gutter_max_halves", static_cast<std::uint64_t>(o.gutter.policy.max_halves));
  j.set("recovery_threads", o.recovery.threads);
  return j;
}

/// One seeded input: a k-edge-connected graph (random_kec with 2n extra
/// edges) streamed in shuffled order with churn·m transient insert/delete
/// pairs, and the client's copy of its live edge set.
struct Instance {
  GraphStream stream;
  LiveSet live;
};

Instance make_instance(int n, int k, double churn, std::uint64_t seed) {
  deck::Rng rng(seed);
  const Graph g = deck::random_kec(n, k, 2 * n, rng);
  GraphStream stream = GraphStream::from_graph(g, rng);
  stream.churn(static_cast<int>(churn * g.num_edges()), rng);
  LiveSet live(n);
  for (const StreamUpdate& u : stream.updates()) live.apply(u);
  return Instance{std::move(stream), std::move(live)};
}

/// Seed of pass `index`'s instance: passes of one run see distinct graphs,
/// so a pass median averages over instances as well as over noise. Traced
/// passes reuse instance 0, so their counters (rounds, messages, weights)
/// repeat exactly across runs of one seed however many passes fit.
std::uint64_t instance_seed(const Bench& b, std::size_t index) {
  return b.args.seed * 0x100000001b3ULL + index;
}

// ---------------------------------------------------------------------------
// serve-churn: a live session under skewed churn, queried after every batch.

void run_serve_churn(Bench& b) {
  const bool smoke = b.args.smoke;
  b.n = smoke ? 400 : kServeN;
  b.k = 2;
  const int n = b.n, k = b.k;
  const int pairs = smoke ? 50 : 1000;
  const int traced_cycles = smoke ? 3 : 8;

  Instance inst = make_instance(n, k, /*churn=*/0.5, b.args.seed);
  GraphStream& base = inst.stream;
  LiveSet& live = inst.live;
  RmatChurn churn(n, b.args.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (const StreamUpdate& u : churn.fill(pairs, live)) base.insert(u.u, u.v);
  std::vector<StreamUpdate> sent(base.updates().begin(), base.updates().end());

  const deck::IngestOptions iopt;
  b.options.set("ingest", ingest_options_json(iopt));
  b.options.set("batch_updates", 2 * pairs);

  for (int i = 0; i < kSetupProbes; ++i)
    b.setup_probe([&] {
      const Clock::time_point t0 = Clock::now();
      GraphSession s(n, k, iopt);
      return since(t0);
    });
  std::optional<GraphSession> session;
  const Clock::time_point t0 = Clock::now();
  session.emplace(n, k, iopt);
  const double open_s = since(t0);
  b.setup_samples.push_back(open_s);
  b.layer["serve.open_s"] = open_s;

  deck::SparsifyResult last;
  try {
    b.ingest(*session, base);
    const auto cycle = [&] {
      const std::vector<StreamUpdate> batch = churn.batch(pairs, live);
      sent.insert(sent.end(), batch.begin(), batch.end());
      const double t = b.apply(*session, batch) + b.query(*session, live, last);
      (b.traced ? b.traced_pass_s : b.pass_s).push_back(t);
    };
    const Clock::time_point loop = Clock::now();
    while (b.pass_s.empty() || since(loop) < b.args.seconds) cycle();
    if (b.args.trace)
      traced_pass(b, [&] {
        for (int i = 0; i < traced_cycles; ++i) cycle();
      });
    record_session_stats(b, session->stats());
    session.reset();  // frees the live bank before the one-shot reference
    b.check_one_shot(iopt, sent, last);
  } catch (const std::exception&) {
    // Counted where it was thrown; the run reports and exits nonzero.
  }
}

// ---------------------------------------------------------------------------
// k = 3 probe, part of ecss2-seq's traced run: one k = 3 instance's
// certificate, then distributed_kecss(3) and the unweighted 3-ECSS on seq
// (inside the traced pass: the only run of the cycles layer), then the same
// solves over two forked TCP workers (traced apart: the net layer), which
// must equal the seq ones. It is not timed end to end: its working set
// fits in cache, and on a shared 4-vCPU host the wall time of such a loop
// swung 40 % from one minute to the next for the same input, past any
// bound; a round over TCP adds a wakeup ping-pong between three processes.

struct K3Solved {
  deck::KecssResult k;
  deck::Ecss3Result u;
  std::uint64_t k_rounds = 0, k_messages = 0, u_rounds = 0, u_messages = 0;
};

struct K3Probe {
  Graph w;  // the certificate with uniform weights in [1, n]
  Graph u;  // the certificate, unweighted
  K3Solved seq;
};

/// Both solves of one certificate on seq (no fleet) or over a fleet; both
/// outputs must be 3-edge-connected. Returns the solve seconds.
double solve_k3(Bench& b, const K3Probe& p, ForkedFleet* f, K3Solved& out) {
  std::optional<deck::Network> kn, un;
  if (f != nullptr) {
    kn.emplace(p.w, f->hub());
    un.emplace(p.u, f->hub());
  } else {
    kn.emplace(p.w);
    un.emplace(p.u);
  }
  double t = b.solve(*kn, [&] { out.k = deck::distributed_kecss(*kn, 3, deck::KecssOptions{}); });
  t += b.solve(*un,
               [&] { out.u = deck::distributed_3ecss_unweighted(*un, deck::Ecss3Options{}); });
  out.k_rounds = kn->rounds();
  out.k_messages = kn->messages();
  out.u_rounds = un->rounds();
  out.u_messages = un->messages();
  b.check(deck::is_k_edge_connected(p.w, b.output_mask(p.w, out.k.edges), 3),
          "k-ECSS output is not 3-edge-connected");
  b.check(deck::is_k_edge_connected(p.u, b.output_mask(p.u, out.u.edges), 3),
          "3-ECSS output is not 3-edge-connected");
  return t;
}

/// One k = 3 instance through a session to its certificate, then the seq
/// solves. Inside the traced pass, its calls count in the layers.
K3Probe k3_probe(Bench& b, std::uint64_t seed) {
  const int n = b.args.smoke ? 60 : kK3N;
  const deck::IngestOptions iopt;
  Instance inst = make_instance(n, 3, /*churn=*/0.5, seed);
  deck::SparsifyResult cert;
  {
    GraphSession session(n, 3, iopt);
    b.ingest(session, inst.stream);
    b.query(session, inst.live, cert);
  }
  deck::Rng wrng(seed ^ 0x5eedULL);
  K3Probe p{deck::with_weights(cert.certificate, deck::WeightModel::kUniform, wrng),
            cert.certificate, {}};
  solve_k3(b, p, nullptr, p.seq);
  if (b.traced) {
    b.layer["ecss_weight"] +=
        static_cast<double>(p.seq.k.weight) + static_cast<double>(p.seq.u.size);
    b.layer["ecss.iterations"] += p.seq.k.iterations + p.seq.u.iterations;
    const double d = deck::diameter(p.u), ln = std::log2(static_cast<double>(n));
    b.layer["ecss.ecss3_rounds_over_budget"] =
        static_cast<double>(p.seq.u_rounds) / (d * ln * ln * ln);
  }
  return p;
}

/// The probe's solves over `f`, checked against seq; returns the seconds.
double k3_fleet_check(Bench& b, const K3Probe& p, ForkedFleet& f) {
  K3Solved out;
  const double t = solve_k3(b, p, &f, out);
  b.check(out.k.edges == p.seq.k.edges && out.k_rounds == p.seq.k_rounds &&
              out.k_messages == p.seq.k_messages,
          "k-ECSS over TCP differs from seq");
  b.check(out.u.edges == p.seq.u.edges && out.u_rounds == p.seq.u_rounds &&
              out.u_messages == p.seq.u_messages,
          "3-ECSS over TCP differs from seq");
  return t;
}

/// The net layer: the probe's solves traced over a fleet of two forked TCP
/// workers (comm-thread pipelining off: with it on, 2 workers run 6
/// threads on a 4-vCPU host), then untraced on a pipelined fleet and again
/// on the first one.
void k3_net(Bench& b, const K3Probe& p) {
  deck::WorkerOptions wopt;
  wopt.pipeline = false;
  deck::WorkerOptions piped_wopt;
  piped_wopt.pipeline = true;
  const deck::DistributedHubOptions hopt;
  Json o = Json::object();
  o.set("n", b.args.smoke ? 60 : kK3N);
  o.set("k", 3);
  o.set("engine", "seq, then net");
  o.set("workers", 2);
  o.set("transport", "tcp 127.0.0.1, forked workers");
  o.set("delta_frames", hopt.delta_frames);
  o.set("pipeline", wopt.pipeline);
  o.set("worker_threads", wopt.threads);
  o.set("checkpoint_interval", hopt.checkpoint_interval);
  o.set("weights", "kecss uniform [1, n]; 3ecss unweighted");
  b.options.set("k3_probe", o);

  // A hung worker is SIGKILLed; the coordinator then fails typed.
  Watchdog hang_guard(120, /*fatal=*/false);
  const Clock::time_point f0 = Clock::now();
  ForkedFleet fleet(2, wopt, hopt);
  b.layer["net.fleet_start_s"] = since(f0);
  const Capture c = capture(b, [&] { k3_fleet_check(b, p, fleet); });
  const TraceSummary sum = summarize(c.events);
  record_net(b, c, sum);
  std::string path = b.args.trace_out;
  if (!path.empty()) {
    const std::size_t ext = path.rfind(".json");
    write_trace(c, path.insert(ext == std::string::npos ? path.size() : ext, "-fleet"));
  }
  std::fprintf(stderr, "perfbench: traced fleet solve: %zu spans, net self time %.4f s\n",
               sum.events, b.layer["layer.net_s"]);
  ForkedFleet piped(2, piped_wopt, hopt);
  b.layer["net.pipelined_solve_s"] = k3_fleet_check(b, p, piped);
  b.layer["net.unpipelined_solve_s"] = k3_fleet_check(b, p, fleet);
  for (ForkedFleet* f : {&piped, &fleet}) {
    const int unclean = f->stop();
    if (unclean > 0) b.fail(static_cast<std::uint64_t>(unclean), "worker process died");
  }
}

// ---------------------------------------------------------------------------
// ecss2-seq: per pass, a fresh instance bulk-ingested, queried a few times,
// and distributed_2ecss on the seq engine over its weighted certificate.
// The traced run adds the k = 3 probe.

void run_ecss2_seq(Bench& b) {
  b.n = b.args.smoke ? 300 : kEcss2N;
  b.k = 2;
  const int n = b.n, k = b.k;

  const deck::IngestOptions iopt;
  b.options.set("ingest", ingest_options_json(iopt));
  b.options.set("engine", "seq");
  b.options.set("weights", "uniform [1, n]");

  for (int i = 0; i < kSetupProbes; ++i)
    b.setup_probe([&] {
      const Clock::time_point t0 = Clock::now();
      GraphSession s(n, k, iopt);
      return since(t0);
    });

  std::optional<Instance> inst;
  deck::SparsifyResult last;
  const auto pass = [&] {
    const std::uint64_t pass_seed = instance_seed(b, b.traced ? 0 : b.pass_s.size());
    inst.emplace(make_instance(n, k, /*churn=*/0, pass_seed));
    const bool first = b.pass_s.empty() && !b.traced;
    std::optional<GraphSession> session;
    const Clock::time_point t0 = Clock::now();
    session.emplace(n, k, iopt);
    const double open_s = since(t0);
    if (first) b.setup_samples.push_back(open_s);
    if (b.traced) b.layer["serve.open_s"] = open_s;
    double t = b.ingest(*session, inst->stream);
    for (int q = 0; q < kEcss2Queries; ++q) t += b.query(*session, inst->live, last);
    if (b.traced) record_session_stats(b, session->stats());
    session.reset();

    deck::Rng wrng(pass_seed ^ 0x5eedULL);
    const Graph w = deck::with_weights(last.certificate, deck::WeightModel::kUniform, wrng);
    const Clock::time_point t1 = Clock::now();
    deck::Network net(w);
    net.engine();
    if (first) b.setup_extra_s = since(t1);
    deck::Ecss2Result r;
    t += b.solve(net, [&] { r = deck::distributed_2ecss(net, deck::TapOptions{}); });
    deck::Weight wsum = 0;
    for (const deck::EdgeId e : r.edges) wsum += w.edge(e).w;
    b.check(wsum == r.weight && deck::is_two_edge_connected(w, b.output_mask(w, r.edges)),
            "2-ECSS output is not 2-edge-connected");
    if (b.traced) {
      b.layer["ecss_weight"] += static_cast<double>(r.weight);
      b.layer["ecss.iterations"] += r.tap_iterations;
      const double d = deck::diameter(last.certificate), ln = std::log2(static_cast<double>(n));
      b.layer["ecss.ecss2_rounds_over_budget"] =
          static_cast<double>(net.rounds()) / ((d + std::sqrt(static_cast<double>(n))) * ln * ln);
    }
    (b.traced ? b.traced_pass_s : b.pass_s).push_back(t);
  };

  try {
    const Clock::time_point loop = Clock::now();
    while (b.pass_s.empty() || since(loop) < b.args.seconds) pass();
    if (b.args.trace) {
      std::optional<K3Probe> k3;
      traced_pass(b, [&] {
        pass();
        k3.emplace(k3_probe(b, instance_seed(b, 0) ^ 0x3ULL));
      });
      k3_net(b, *k3);
    }
    b.check_one_shot(iopt, inst->stream.updates(), last);
  } catch (const std::exception&) {
  }
}

// ---------------------------------------------------------------------------

Json host_json(const Bench& b) {
  Json j = Json::object();
  j.set("nproc", static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  j.set("llc_bytes", static_cast<std::int64_t>(::sysconf(_SC_LEVEL3_CACHE_SIZE)));
  j.set("simd_apply_kernel", deck::simd_apply_kernel());
  j.set("compiler", PERFBENCH_COMPILER);
  j.set("build_type", PERFBENCH_BUILD_TYPE);
  j.set("workload", b.args.workload);
  j.set("seed", b.args.seed);
  j.set("n", b.n);
  j.set("k", b.k);
  j.set("smoke", b.args.smoke);
  j.set("options", b.options);
  return j;
}

/// Highest percentile with at least 10 samples above it; the maximum when
/// there are too few samples for one.
double tail(std::vector<double> v, double& pct) {
  if (v.empty()) {
    pct = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    pct = 100;
    return v.back();
  }
  const std::size_t i = v.size() - 11;
  pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  return v[i];
}

int run(const Args& args) {
  Bench b(args);
  if (args.workload == "serve-churn")
    run_serve_churn(b);
  else if (args.workload == "ecss2-seq")
    run_ecss2_seq(b);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  double tail_pct = 0;
  const double tail_ms = tail(b.query_ms, tail_pct);
  Json run_info = Json::object();
  run_info.set("passes", static_cast<std::uint64_t>(b.pass_s.size()));
  run_info.set("queries", static_cast<std::uint64_t>(b.query_ms.size()));
  run_info.set("query_tail_percentile", tail_pct);
  run_info.set("setup_samples", static_cast<std::uint64_t>(b.setup_samples.size()));
  run_info.set("ingest_updates", b.ingest_updates);
  run_info.set("rounds", b.rounds);
  run_info.set("messages", b.messages);
  run_info.set("pass_s", [&] {
    Json a = Json::array();
    for (const double t : b.pass_s) a.push(t);
    return a;
  }());
  std::printf("# host %s\n# run %s\n", host_json(b).dump().c_str(), run_info.dump().c_str());

  Json metrics = Json::object();
  const auto put = [&](const std::string& name, const char* unit, double v) {
    Json m = Json::object();
    m.set("value", v);
    m.set("unit", unit);
    metrics.set(name, m);
  };
  if (!args.trace) {
    std::map<std::string, double> e2e = {
        {"setup_s", median(b.setup_samples) + b.setup_extra_s},
        {"pipeline_s", median(b.pass_s)},
        {"ingest_updates_per_s", median(b.ingest_rates)},
        {"query_p50_ms", median(b.query_ms)},
        {"query_tail_ms", tail_ms},
        {"peak_rss_mb", peak_rss_mb()},
    };
    for (const MetricDef& d : kEndToEnd) put(d.name, d.unit, e2e[d.name]);
  } else {
    std::map<std::string, double>& L = b.layer;
    const double queries = L["queries"];
    const double per_query = queries > 0 ? 1.0 / queries : 0;
    L["sketch.sample_fail_ratio"] =
        L["sketch.samples"] > 0 ? L["sketch.failures"] / L["sketch.samples"] : 0;
    for (const char* c : {"sketch.recovery_rounds", "sketch.samples", "sketch.attempts",
                          "sketch.copies_used", "sketch.cert_edges"})
      L[c] *= per_query;
    L["congest.us_per_round"] = L["rounds"] > 0 ? L["solve_s"] * 1e6 / L["rounds"] : 0;
    L["congest.ns_per_message"] = L["messages"] > 0 ? L["solve_s"] * 1e9 / L["messages"] : 0;
    L["error_rate"] =
        b.attempted > 0 ? static_cast<double>(b.failed) / static_cast<double>(b.attempted) : 0;
    L["trace.pipeline_s"] = median(b.traced_pass_s);
    const double untraced = median(b.pass_s);
    L["trace.overhead"] = untraced > 0 ? L["trace.pipeline_s"] / untraced : 0;
    for (const MetricDef& d : kPerLayer) put(d.name, d.unit, L[d.name]);
    PhaseAgg other;
    for (const auto& [name, a] : b.phases)
      if (std::find_if(std::begin(kPhases), std::end(kPhases),
                       [&](const char* p) { return name == p; }) == std::end(kPhases)) {
        std::fprintf(stderr, "perfbench: phase '%s' folded into congest.other_phases\n",
                     name.c_str());
        other.s += a.s;
        other.rounds += a.rounds;
        other.messages += a.messages;
      }
    const auto put_phase = [&](const std::string& name, const PhaseAgg& a, bool folded) {
      put("congest." + name + "_s", "s", a.s);
      put("congest." + name + "_rounds", "count", static_cast<double>(a.rounds));
      put("congest." + name + "_messages", "count", static_cast<double>(a.messages));
      if (folded) put("congest." + name + "_count", "count", static_cast<double>(a.count));
    };
    for (const char* p : kPhases) {
      const bool folded = std::find_if(std::begin(kFoldedPhases), std::end(kFoldedPhases),
                                       [&](const char* f) { return std::strcmp(f, p) == 0; }) !=
                          std::end(kFoldedPhases);
      const auto it = b.phases.find(p);
      put_phase(p, it != b.phases.end() ? it->second : PhaseAgg{}, folded);
    }
    put_phase("other_phases", other, false);
  }

  const bool correct = b.failed == 0 && b.attempted > 0;
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", b.attempted);
  result.set("failed", b.failed);
  result.set("metrics", metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--break" && has_value) {
      args.break_what = argv[++i];
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload {serve-churn|ecss2-seq} --seed N --seconds S "
                   "--trace {0|1} [--smoke] [--trace-out PATH] [--break {cert|ecss}]\n",
                   argv[0]);
      return 2;
    }
  }
  if (args.workload.empty() || !(args.break_what.empty() || args.break_what == "cert" ||
                                 args.break_what == "ecss")) {
    std::fprintf(stderr, "perfbench: --workload is required; --break takes cert or ecss\n");
    return 2;
  }
  return perfbench::run(args);
}
