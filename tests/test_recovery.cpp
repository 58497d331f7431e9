#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"
#include "serve/session.hpp"
#include "sketch/shard.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"

namespace deck {
namespace {

SketchConnectivity ingested_bank(const GraphStream& s, const SketchOptions& opt) {
  SketchConnectivity bank(s.num_vertices(), opt);
  for (const StreamUpdate& u : s.updates()) bank.update(u.u, u.v, u.insert ? 1 : -1);
  return bank;
}

TEST(ParallelRecovery, BitIdenticalToSequentialForEveryThreadCount) {
  // The tentpole property: parallel Borůvka-on-sketches recovery must be
  // *bit-identical* to the sequential path — same forests in the same order
  // AND the same post-recovery bank bytes (the peeled copies saw the same
  // erasures) — for every thread count.
  for (std::uint64_t seed : {5u, 19u}) {
    const GraphStream s = churned_stream(56, 2, seed);
    SketchOptions sopt;
    sopt.seed = 700 + seed;
    sopt.max_forests = 2;

    SketchConnectivity sequential = ingested_bank(s, sopt);
    const std::vector<std::uint8_t> ingested = encode_bank(sequential);
    const auto want = sequential.k_spanning_forests(2, {.threads = 1});
    const std::vector<std::uint8_t> want_bytes = encode_bank(sequential);

    for (int threads : {2, 4, 8}) {
      SketchConnectivity bank = decode_bank(ingested);
      const auto got = bank.k_spanning_forests(2, {.threads = threads});
      ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
      for (std::size_t f = 0; f < got.size(); ++f) {
        ASSERT_EQ(got[f].size(), want[f].size()) << "threads=" << threads;
        for (std::size_t i = 0; i < got[f].size(); ++i) {
          EXPECT_EQ(got[f][i].u, want[f][i].u) << "threads=" << threads;
          EXPECT_EQ(got[f][i].v, want[f][i].v) << "threads=" << threads;
        }
      }
      EXPECT_EQ(encode_bank(bank), want_bytes) << "threads=" << threads;
    }
  }
}

TEST(ParallelRecovery, SpanningForestMatchesAcrossThreads) {
  const GraphStream s = churned_stream(48, 2, 3);
  SketchOptions sopt;
  sopt.seed = 81;
  SketchConnectivity sequential = ingested_bank(s, sopt);
  const std::vector<SketchEdge> want = sequential.spanning_forest({.threads = 1});
  for (int threads : {2, 4, 8}) {
    SketchConnectivity bank = ingested_bank(s, sopt);
    const std::vector<SketchEdge> got = bank.spanning_forest({.threads = threads});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].u, want[i].u);
      EXPECT_EQ(got[i].v, want[i].v);
    }
    EXPECT_EQ(bank.copies_used(), sequential.copies_used());
  }
}

TEST(ParallelRecovery, ShardedPipelineEndToEndParallel) {
  // Parallel ingestion + parallel recovery together: certificate identical
  // to the fully sequential pipeline.
  const GraphStream s = churned_stream(64, 3, 9);
  SketchOptions sopt;
  sopt.seed = 4100;
  const SparsifyResult want = ingest(s, 3, {.sketch = sopt});
  IngestOptions sharded{.mode = IngestMode::kSharded, .sketch = sopt, .shard = {.shards = 4}};
  sharded.recovery.threads = 4;
  const SparsifyResult got = ingest(s, 3, sharded);
  EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests));
  ASSERT_EQ(got.certificate.num_edges(), want.certificate.num_edges());
  for (const Edge& e : want.certificate.edges()) EXPECT_TRUE(got.certificate.has_edge(e.u, e.v));
}

TEST(ParallelRecovery, StatsAccountForEveryRound) {
  const GraphStream s = churned_stream(40, 2, 7);
  SketchOptions sopt;
  sopt.seed = 321;
  sopt.max_forests = 2;
  SketchConnectivity bank = ingested_bank(s, sopt);
  const KForests r = bank.try_k_spanning_forests(2, {.threads = 2});
  ASSERT_TRUE(r.converged);
  // copies_used also counts the rotation to each forest's group boundary,
  // so it dominates the rounds that actually sampled.
  EXPECT_LE(r.stats.rounds, bank.copies_used());
  EXPECT_GE(r.stats.rounds, 1);
  EXPECT_EQ(static_cast<int>(r.stats.per_round.size()), r.stats.rounds);
  long long samples = 0, failures = 0;
  int merges = 0;
  for (const RoundStats& rs : r.stats.per_round) {
    EXPECT_GE(rs.components, 1);
    EXPECT_LE(rs.failures, rs.components);
    samples += rs.components;
    failures += rs.failures;
    merges += rs.merges;
  }
  EXPECT_EQ(samples, r.stats.samples);
  EXPECT_EQ(failures, r.stats.failures);
  std::size_t edges = 0;
  for (const auto& f : r.forests) edges += f.size();
  EXPECT_EQ(static_cast<std::size_t>(merges), edges);
}

TEST(ParallelRecovery, ResumeRequiresFreshBank) {
  const GraphStream s = churned_stream(24, 2, 1);
  SketchOptions sopt;
  sopt.seed = 11;
  SketchConnectivity bank = ingested_bank(s, sopt);
  (void)bank.spanning_forest();
  ASSERT_GT(bank.copies_used(), 0);
  const KForests prior;  // even an empty prior demands an unconsumed bank
  EXPECT_THROW((void)bank.try_k_spanning_forests(1, {}, &prior), std::logic_error);
}

TEST(ParallelRecovery, ResumeKeepsCompletedForestsVerbatim) {
  // Simulate a failed attempt by hand: recover one forest, declare the
  // second "failed" with a few of its edges, and resume on a fresh bank.
  // The completed forest must come back verbatim and the union must still
  // be a valid 2-certificate of the streamed graph.
  Rng rng(77);
  Graph g = random_kec(40, 2, 80, rng);
  const GraphStream s = GraphStream::from_graph(g, rng);
  SketchOptions sopt;
  sopt.seed = 1234;
  sopt.max_forests = 2;

  SketchConnectivity first = ingested_bank(s, sopt);
  KForests attempt = first.try_k_spanning_forests(2, {});
  ASSERT_TRUE(attempt.converged);
  ASSERT_EQ(attempt.forests.size(), 2u);
  // Truncate forest 2 to fake a mid-forest failure.
  KForests failed;
  failed.converged = false;
  failed.forests = attempt.forests;
  failed.forests[1].resize(failed.forests[1].size() / 2);

  SketchOptions retry_opt = sopt;
  retry_opt.seed = 4321;  // fresh randomness, as the adaptive loop would use
  retry_opt.max_forests = 1;
  SketchConnectivity second = ingested_bank(s, retry_opt);
  const KForests resumed = second.try_k_spanning_forests(2, {}, &failed);
  ASSERT_TRUE(resumed.converged);
  ASSERT_EQ(resumed.forests.size(), 2u);
  // Forest 1 carried verbatim.
  ASSERT_EQ(resumed.forests[0].size(), attempt.forests[0].size());
  for (std::size_t i = 0; i < resumed.forests[0].size(); ++i) {
    EXPECT_EQ(resumed.forests[0][i].u, attempt.forests[0][i].u);
    EXPECT_EQ(resumed.forests[0][i].v, attempt.forests[0][i].v);
  }
  // The carried partial prefix survives in forest 2.
  ASSERT_GE(resumed.forests[1].size(), failed.forests[1].size());
  // Union is edge-disjoint, real, and 2-edge-connected.
  auto pairs = sorted_pairs(resumed.forests);
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  Graph cert(g.num_vertices());
  for (const auto& f : resumed.forests)
    for (const SketchEdge& e : f) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      cert.add_edge(e.u, e.v, 1);
    }
  EXPECT_TRUE(is_k_edge_connected(cert, 2));
}

TEST(AutoSize, CertificateRemainsKEdgeConnected) {
  // The adaptive path must deliver the same guarantee as the fixed
  // worst-case sizing: <= k(n-1) real edges, k-edge-connected whenever the
  // input is, edge-disjoint forests — whatever sizing it settled on.
  for (int k : {2, 3}) {
    for (int n : {24, 48, 96}) {
      Rng rng(600 + n * k);
      Graph g = random_kec(n, k, n, rng);
      ASSERT_TRUE(is_k_edge_connected(g, k));
      GraphStream s = GraphStream::from_graph(g, rng);
      SketchOptions opt;
      opt.seed = 8100 + static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);
      opt.auto_size.enabled = true;
      const SparsifyResult r = ingest(s, k, {.sketch = opt});
      EXPECT_LE(r.certificate.num_edges(), k * (n - 1)) << "n=" << n << " k=" << k;
      EXPECT_TRUE(is_k_edge_connected(r.certificate, k)) << "n=" << n << " k=" << k;
      for (const Edge& e : r.certificate.edges()) EXPECT_TRUE(g.has_edge(e.u, e.v));
      auto pairs = sorted_pairs(r.forests);
      EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
      EXPECT_GE(r.attempts, 1);
      EXPECT_LE(r.attempts, opt.auto_size.max_attempts);
      EXPECT_GE(r.columns_used, opt.auto_size.initial_columns);
      // Spot-check the telemetry the policy acts on (copies_used includes
      // forest-group rotation, so it dominates the sampling rounds).
      EXPECT_GE(r.copies_used, r.stats.rounds);
      EXPECT_GE(r.stats.rounds, 1);
    }
  }
}

TEST(AutoSize, DeterministicGivenSeed) {
  const GraphStream s = churned_stream(40, 2, 13);
  SketchOptions opt;
  opt.seed = 2024;
  opt.auto_size.enabled = true;
  const SparsifyResult a = ingest(s, 2, {.sketch = opt});
  const SparsifyResult b = ingest(s, 2, {.sketch = opt});
  EXPECT_EQ(sorted_pairs(a.forests), sorted_pairs(b.forests));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.columns_used, b.columns_used);
  EXPECT_EQ(a.rounds_slack_used, b.rounds_slack_used);
  EXPECT_EQ(a.copies_used, b.copies_used);
}

TEST(AutoSize, ShardedMatchesSequentialAdaptive) {
  // Shards must agree on every attempt's sizing: a sharded session derives
  // each attempt's options from the same policy as a sequential one, so
  // its adaptive result is identical.
  const GraphStream s = churned_stream(48, 2, 29);
  SketchOptions opt;
  opt.seed = 555;
  opt.auto_size.enabled = true;
  const SparsifyResult want = ingest(s, 2, {.sketch = opt});
  IngestOptions sharded{.mode = IngestMode::kSharded, .sketch = opt, .shard = {.shards = 4}};
  sharded.recovery.threads = 2;
  const SparsifyResult got = ingest(s, 2, sharded);
  EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests));
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.columns_used, want.columns_used);
}

TEST(AutoSize, UndersizedFirstAttemptStillConverges) {
  // Force attempt-0 failures with a pathologically small sizing; the
  // geometric growth must still land on a valid certificate.
  const GraphStream s = churned_stream(96, 2, 41);
  SketchOptions opt;
  opt.seed = 97;
  opt.auto_size.enabled = true;
  opt.auto_size.initial_columns = 1;
  opt.auto_size.initial_rounds_slack = 1;
  opt.auto_size.max_attempts = 8;
  const SparsifyResult r = ingest(s, 2, {.sketch = opt});
  const Graph net = s.materialize();
  EXPECT_LE(r.certificate.num_edges(), 2 * (s.num_vertices() - 1));
  EXPECT_TRUE(is_k_edge_connected(r.certificate, 2));
  for (const Edge& e : r.certificate.edges()) EXPECT_TRUE(net.has_edge(e.u, e.v));
}

TEST(AutoSize, PolicyTravelsThroughWireFormat) {
  SketchOptions opt;
  opt.seed = 7;
  opt.auto_size.enabled = true;
  opt.auto_size.initial_columns = 3;
  opt.auto_size.max_attempts = 4;
  const SketchConnectivity bank(16, opt);
  const SketchConnectivity back = decode_bank(encode_bank(bank));
  EXPECT_TRUE(back.compatible(bank));
  EXPECT_EQ(back.options().auto_size, opt.auto_size);

  // Policy mismatch breaks compatibility — shards disagreeing on sizing
  // must not merge.
  SketchOptions other = opt;
  other.auto_size.initial_columns = 2;
  const SketchConnectivity skewed(16, other);
  EXPECT_FALSE(skewed.compatible(bank));
  SketchConnectivity into(16, opt);
  EXPECT_THROW(into.merge(skewed), std::logic_error);
}

TEST(AutoSize, RejectsInvalidPolicy) {
  SketchOptions opt;
  opt.auto_size.growth = 1;  // would never grow — a configuration bug
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
  opt.auto_size.growth = 2;
  opt.auto_size.max_attempts = 0;
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
  opt.auto_size.max_attempts = 1;
  opt.auto_size.initial_columns = 0;
  EXPECT_THROW(SketchConnectivity(8, opt), std::logic_error);
}

}  // namespace
}  // namespace deck
