#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "serve/session.hpp"
#include "sketch/shard.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

TEST(SplitSeed, MatchesSplitMixStream) {
  // split_seed(base, i) is defined as the i-th SplitMix64 output — the O(1)
  // jump must agree with actually stepping the generator.
  const std::uint64_t base = 0xfeedULL;
  std::uint64_t state = base;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t stepped = splitmix64(state);
    EXPECT_EQ(split_seed(base, i), stepped) << i;
  }
}

TEST(SplitSeed, NearbyBasesAndIndicesDecorrelate) {
  // The failure mode of `base + f(index)` seeding: adjacent bases sharing an
  // arithmetic progression collide across streams. split_seed children must
  // all be distinct across a block of nearby (base, index) pairs.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base)
    for (std::uint64_t i = 0; i < 64; ++i) seen.push_back(split_seed(base, i));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstJobError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
  // The pool stays usable after an error is collected.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, ForRangeCoversRangeExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.for_range(hits.size(), [&hits](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Empty ranges are a no-op.
    pool.for_range(0, [](std::size_t, std::size_t) { FAIL() << "called on empty range"; });
  }
}

TEST(ThreadPool, ForRangeRethrowsBodyError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_range(100,
                              [](std::size_t b, std::size_t) {
                                if (b == 0) throw std::logic_error("boom");
                              }),
               std::logic_error);
  // Pool stays usable afterwards.
  std::atomic<int> ran{0};
  pool.for_range(10, [&ran](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(BatchQueue, EachBatchClaimedExactlyOnce) {
  std::vector<SourceBatch> batches;
  for (int i = 0; i < 200; ++i) batches.push_back({static_cast<VertexId>(i % 13), {}});
  BatchQueue q(std::move(batches));
  ASSERT_EQ(q.size(), 200u);

  std::vector<std::vector<const SourceBatch*>> claims(4);
  ThreadPool pool(4);
  for (int t = 0; t < 4; ++t)
    pool.submit([&q, &claims, t] {
      while (const SourceBatch* b = q.try_pop()) claims[static_cast<std::size_t>(t)].push_back(b);
    });
  pool.wait();

  std::vector<const SourceBatch*> all;
  for (const auto& c : claims) all.insert(all.end(), c.begin(), c.end());
  EXPECT_EQ(all.size(), 200u);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());  // no batch handed out twice
  EXPECT_EQ(q.claimed(), 200u);
  EXPECT_EQ(q.try_pop(), nullptr);
}

TEST(CollectBatches, MatchesApplyBatchedDelivery) {
  GraphStream s = churned_stream(24, 2, 11);
  std::vector<SourceBatch> expected;
  apply_batched(s, 7, [&expected](VertexId src, std::span<const VertexDelta> deltas) {
    expected.push_back({src, std::vector<VertexDelta>(deltas.begin(), deltas.end())});
  });
  const std::vector<SourceBatch> got = collect_batches(s, 7);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, expected[i].src);
    ASSERT_EQ(got[i].deltas.size(), expected[i].deltas.size());
    for (std::size_t j = 0; j < got[i].deltas.size(); ++j) {
      EXPECT_EQ(got[i].deltas[j].dst, expected[i].deltas[j].dst);
      EXPECT_EQ(got[i].deltas[j].delta, expected[i].deltas[j].delta);
    }
  }
}

TEST(ShardOf, PartitionsEveryVertexInRange) {
  for (Sharding mode : {Sharding::kHash, Sharding::kVertexRange}) {
    ShardOptions opt;
    opt.shards = 5;
    opt.sharding = mode;
    for (VertexId v = 0; v < 64; ++v) {
      const int s = shard_of(v, 64, opt);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, opt.shards);
    }
  }
  ShardOptions dyn;
  dyn.sharding = Sharding::kDynamic;
  EXPECT_THROW(shard_of(0, 4, dyn), std::logic_error);
}

TEST(ShardedIngest, BankBitIdenticalToSequential) {
  // The heart of the sharding contract: for every shard count and mode, the
  // merged bank's serialized bytes equal the sequential ingester's — not
  // merely an equivalent sketch, the identical one.
  const GraphStream s = churned_stream(48, 2, 21);
  SketchOptions sopt;
  sopt.seed = 99;
  sopt.max_forests = 2;

  SketchConnectivity sequential(s.num_vertices(), sopt);
  for (const StreamUpdate& u : s.updates()) sequential.update(u.u, u.v, u.insert ? 1 : -1);
  const std::vector<std::uint8_t> want = encode_bank(sequential);

  for (Sharding mode : {Sharding::kHash, Sharding::kVertexRange, Sharding::kDynamic}) {
    for (int shards : {1, 2, 3, 4, 8}) {
      ShardOptions opt;
      opt.shards = shards;
      opt.batch_size = 17;
      opt.sharding = mode;
      ShardIngestResult r = apply_sharded(s, sopt, opt);
      EXPECT_EQ(encode_bank(r.sketch), want)
          << "shards=" << shards << " mode=" << static_cast<int>(mode);
      // Accounting: every directed half ingested exactly once, somewhere.
      EXPECT_EQ(std::accumulate(r.shard_halves.begin(), r.shard_halves.end(), std::size_t{0}),
                2 * s.size());
    }
  }
}

TEST(ShardedIngest, ShardCountNeverChangesRecoveredForests) {
  // Property test for the seed-splitting fix: across seeds, shard counts,
  // and gutter flush sizes, the recovered forest set is the sequential one.
  // (A kSharded session's gutters are always vertex ranges; the bank-level
  // test above covers every Sharding mode of apply_sharded.)
  for (std::uint64_t seed : {3u, 7u, 31u}) {
    const GraphStream s = churned_stream(40, 2, seed);
    SketchOptions sopt;
    sopt.seed = 1000 + seed;
    const SparsifyResult sequential = ingest(s, 2, {.sketch = sopt});
    const auto want = sorted_pairs(sequential.forests);
    for (int shards : {2, 4, 8}) {
      IngestOptions io{.mode = IngestMode::kSharded, .sketch = sopt, .shard = {.shards = shards}};
      io.gutter.policy.max_halves = shards == 4 ? 1 : 64;  // also vary batching
      const SparsifyResult sharded = ingest(s, 2, io);
      EXPECT_EQ(sorted_pairs(sharded.forests), want) << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(sharded.copies_used, sequential.copies_used);
    }
  }
}

TEST(ShardedIngest, CertificateMatchesSequentialSparsify) {
  const GraphStream s = churned_stream(64, 3, 5);
  SketchOptions sopt;
  sopt.seed = 4242;
  const SparsifyResult a = ingest(s, 3, {.sketch = sopt});
  const IngestOptions io{.mode = IngestMode::kSharded, .sketch = sopt, .shard = {.shards = 4}};
  const SparsifyResult b = ingest(s, 3, io);
  ASSERT_EQ(a.certificate.num_edges(), b.certificate.num_edges());
  for (const Edge& e : a.certificate.edges()) EXPECT_TRUE(b.certificate.has_edge(e.u, e.v));
}

TEST(SketchBankMerge, SplitStreamsMergeToWholeStream) {
  // Merge semantics directly: ingest even-indexed updates into one bank,
  // odd-indexed into another; the merged bank equals the whole-stream bank.
  const GraphStream s = churned_stream(32, 2, 13);
  SketchOptions sopt;
  sopt.seed = 7;

  SketchConnectivity whole(s.num_vertices(), sopt);
  SketchConnectivity even(s.num_vertices(), sopt);
  SketchConnectivity odd(s.num_vertices(), sopt);
  std::size_t i = 0;
  for (const StreamUpdate& u : s.updates()) {
    const int d = u.insert ? 1 : -1;
    whole.update(u.u, u.v, d);
    (i++ % 2 == 0 ? even : odd).update(u.u, u.v, d);
  }
  even.merge(odd);
  EXPECT_EQ(encode_bank(even), encode_bank(whole));
}

TEST(SketchBankMerge, RejectsIncompatibleBanks) {
  SketchOptions a, b;
  a.seed = 1;
  b.seed = 2;
  SketchConnectivity x(8, a), y(8, b), z(9, a);
  EXPECT_FALSE(x.compatible(y));  // seed mismatch
  EXPECT_FALSE(x.compatible(z));  // vertex-count mismatch
  EXPECT_THROW(x.merge(y), std::logic_error);
  EXPECT_THROW(x.merge(z), std::logic_error);
}

TEST(SketchBankMerge, RejectsMidRecoveryMerge) {
  Rng rng(3);
  Graph g = random_kec(16, 2, 16, rng);
  SketchOptions sopt;
  sopt.seed = 5;
  SketchConnectivity a(16, sopt), b(16, sopt);
  for (const Edge& e : g.edges()) {
    a.update(e.u, e.v, 1);
    b.update(e.u, e.v, 1);
  }
  (void)a.spanning_forest();  // consumes copies
  ASSERT_GT(a.copies_used(), 0);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

}  // namespace
}  // namespace deck
