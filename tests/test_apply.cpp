// Backend-identity property tests for the batched apply path
// (sketch/apply.hpp): the scalar and simd backends must produce
// bit-identical banks — down to encode_bank()/encode_sampler() bytes — for
// every surface that funnels through apply_batch (direct batches, sharded
// ingestion, gutter flush policies, coordinated net ingest), plus an
// odd-sized/unaligned-batch edge-case suite for the SIMD run kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "net/ingest.hpp"
#include "net/transport.hpp"
#include "serve/gutter.hpp"
#include "serve/session.hpp"
#include "sketch/apply.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/shard.hpp"
#include "sketch/sketch_connectivity.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"
#include "sketch_test_util.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace deck {
namespace {

/// Sequential scalar reference bank for a stream: the oracle every backend
/// and regrouping must match byte-for-byte.
SketchConnectivity reference_bank(const GraphStream& stream, const SketchOptions& opt) {
  SketchConnectivity bank(stream.num_vertices(), opt);
  for (const StreamUpdate& u : stream.updates()) bank.update(u.u, u.v, u.insert ? 1 : -1);
  return bank;
}

SketchOptions small_options(std::uint64_t seed) {
  SketchOptions opt;
  opt.seed = seed;
  opt.max_forests = 2;
  return opt;
}

TEST(ApplyBackend, NamesRoundTrip) {
  EXPECT_STREQ(to_string(ApplyBackend::kScalar), "scalar");
  EXPECT_STREQ(to_string(ApplyBackend::kSimd), "simd");
  EXPECT_EQ(parse_apply_backend("scalar"), ApplyBackend::kScalar);
  EXPECT_EQ(parse_apply_backend("simd"), ApplyBackend::kSimd);
  EXPECT_THROW(parse_apply_backend("gpu"), std::logic_error);
}

TEST(ApplyBackend, UpdateRunMatchesPerDeltaUpdates) {
  // The kernel-level identity, over odd/unaligned run lengths and column
  // counts spanning every code path: 1..5 exercise the masked tail, 8 the
  // full AVX2 lanes, 9/31 lanes+tail, 33 the >kMaxRunColumns fallback.
  Rng rng(41);
  const std::uint64_t universe = 97 * 97;
  for (int columns : {1, 2, 3, 4, 5, 6, 8, 9, 16, 31, 33}) {
    for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
                            std::size_t{13}, std::size_t{63}, std::size_t{255}, std::size_t{257},
                            std::size_t{1000}}) {
      L0Sampler scalar(universe, /*seed=*/7, columns);
      L0Sampler batched(universe, /*seed=*/7, columns);
      std::vector<RawDelta> run;
      run.reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        // Duplicate indices and cancelling ± deltas included by construction.
        const std::uint64_t index = rng.next_below(universe / 4);
        const std::int64_t delta = rng.next_bool(0.5) ? 1 : -1;
        run.push_back({index, delta});
        scalar.update(index, static_cast<int>(delta));
      }
      batched.update_run(std::span<const RawDelta>(run.data(), run.size()));
      EXPECT_EQ(encode_sampler(scalar), encode_sampler(batched))
          << "columns=" << columns << " len=" << len;
    }
  }
}

TEST(ApplyBackend, UpdateRunSkipsZeroDeltasAndEmptyRuns) {
  L0Sampler a(1024, 11, 6);
  L0Sampler b(1024, 11, 6);
  b.update_run({});
  const std::vector<RawDelta> zeros = {{5, 0}, {9, 0}};
  b.update_run(std::span<const RawDelta>(zeros.data(), zeros.size()));
  EXPECT_EQ(encode_sampler(a), encode_sampler(b));
  EXPECT_TRUE(b.empty());
}

TEST(ApplyBackend, ApplyBatchIdentityAcrossBatchSizes) {
  // Whole-bank identity for direct apply_batch at odd/unaligned batch
  // sizes, including batches far larger than any per-source run.
  const GraphStream stream = churned_stream(48, 2, 901);
  const SketchOptions opt = small_options(902);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{17}, std::size_t{255},
                            std::size_t{256}, std::size_t{100000}}) {
    for (ApplyBackend backend : {ApplyBackend::kScalar, ApplyBackend::kSimd}) {
      SketchConnectivity bank(stream.num_vertices(), opt);
      for (const SourceBatch& b : collect_batches(stream, batch))
        bank.apply_batch(b.src, std::span<const VertexDelta>(b.deltas.data(), b.deltas.size()),
                         backend);
      EXPECT_EQ(encode_bank(bank), want)
          << "backend=" << to_string(backend) << " batch=" << batch;
    }
  }
}

TEST(ApplyBackend, ApplyBatchSimdValidatesLikeScalar) {
  const SketchOptions opt = small_options(3);
  SketchConnectivity bank(8, opt);
  const std::vector<VertexDelta> self = {{2, 1}};
  EXPECT_THROW(bank.apply_batch(2, std::span<const VertexDelta>(self.data(), self.size()),
                                ApplyBackend::kSimd),
               std::logic_error);
  const std::vector<VertexDelta> oob = {{8, 1}};
  EXPECT_THROW(bank.apply_batch(0, std::span<const VertexDelta>(oob.data(), oob.size()),
                                ApplyBackend::kSimd),
               std::logic_error);
}

TEST(ApplyBackend, TinyGraphIdentity) {
  // n = 2: a single possible edge, exercising the smallest universe.
  GraphStream s(2);
  s.insert(0, 1);
  s.erase(0, 1);
  s.insert(1, 0);
  const SketchOptions opt = small_options(77);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(s, opt));
  for (ApplyBackend backend : {ApplyBackend::kScalar, ApplyBackend::kSimd}) {
    SketchConnectivity bank(2, opt);
    for (const SourceBatch& b : collect_batches(s, 2))
      bank.apply_batch(b.src, std::span<const VertexDelta>(b.deltas.data(), b.deltas.size()),
                       backend);
    EXPECT_EQ(encode_bank(bank), want) << to_string(backend);
  }
}

TEST(ApplyBackend, ShardedIdentityAcrossShardCountsAndModes) {
  // The tentpole property: scalar and simd banks are encode_bank-equal for
  // shard counts {1, 2, 4, 8} under every sharding mode.
  const GraphStream stream = churned_stream(64, 2, 311);
  const SketchOptions sopt = small_options(312);
  ShardOptions ref;
  ref.shards = 1;
  ref.batch_size = 64;
  const std::vector<std::uint8_t> want = encode_bank(apply_sharded(stream, sopt, ref).sketch);
  for (int shards : {1, 2, 4, 8}) {
    for (Sharding mode : {Sharding::kHash, Sharding::kVertexRange, Sharding::kDynamic}) {
      for (ApplyBackend backend : {ApplyBackend::kScalar, ApplyBackend::kSimd}) {
        ShardOptions opt;
        opt.shards = shards;
        opt.batch_size = 37;  // unaligned on purpose
        opt.sharding = mode;
        opt.backend = backend;
        EXPECT_EQ(encode_bank(apply_sharded(stream, sopt, opt).sketch), want)
            << "shards=" << shards << " mode=" << static_cast<int>(mode)
            << " backend=" << to_string(backend);
      }
    }
  }
}

TEST(ApplyBackend, GutterFlushPolicyIdentity) {
  // Gutter flush path, straight into apply_batch: every flush policy and
  // backend merges to the same bank bytes.
  const GraphStream stream = churned_stream(40, 2, 601);
  const SketchOptions opt = small_options(602);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));
  const FlushPolicy policies[] = {
      {/*max_halves=*/1024, /*max_age=*/0},
      {/*max_halves=*/7, /*max_age=*/0},
      {/*max_halves=*/64, /*max_age=*/16},
  };
  for (const FlushPolicy& policy : policies) {
    for (ApplyBackend backend : {ApplyBackend::kScalar, ApplyBackend::kSimd}) {
      SketchConnectivity bank(stream.num_vertices(), opt);
      GutterOptions gopt;
      gopt.num_gutters = 4;
      gopt.policy = policy;
      GutteringSystem gutters(stream.num_vertices(), gopt,
                              [&](VertexId src, std::span<const VertexDelta> deltas) {
                                bank.apply_batch(src, deltas, backend);
                              });
      for (const StreamUpdate& u : stream.updates())
        gutters.push(u.u, u.v, u.insert ? 1 : -1);
      gutters.drain();
      EXPECT_EQ(encode_bank(bank), want)
          << "max_halves=" << policy.max_halves << " max_age=" << policy.max_age
          << " backend=" << to_string(backend);
    }
  }
}

TEST(ApplyBackend, SessionQueryIdentityAcrossBackends) {
  // End-to-end through GraphSession: a simd-backed session answers queries
  // identically to the scalar-backed one, for sequential and sharded modes.
  const GraphStream stream = churned_stream(48, 2, 701);
  SketchOptions sopt = small_options(702);
  IngestOptions ref;
  ref.sketch = sopt;
  const SparsifyResult want = ingest(stream, 2, ref);
  for (IngestMode mode : {IngestMode::kSequential, IngestMode::kSharded}) {
    IngestOptions io;
    io.mode = mode;
    io.sketch = sopt;
    io.shard.shards = mode == IngestMode::kSharded ? 3 : 1;
    io.shard.backend = ApplyBackend::kSimd;
    io.gutter.policy.max_halves = 11;
    const SparsifyResult got = ingest(stream, 2, io);
    EXPECT_EQ(sorted_pairs(got.forests), sorted_pairs(want.forests))
        << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(got.copies_used, want.copies_used);
    EXPECT_EQ(got.attempts, want.attempts);
  }
}

TEST(ApplyBackend, CoordinatedIngestIdentityDownToBankBytes) {
  // Multi-process protocol surface: workers ingesting under the simd
  // backend (with an unaligned per-source batch limit) must assemble to
  // the byte-identical coordinator bank, even mixed with scalar workers.
  const GraphStream stream = churned_stream(32, 2, 801);
  const SketchOptions opt = small_options(802);
  const std::vector<std::uint8_t> want = encode_bank(reference_bank(stream, opt));

  constexpr int kWorkers = 3;
  std::vector<std::unique_ptr<Transport>> ends;
  std::vector<Transport*> raw;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    auto [coordinator_end, worker_end] = loopback_pair();
    ends.push_back(std::move(coordinator_end));
    raw.push_back(ends.back().get());
    IngestWorkerOptions wopt;
    wopt.backend = w == 0 ? ApplyBackend::kScalar : ApplyBackend::kSimd;
    wopt.batch_halves = 13;
    threads.emplace_back(
        [&stream, w, wopt, t = std::shared_ptr<Transport>(std::move(worker_end))] {
          run_ingest_worker(*t, stream, static_cast<std::uint32_t>(w),
                            static_cast<std::uint32_t>(kWorkers), wopt);
        });
  }
  {
    ThreadPool pool(2);
    validate_ingest_roster(raw, stream.num_vertices());
    const SketchConnectivity merged =
        coordinated_ingest_attempt(raw, stream.num_vertices(), opt, pool);
    EXPECT_EQ(encode_bank(merged), want);
    shutdown_ingest_workers(raw);
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace deck
