// F8 — sharded parallel ingestion: throughput scaling and exactness.
//
// The f8 workload is a dense churned stream over a k-edge-connected graph,
// ingested with shards ∈ {1, 2, 4, 8} parallel inserters under both
// execution strategies: static hash sharding (shards own disjoint vertex
// slices of one global bank — the scaling path) and dynamic sharding
// (private per-shard ℓ₀ banks, lock-free batch claiming, merged by sketch
// addition — the path that models multi-process distributed ingest). Per
// row we report wall-clock ingestion throughput and speedup over 1 shard.
// Exactness is verified two ways on every row: the composed bank's
// serialized bytes equal the 1-shard bank's (bit-identical sketch state),
// and the recovered certificate's edge set equals the 1-shard
// certificate's. Exit status reflects only exactness and certificate
// validity — throughput depends on the host's core count (CI machines
// vary), so scaling is reported, not gated. A machine-readable JSON
// document follows the tables; the bench-regression CI gate diffs its
// deterministic fields (certificate size, copies used) against
// bench/baselines/f8_shard.json.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "graph/edge_connectivity.hpp"
#include "serve/session.hpp"
#include "sketch/shard.hpp"
#include "sketch/sketch_io.hpp"
#include "sketch/stream.hpp"

using namespace deck;

namespace {

double ingest_ms(const GraphStream& stream, const SketchOptions& sopt, const ShardOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  const ShardIngestResult r = apply_sharded(stream, sopt, opt);
  const auto stop = std::chrono::steady_clock::now();
  (void)r;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = bench::flag(argc, argv, "--large");
  // --smoke: sanitizer-friendly sizes (ASan/UBSan cost ~10x wall clock);
  // correctness flags and exit status are unchanged, rows are not gated.
  const bool smoke = bench::flag(argc, argv, "--smoke");
  const std::vector<int> sizes = smoke   ? std::vector<int>{48}
                                 : large ? std::vector<int>{192, 320}
                                         : std::vector<int>{96, 160};
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int k = 2;

  Json rows = Json::array();
  bool all_ok = true;

  for (int n : sizes) {
    Rng rng(8800 + n);
    Graph g = random_kec(n, k, 5 * n, rng);
    GraphStream stream = GraphStream::from_graph(g, rng);
    stream.churn(g.num_edges(), rng);
    const auto halves = static_cast<double>(2 * stream.size());

    SketchOptions sopt;
    sopt.seed = 8000 + static_cast<std::uint64_t>(n);
    sopt.max_forests = k;

    // 1-shard reference: bank bytes and certificate every other shard count
    // must reproduce exactly.
    ShardOptions ref_opt;
    ref_opt.shards = 1;
    const std::vector<std::uint8_t> ref_bank =
        encode_bank(apply_sharded(stream, sopt, ref_opt).sketch);
    const IngestOptions ref_io{.mode = IngestMode::kSharded, .sketch = sopt, .shard = ref_opt};
    const SparsifyResult ref_cert = ingest(stream, k, ref_io);
    const bool cert_ok = ref_cert.certificate.num_edges() <= k * (n - 1) &&
                         is_k_edge_connected(ref_cert.certificate, k);
    all_ok = all_ok && cert_ok;

    Table t({"mode", "shards", "updates", "ms", "halves/s", "speedup", "identical", "m_cert"});
    for (Sharding mode : {Sharding::kHash, Sharding::kDynamic}) {
      const char* mode_name = mode == Sharding::kHash ? "hash-owned" : "dynamic-merge";
      double base_ms = 0;
      for (int shards : shard_counts) {
        ShardOptions opt;
        opt.shards = shards;
        opt.sharding = mode;

        // Exactness first (untimed), then a timed ingestion pass.
        const ShardIngestResult r = apply_sharded(stream, sopt, opt);
        const bool identical = encode_bank(r.sketch) == ref_bank;
        const IngestOptions io{.mode = IngestMode::kSharded, .sketch = sopt, .shard = opt};
        const SparsifyResult sp = ingest(stream, k, io);
        bool cert_identical = sp.certificate.num_edges() == ref_cert.certificate.num_edges();
        if (cert_identical)
          for (const Edge& e : ref_cert.certificate.edges())
            cert_identical = cert_identical && sp.certificate.has_edge(e.u, e.v);
        all_ok = all_ok && identical && cert_identical;

        const double ms = ingest_ms(stream, sopt, opt);
        if (shards == 1) base_ms = ms;
        const double speedup = ms > 0 ? base_ms / ms : 0;
        t.add(mode_name, shards, stream.size(), ms, halves / (ms / 1000.0), speedup,
              (identical && cert_identical) ? "yes" : "NO", sp.certificate.num_edges());

        Json row = Json::object();
        row.set("n", n)
            .set("k", k)
            .set("mode", mode_name)
            .set("shards", shards)
            .set("stream_updates", static_cast<std::uint64_t>(stream.size()))
            .set("ingest_ms", ms)
            .set("halves_per_sec", halves / (ms / 1000.0))
            .set("speedup_vs_1shard", speedup)
            .set("bank_identical_to_1shard", identical)
            .set("certificate_identical_to_1shard", cert_identical)
            .set("m_certificate", sp.certificate.num_edges())
            .set("certificate_bound", k * (n - 1))
            .set("certificate_k_connected", cert_ok)
            .set("sketch_copies_used", sp.copies_used);
        rows.push(std::move(row));
      }
    }
    t.print("F8: sharded ingestion scaling, n = " + std::to_string(n) +
            ", k = " + std::to_string(k));
    std::printf("\n");
  }

  std::printf("   sharded ingestion exact on all rows: %s\n\n", all_ok ? "yes" : "NO");
  Json doc = Json::object();
  doc.set("bench", "f8_shard").set("all_ok", all_ok).set("rows", std::move(rows));
  bench::print_json(doc);
  return all_ok ? 0 : 1;
}
