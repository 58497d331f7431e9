#pragma once

// Dynamic graph streams: an ordered sequence of edge insertions/deletions
// over a fixed vertex set, the ingestion format of the streaming
// sparsification front-end (sketch_connectivity.hpp).
//
// A GraphStream validates itself as it is built — inserting a live edge or
// deleting an absent one throws — so the net effect is always a simple
// graph, recoverable via materialize() for ground-truth verification.
// apply_batched() regroups the stream into per-source batches (the
// multi-inserter pattern of the streaming-CC systems): each undirected
// update contributes one directed half at either endpoint, buffered under
// its source vertex and delivered as source-grouped runs — full batches as
// they fill mid-stream, remainders at the end. Sketch linearity makes the
// regrouped application equivalent to the in-order one;
// collect_batches() materializes the same delivery for apply_sharded.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace deck {

struct StreamUpdate {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  bool insert = true;  // false = delete
};

/// Packs edge {lo,hi} (lo < hi < n) into the [0, n²) index space shared by
/// GraphStream bookkeeping and the ℓ₀ edge-incidence sketches.
inline std::uint64_t encode_edge_index(VertexId lo, VertexId hi, int n) {
  DECK_ASSERT(0 <= lo && lo < hi && hi < n);
  return static_cast<std::uint64_t>(lo) * static_cast<std::uint64_t>(n) +
         static_cast<std::uint64_t>(hi);
}

/// Inverse of encode_edge_index.
inline std::pair<VertexId, VertexId> decode_edge_index(std::uint64_t index, int n) {
  return {static_cast<VertexId>(index / static_cast<std::uint64_t>(n)),
          static_cast<VertexId>(index % static_cast<std::uint64_t>(n))};
}

/// One directed half of an undirected update, grouped by its source vertex
/// for batch appliers. delta is +1 (insert) or -1 (delete).
struct VertexDelta {
  VertexId dst = kNoVertex;
  int delta = 0;
};

class GraphStream {
 public:
  explicit GraphStream(int n);

  /// The edges of g as one insertion each, in edge-id order.
  static GraphStream from_graph(const Graph& g);

  /// Same, in a random order.
  static GraphStream from_graph(const Graph& g, Rng& rng);

  /// Appends the insertion of edge {u,v}. Throws if the edge is live.
  void insert(VertexId u, VertexId v);

  /// Appends the deletion of edge {u,v}. Throws if the edge is not live.
  void erase(VertexId u, VertexId v);

  /// Appends `pairs` insert/delete churn pairs of random transient edges,
  /// interleaved among themselves; the net effect on the final graph is
  /// zero. Exercises the cancellation path of linear sketches.
  void churn(int pairs, Rng& rng);

  int num_vertices() const { return n_; }
  std::size_t size() const { return updates_.size(); }
  const std::vector<StreamUpdate>& updates() const { return updates_; }

  /// Replay-from-offset view: the updates appended at or after `cursor`, in
  /// append order. A long-lived session records the cursor at each query
  /// point and folds only the post-query deltas instead of re-scanning the
  /// whole stream. `cursor` may equal size() (empty span); beyond it throws.
  /// The span is invalidated by the next append.
  std::span<const StreamUpdate> updates_since(std::size_t cursor) const;

  /// Number of edges present after the whole stream.
  std::size_t live_edges() const { return live_.size(); }

  /// The net graph (all weights `w`) — ground truth for verification.
  Graph materialize(Weight w = 1) const;

 private:
  std::uint64_t key(VertexId u, VertexId v) const;
  void check_endpoints(VertexId u, VertexId v) const;

  int n_ = 0;
  std::vector<StreamUpdate> updates_;
  std::unordered_set<std::uint64_t> live_;
};

/// Streams `updates` (a range of StreamUpdate over vertices [0, n)) into
/// `apply(src, std::span<const VertexDelta>)` in per-source batches of at
/// most batch_size halves. Delivery order: a source's buffer is flushed the
/// moment it reaches batch_size — so full batches from different sources
/// interleave in update order — and the partial buffers remaining at the
/// end are flushed in ascending source order. Within one source, halves
/// always arrive in update order, and both halves of every update are
/// delivered exactly once; sketch linearity makes any such regrouping merge
/// to the bank an in-order applier would build. The range need not be a
/// valid GraphStream on its own — a net ingest worker passes its strided
/// slice of one, which may delete edges it never saw inserted.
template <typename Updates, typename Applier>
void apply_batched(int n, Updates&& updates, std::size_t batch_size, Applier&& apply) {
  DECK_CHECK(batch_size >= 1);
  std::vector<std::vector<VertexDelta>> pending(static_cast<std::size_t>(n));
  auto flush = [&](VertexId src) {
    auto& buf = pending[static_cast<std::size_t>(src)];
    if (buf.empty()) return;
    apply(src, std::span<const VertexDelta>(buf.data(), buf.size()));
    buf.clear();
  };
  auto push = [&](VertexId src, VertexId dst, int delta) {
    auto& buf = pending[static_cast<std::size_t>(src)];
    buf.push_back({dst, delta});
    if (buf.size() >= batch_size) flush(src);
  };
  for (const StreamUpdate& u : updates) {
    const int delta = u.insert ? 1 : -1;
    push(u.u, u.v, delta);
    push(u.v, u.u, delta);
  }
  for (VertexId v = 0; v < n; ++v) flush(v);
}

/// The whole stream, regrouped. collect_batches() below materializes this
/// exact delivery as SourceBatch values — the batch list apply_sharded
/// distributes across its shards.
template <typename Applier>
void apply_batched(const GraphStream& s, std::size_t batch_size, Applier&& apply) {
  apply_batched(s.num_vertices(), s.updates(), batch_size, std::forward<Applier>(apply));
}

/// One materialized per-source batch, the unit of work the sharded ingestion
/// layer distributes: all deltas share the source vertex `src`.
struct SourceBatch {
  VertexId src = kNoVertex;
  std::vector<VertexDelta> deltas;
};

/// Materializes the apply_batched() delivery as a vector of SourceBatch, in
/// the exact order apply_batched would deliver them (so per-source order is
/// preserved and both halves of every update appear exactly once). This is
/// the handoff point between a GraphStream and parallel consumers.
std::vector<SourceBatch> collect_batches(const GraphStream& s, std::size_t batch_size);

/// Thread-safe work queue over a fixed set of batches. Claiming is a single
/// atomic fetch_add — wait-free, no locks — and every batch is handed out
/// exactly once across any number of claiming threads. The queue does not
/// own synchronization of what consumers *do* with a batch; the sharded
/// ingestion layer gives each worker a private sketch bank so none is
/// needed.
class BatchQueue {
 public:
  explicit BatchQueue(std::vector<SourceBatch> batches) : batches_(std::move(batches)) {}

  /// Next unclaimed batch, or nullptr when the queue is drained. The
  /// returned pointer stays valid for the queue's lifetime.
  const SourceBatch* try_pop() {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < batches_.size() ? &batches_[i] : nullptr;
  }

  std::size_t size() const { return batches_.size(); }
  std::size_t claimed() const {
    return std::min(next_.load(std::memory_order_relaxed), batches_.size());
  }

 private:
  std::vector<SourceBatch> batches_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace deck
