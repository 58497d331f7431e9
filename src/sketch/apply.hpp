#pragma once

// ApplyBackend — the execution-strategy boundary of the batched ℓ₀ apply
// path (docs/sketch_internals.md).
//
// Every ingest surface (sharded apply, gutter flushes, net ingest workers)
// funnels per-source delta runs through SketchConnectivity::apply_batch;
// this header names *how* a run is applied:
//
//   kScalar — the reference path: per delta, walk every sketch copy and
//             update it bucket-by-bucket (delta-major). Semantically the
//             original per-update code, kept as the bit-identity oracle.
//   kSimd   — the batched path: translate the run once (edge-index
//             encoding, sign orientation), then apply it copy-major — each
//             copy's structure-of-arrays bucket rows stay cache-resident
//             for the whole run, hashes are computed once per delta in
//             vector lanes, and the per-level column passes are branchless
//             masked adds (portable fallback, plus `#ifdef __AVX2__` /
//             `#ifdef __AVX512DQ__` intrinsic kernels when the build
//             enables them — the CMake DECK_SIMD knob, ON by default,
//             compiles the kernel TU with -march=native -O3).
//
// Both backends are deterministic and produce bit-identical banks — down
// to encode_bank() bytes — because a bucket's value is a wrapping sum of
// per-delta contributions and both loop orders apply each copy's
// contributions in run order (see docs/sketch_internals.md for the full
// argument). Backend choice is therefore pure execution policy: it can
// differ per shard, per worker process, or per flush without affecting any
// result.

#include <string_view>

namespace deck {

/// Execution strategy for SketchConnectivity::apply_batch. All backends
/// yield bit-identical banks; they differ only in speed.
enum class ApplyBackend {
  kScalar = 0,  // delta-major reference loop
  kSimd = 1,    // copy-major batched column passes over SoA bucket rows
};

/// "scalar" / "simd" — stable names for flags, logs, and bench rows.
const char* to_string(ApplyBackend backend);

/// Inverse of to_string(). Throws CheckError on an unknown name.
ApplyBackend parse_apply_backend(std::string_view name);

/// Name of the widest intrinsic kernel the simd backend was compiled with:
/// "avx512", "avx2", or "portable" (the autovectorized masked pass — still
/// batched, still bit-identical, usually still faster than scalar).
const char* simd_apply_kernel();

}  // namespace deck
