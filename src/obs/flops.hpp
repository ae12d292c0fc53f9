// Structured flop / byte / conversion accounting for the adaptive Cholesky
// pipeline.
//
// The paper's performance claims are per-precision flop mixes (Fig. 8) and
// per-tile precision/rank decisions (Fig. 9); this ledger attributes every
// kernel invocation to a (kernel op, precision) cell and every in-flight
// cast to a (from, to) precision pair, with fixed atomic slots so the hot
// path is one relaxed fetch_add per kernel — no name lookups. Everything is
// gated on obs::enabled().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "common/precision.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"

namespace gsx::obs {

/// Pipeline kernel classes the ledger attributes work to.
enum class KernelOp : unsigned char {
  Potrf = 0,   ///< diagonal tile factorization
  Trsm,        ///< dense panel triangular solve
  Syrk,        ///< dense symmetric rank-k update
  Gemm,        ///< dense trailing update
  LrTrsm,      ///< low-rank panel triangular solve (V only)
  LrSyrk,      ///< low-rank SYRK onto a dense diagonal tile
  LrGemm,      ///< trailing update with >= 1 low-rank operand
  Compress,    ///< dense -> U V^T compression
  Assemble,    ///< covariance element generation
  Solve,       ///< triangular solves of the likelihood / prediction phase
  Krige,       ///< prediction-phase GEMM/GEMV work
  kCount
};

inline constexpr std::size_t kNumKernelOps = static_cast<std::size_t>(KernelOp::kCount);

[[nodiscard]] constexpr std::string_view kernel_op_name(KernelOp op) noexcept {
  switch (op) {
    case KernelOp::Potrf: return "potrf";
    case KernelOp::Trsm: return "trsm";
    case KernelOp::Syrk: return "syrk";
    case KernelOp::Gemm: return "gemm";
    case KernelOp::LrTrsm: return "lr_trsm";
    case KernelOp::LrSyrk: return "lr_syrk";
    case KernelOp::LrGemm: return "lr_gemm";
    case KernelOp::Compress: return "compress";
    case KernelOp::Assemble: return "assemble";
    case KernelOp::Solve: return "solve";
    case KernelOp::Krige: return "krige";
    case KernelOp::kCount: break;
  }
  return "?";
}

/// Plain-value copy of the ledger (subtractable for per-iteration deltas).
struct FlopSnapshot {
  // [precision][kernel op]
  std::array<std::array<std::uint64_t, kNumKernelOps>, kNumPrecisions> flops{};
  std::array<std::array<std::uint64_t, kNumKernelOps>, kNumPrecisions> calls{};
  /// Wall seconds spent inside instrumented kernel bodies, per cell. Only
  /// kernels wrapped in a KernelTimer contribute; cells with flops but no
  /// recorded seconds are excluded from the achieved-rate queries below.
  std::array<std::array<double, kNumKernelOps>, kNumPrecisions> seconds{};
  // [from precision][to precision]
  std::array<std::array<std::uint64_t, kNumPrecisions>, kNumPrecisions> conv_count{};
  std::array<std::array<std::uint64_t, kNumPrecisions>, kNumPrecisions> conv_elems{};

  [[nodiscard]] std::uint64_t total_flops() const noexcept;
  [[nodiscard]] std::uint64_t flops_at(Precision p) const noexcept;
  [[nodiscard]] std::uint64_t total_conversions() const noexcept;
  [[nodiscard]] std::uint64_t total_converted_elems() const noexcept;

  /// Achieved GFLOP/s at precision `p`, computed only over cells that have
  /// recorded seconds (so untimed kernels don't inflate the rate). Returns
  /// 0 when nothing at `p` was timed.
  [[nodiscard]] double gflops_at(Precision p) const noexcept;

  /// Element-wise this - earlier (counters are monotonic between resets).
  [[nodiscard]] FlopSnapshot delta_since(const FlopSnapshot& earlier) const;
};

/// Record `flops` floating-point operations executed by `op` at storage /
/// kernel precision `p`. One relaxed fetch_add when enabled, one branch when
/// not.
void add_flops(KernelOp op, Precision p, std::uint64_t flops) noexcept;

/// Record one precision-conversion pass over `elems` elements.
void add_conversion(Precision from, Precision to, std::uint64_t elems) noexcept;

/// Record one batched BLAS submission of `count` same-shape ops executed as
/// `op` at precision `p`. Feeds the "la.batch.<op>.<precision>" histogram
/// (bounds 1..128, powers of two), which is how a factorization run shows
/// whether its trailing updates actually coalesced into batches or degraded
/// to per-op launches. Name lookup only happens when obs is enabled.
void record_batch(KernelOp op, Precision p, std::size_t count) noexcept;

/// Accumulate wall seconds spent inside an instrumented kernel body at
/// (op, p). Pairs with add_flops on the same cell to yield achieved GFLOP/s.
void add_kernel_seconds(KernelOp op, Precision p, double seconds) noexcept;

/// RAII wall-clock scope that charges its lifetime to (op, p) via
/// add_kernel_seconds. Wrap exactly the kernel body (not queueing or
/// conversion glue) to keep the achieved-rate accounting honest. Costs one
/// enabled() branch when observability is off. When hardware-counter
/// sampling is armed (set_hw_enabled + perf_event available), the same scope
/// also reads the cycles/instructions/LLC group at both ends and feeds the
/// roofline ledger (obs/hwcounters.hpp).
class KernelTimer {
 public:
  KernelTimer(KernelOp op, Precision p) noexcept
      : op_(op), p_(p), armed_(enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
      if (hw_enabled()) hw_begin_ = hw_read();
    }
  }
  ~KernelTimer() {
    if (!armed_) return;
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - start_;
    add_kernel_seconds(op_, p_, dt.count());
    if (hw_begin_.valid) hw_accumulate(hw_begin_, hw_read(), dt.count());
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  KernelOp op_;
  Precision p_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
  HwReading hw_begin_{};
};

/// Current ledger totals.
[[nodiscard]] FlopSnapshot flop_snapshot() noexcept;

/// Zero the ledger.
void reset_flops() noexcept;

// Standard LAPACK-style flop counts for the tile kernels.
[[nodiscard]] constexpr std::uint64_t potrf_flops(std::uint64_t n) noexcept {
  return n * n * n / 3 + n * n / 2 + n / 6;
}
/// B (m x n) := B * T^{-1} with an n x n triangle (or the transposed left
/// variants — same count).
[[nodiscard]] constexpr std::uint64_t trsm_flops(std::uint64_t m, std::uint64_t n) noexcept {
  return m * n * n;
}
/// C (n x n) += A A^T with A n x k.
[[nodiscard]] constexpr std::uint64_t syrk_flops(std::uint64_t n, std::uint64_t k) noexcept {
  return n * (n + 1) * k;
}
/// C (m x n) += A B^T with inner dimension k.
[[nodiscard]] constexpr std::uint64_t gemm_flops(std::uint64_t m, std::uint64_t n,
                                                 std::uint64_t k) noexcept {
  return 2 * m * n * k;
}

}  // namespace gsx::obs
