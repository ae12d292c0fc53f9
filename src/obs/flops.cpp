#include "obs/flops.hpp"

#include <atomic>
#include <string>

namespace gsx::obs {

namespace {

struct Ledger {
  std::array<std::array<std::atomic<std::uint64_t>, kNumKernelOps>, kNumPrecisions> flops{};
  std::array<std::array<std::atomic<std::uint64_t>, kNumKernelOps>, kNumPrecisions> calls{};
  std::array<std::array<std::atomic<double>, kNumKernelOps>, kNumPrecisions> seconds{};
  std::array<std::array<std::atomic<std::uint64_t>, kNumPrecisions>, kNumPrecisions>
      conv_count{};
  std::array<std::array<std::atomic<std::uint64_t>, kNumPrecisions>, kNumPrecisions>
      conv_elems{};
};

Ledger& ledger() {
  static Ledger l;
  return l;
}

}  // namespace

void add_flops(KernelOp op, Precision p, std::uint64_t flops) noexcept {
  if (!enabled()) return;
  Ledger& l = ledger();
  const auto pi = static_cast<std::size_t>(p);
  const auto oi = static_cast<std::size_t>(op);
  l.flops[pi][oi].fetch_add(flops, std::memory_order_relaxed);
  l.calls[pi][oi].fetch_add(1, std::memory_order_relaxed);
}

void add_kernel_seconds(KernelOp op, Precision p, double seconds) noexcept {
  if (!enabled()) return;
  Ledger& l = ledger();
  l.seconds[static_cast<std::size_t>(p)][static_cast<std::size_t>(op)].fetch_add(
      seconds, std::memory_order_relaxed);
}

void add_conversion(Precision from, Precision to, std::uint64_t elems) noexcept {
  if (!enabled()) return;
  Ledger& l = ledger();
  const auto fi = static_cast<std::size_t>(from);
  const auto ti = static_cast<std::size_t>(to);
  l.conv_count[fi][ti].fetch_add(1, std::memory_order_relaxed);
  l.conv_elems[fi][ti].fetch_add(elems, std::memory_order_relaxed);
}

void record_batch(KernelOp op, Precision p, std::size_t count) noexcept {
  if (!enabled()) return;
  std::string suffix{kernel_op_name(op)};
  suffix += '.';
  suffix += precision_name(p);
  Registry::instance()
      .histogram("la.batch." + suffix, {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0})
      .observe(static_cast<double>(count));
}

FlopSnapshot flop_snapshot() noexcept {
  const Ledger& l = ledger();
  FlopSnapshot s;
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    for (std::size_t o = 0; o < kNumKernelOps; ++o) {
      s.flops[p][o] = l.flops[p][o].load(std::memory_order_relaxed);
      s.calls[p][o] = l.calls[p][o].load(std::memory_order_relaxed);
      s.seconds[p][o] = l.seconds[p][o].load(std::memory_order_relaxed);
    }
    for (std::size_t q = 0; q < kNumPrecisions; ++q) {
      s.conv_count[p][q] = l.conv_count[p][q].load(std::memory_order_relaxed);
      s.conv_elems[p][q] = l.conv_elems[p][q].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void reset_flops() noexcept {
  Ledger& l = ledger();
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    for (std::size_t o = 0; o < kNumKernelOps; ++o) {
      l.flops[p][o].store(0, std::memory_order_relaxed);
      l.calls[p][o].store(0, std::memory_order_relaxed);
      l.seconds[p][o].store(0.0, std::memory_order_relaxed);
    }
    for (std::size_t q = 0; q < kNumPrecisions; ++q) {
      l.conv_count[p][q].store(0, std::memory_order_relaxed);
      l.conv_elems[p][q].store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t FlopSnapshot::total_flops() const noexcept {
  std::uint64_t t = 0;
  for (const auto& row : flops)
    for (std::uint64_t v : row) t += v;
  return t;
}

std::uint64_t FlopSnapshot::flops_at(Precision p) const noexcept {
  std::uint64_t t = 0;
  for (std::uint64_t v : flops[static_cast<std::size_t>(p)]) t += v;
  return t;
}

double FlopSnapshot::gflops_at(Precision p) const noexcept {
  const auto pi = static_cast<std::size_t>(p);
  double secs = 0.0;
  std::uint64_t timed_flops = 0;
  for (std::size_t o = 0; o < kNumKernelOps; ++o) {
    if (seconds[pi][o] > 0.0) {
      secs += seconds[pi][o];
      timed_flops += flops[pi][o];
    }
  }
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(timed_flops) / secs / 1e9;
}

std::uint64_t FlopSnapshot::total_conversions() const noexcept {
  std::uint64_t t = 0;
  for (const auto& row : conv_count)
    for (std::uint64_t v : row) t += v;
  return t;
}

std::uint64_t FlopSnapshot::total_converted_elems() const noexcept {
  std::uint64_t t = 0;
  for (const auto& row : conv_elems)
    for (std::uint64_t v : row) t += v;
  return t;
}

FlopSnapshot FlopSnapshot::delta_since(const FlopSnapshot& earlier) const {
  FlopSnapshot d;
  for (std::size_t p = 0; p < kNumPrecisions; ++p) {
    for (std::size_t o = 0; o < kNumKernelOps; ++o) {
      d.flops[p][o] = flops[p][o] - earlier.flops[p][o];
      d.calls[p][o] = calls[p][o] - earlier.calls[p][o];
      d.seconds[p][o] = seconds[p][o] - earlier.seconds[p][o];
    }
    for (std::size_t q = 0; q < kNumPrecisions; ++q) {
      d.conv_count[p][q] = conv_count[p][q] - earlier.conv_count[p][q];
      d.conv_elems[p][q] = conv_elems[p][q] - earlier.conv_elems[p][q];
    }
  }
  return d;
}

}  // namespace gsx::obs
