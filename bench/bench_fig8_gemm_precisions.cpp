// Fig. 8 reproduction: GEMM kernel throughput across precisions — DGEMM,
// SGEMM, and the FP16-storage/FP32-accumulate SHGEMM (the BLIS kernel the
// paper borrowed, here in software).
//
// Expected shape: SGEMM above DGEMM; SHGEMM below SGEMM (the conversion
// overhead the paper also observed, falling back to SGEMM for performance).
// The *_ref variants time the la::ref loops the packed micro-kernel path
// replaced, so the JSON carries the measured speedup baseline. The tile
// Cholesky's SYRK and TRSM are timed the same way, each with a _ref twin.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "bench_utils.hpp"
#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/convert.hpp"
#include "la/gemm_kernel.hpp"
#include "la/half_blas.hpp"
#include "la/matrix.hpp"
#include "obs/flops.hpp"

namespace {

using namespace gsx;

template <typename T>
la::Matrix<T> random_mat(std::size_t n, Rng& rng) {
  la::Matrix<T> m(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<T, half>) {
        m(i, j) = half(rng.normal());
      } else if constexpr (std::is_same_v<T, bfloat16>) {
        m(i, j) = bfloat16(static_cast<float>(rng.normal()));
      } else {
        m(i, j) = static_cast<T>(rng.normal());
      }
    }
  return m;
}

void BM_dgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = random_mat<double>(n, rng);
  const auto b = random_mat<double>(n, rng);
  la::Matrix<double> c(n, n);
  for (auto _ : state) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.cview(), b.cview(), 1.0,
                     c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_sgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto a = random_mat<float>(n, rng);
  const auto b = random_mat<float>(n, rng);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::gemm<float>(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f,
                    c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_shgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto a = random_mat<half>(n, rng);
  const auto b = random_mat<half>(n, rng);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::shgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_hgemm_fp16_store(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto a = random_mat<half>(n, rng);
  const auto b = random_mat<half>(n, rng);
  la::Matrix<half> c(n, n);
  for (auto _ : state) {
    la::hgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f,
              c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_sbgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto a = random_mat<bfloat16>(n, rng);
  const auto b = random_mat<bfloat16>(n, rng);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::sbgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f,
               c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_bgemm_bf16_store(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto a = random_mat<bfloat16>(n, rng);
  const auto b = random_mat<bfloat16>(n, rng);
  la::Matrix<bfloat16> c(n, n);
  for (auto _ : state) {
    la::bgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f,
              c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

// ------------------------------------------------------------- batched ops
// The trailing-update micro-batch shape of the tile Cholesky: `kBatch`
// same-size GEMMs sharing one B operand, issued as a single batched call
// (the packed op(B) panel is re-used across the whole batch).

constexpr std::size_t kBatch = 16;

void BM_dgemm_batched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto b = random_mat<double>(n, rng);
  std::vector<la::Matrix<double>> as, cs;
  std::vector<la::GemmBatchItem<double>> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    as.push_back(random_mat<double>(n, rng));
    cs.push_back(random_mat<double>(n, rng));
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    items[i] = {as[i].cview(), b.cview(), cs[i].view()};
  for (auto _ : state) {
    la::gemm_batch<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, items.data(),
                           kBatch, 1.0);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * kBatch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_sgemm_batched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto b = random_mat<float>(n, rng);
  std::vector<la::Matrix<float>> as, cs;
  std::vector<la::GemmBatchItem<float>> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    as.push_back(random_mat<float>(n, rng));
    cs.push_back(random_mat<float>(n, rng));
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    items[i] = {as[i].cview(), b.cview(), cs[i].view()};
  for (auto _ : state) {
    la::gemm_batch<float>(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(),
                          kBatch, 1.0f);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * kBatch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_shgemm_batched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto b = random_mat<half>(n, rng);
  std::vector<la::Matrix<half>> as;
  std::vector<la::Matrix<float>> cs;
  std::vector<la::GemmBatchItem<half, float>> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    as.push_back(random_mat<half>(n, rng));
    cs.push_back(random_mat<float>(n, rng));
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    items[i] = {as[i].cview(), b.cview(), cs[i].view()};
  for (auto _ : state) {
    la::shgemm_batch(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(), kBatch,
                     1.0f);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * kBatch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_hgemm_batched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto b = random_mat<half>(n, rng);
  std::vector<la::Matrix<half>> as, cs;
  std::vector<la::GemmBatchItem<half>> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    as.push_back(random_mat<half>(n, rng));
    cs.push_back(random_mat<half>(n, rng));
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    items[i] = {as[i].cview(), b.cview(), cs[i].view()};
  for (auto _ : state) {
    la::hgemm_batch(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(), kBatch,
                    1.0f);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * kBatch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_bgemm_batched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto b = random_mat<bfloat16>(n, rng);
  std::vector<la::Matrix<bfloat16>> as, cs;
  std::vector<la::GemmBatchItem<bfloat16>> items(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    as.push_back(random_mat<bfloat16>(n, rng));
    cs.push_back(random_mat<bfloat16>(n, rng));
  }
  for (std::size_t i = 0; i < kBatch; ++i)
    items[i] = {as[i].cview(), b.cview(), cs[i].view()};
  for (auto _ : state) {
    la::bgemm_batch(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(), kBatch,
                    1.0f);
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * kBatch * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_dgemm_ref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = random_mat<double>(n, rng);
  const auto b = random_mat<double>(n, rng);
  la::Matrix<double> c(n, n);
  for (auto _ : state) {
    la::ref::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.cview(), b.cview(),
                          1.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_sgemm_ref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto a = random_mat<float>(n, rng);
  const auto b = random_mat<float>(n, rng);
  la::Matrix<float> c(n, n);
  for (auto _ : state) {
    la::ref::gemm<float>(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.cview(), b.cview(),
                         1.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

// ------------------------------------------------------- SYRK and TRSM
// The tile Cholesky's other two kernels at the shapes its tasks call: the
// diagonal-tile update (SYRK lower/NoTrans, alpha = -1, beta = 1) and the
// panel solve (B := B * L^{-T} against a factored diagonal tile). Each has a _ref twin timing the la::ref loops. Flops are counted
// as the obs ledger counts them (obs::syrk_flops, obs::trsm_flops).

template <typename T>
la::Matrix<T> lower_factor(std::size_t n, Rng& rng) {
  la::Matrix<T> l = random_mat<T>(n, rng);
  const T scale = T(0.5) / static_cast<T>(n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      l(i, j) = (i == j) ? T(1) + std::abs(l(i, j)) : l(i, j) * scale;
  return l;
}

template <typename T, bool kRef>
void syrk_bench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const auto a = random_mat<T>(n, rng);
  la::Matrix<T> c(n, n);
  for (auto _ : state) {
    if constexpr (kRef)
      la::ref::syrk<T>(la::Uplo::Lower, la::Trans::NoTrans, T(-1), a.cview(), T(1), c.view());
    else
      la::syrk<T>(la::Uplo::Lower, la::Trans::NoTrans, T(-1), a.cview(), T(1), c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(obs::syrk_flops(n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// The right-hand side is restored from a copy before every solve (so
/// repeated solves never drift into subnormals); the copy is timed too and
/// costs n^2 element moves against the solve's n^3 flops.
template <typename T, bool kRef>
void trsm_bench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const auto l = lower_factor<T>(n, rng);
  const auto b0 = random_mat<T>(n, rng);
  la::Matrix<T> b = b0;
  for (auto _ : state) {
    b = b0;
    if constexpr (kRef)
      la::ref::trsm_right_trans(l.cview(), b.view());
    else
      la::trsm_right_trans<T>(l.cview(), b.view());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(obs::trsm_flops(n, n)) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_dsyrk(benchmark::State& state) { syrk_bench<double, false>(state); }
void BM_dsyrk_ref(benchmark::State& state) { syrk_bench<double, true>(state); }
void BM_dtrsm(benchmark::State& state) { trsm_bench<double, false>(state); }
void BM_dtrsm_ref(benchmark::State& state) { trsm_bench<double, true>(state); }
void BM_strsm(benchmark::State& state) { trsm_bench<float, false>(state); }
void BM_strsm_ref(benchmark::State& state) { trsm_bench<float, true>(state); }

#define GSX_FIG8_SIZES ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_dgemm) GSX_FIG8_SIZES;
BENCHMARK(BM_sgemm) GSX_FIG8_SIZES;
BENCHMARK(BM_shgemm) GSX_FIG8_SIZES;
BENCHMARK(BM_hgemm_fp16_store) GSX_FIG8_SIZES;
BENCHMARK(BM_sbgemm) GSX_FIG8_SIZES;
BENCHMARK(BM_bgemm_bf16_store) GSX_FIG8_SIZES;
BENCHMARK(BM_dgemm_batched) GSX_FIG8_SIZES;
BENCHMARK(BM_sgemm_batched) GSX_FIG8_SIZES;
BENCHMARK(BM_shgemm_batched) GSX_FIG8_SIZES;
BENCHMARK(BM_hgemm_batched) GSX_FIG8_SIZES;
BENCHMARK(BM_bgemm_batched) GSX_FIG8_SIZES;
BENCHMARK(BM_dgemm_ref) GSX_FIG8_SIZES;
BENCHMARK(BM_sgemm_ref) GSX_FIG8_SIZES;
BENCHMARK(BM_dsyrk) GSX_FIG8_SIZES;
BENCHMARK(BM_dsyrk_ref) GSX_FIG8_SIZES;
BENCHMARK(BM_dtrsm) GSX_FIG8_SIZES;
BENCHMARK(BM_dtrsm_ref) GSX_FIG8_SIZES;
BENCHMARK(BM_strsm) GSX_FIG8_SIZES;
BENCHMARK(BM_strsm_ref) GSX_FIG8_SIZES;

/// Console output as usual, plus a BenchRecord per run for --json. The size
/// is recovered from the "BM_name/123" run name.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<bench::BenchRecord> records;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      bench::BenchRecord rec;
      rec.name = r.benchmark_name();
      const auto slash = rec.name.rfind('/');
      if (slash != std::string::npos)
        rec.size = static_cast<std::size_t>(std::atoll(rec.name.c_str() + slash + 1));
      rec.seconds = (r.iterations > 0)
                        ? r.real_accumulated_time / static_cast<double>(r.iterations)
                        : 0.0;
      const auto it = r.counters.find("GFlop/s");
      // Rate counters are already normalized by elapsed time at this point.
      if (it != r.counters.end()) rec.gflops = it->second.value;
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Derived records: packed-path throughput as a percent of the measured
/// reference baseline at the same size (stored in `gflops`; `seconds` = 0).
void append_pct_of_ref(std::vector<bench::BenchRecord>& records) {
  const std::pair<const char*, const char*> pairs[] = {
      {"BM_dgemm/", "BM_dgemm_ref/"}, {"BM_sgemm/", "BM_sgemm_ref/"},
      {"BM_dsyrk/", "BM_dsyrk_ref/"}, {"BM_dtrsm/", "BM_dtrsm_ref/"},
      {"BM_strsm/", "BM_strsm_ref/"}};
  std::vector<bench::BenchRecord> derived;
  for (const auto& [fast_prefix, ref_prefix] : pairs) {
    for (const auto& fast : records) {
      if (fast.name.rfind(fast_prefix, 0) != 0) continue;
      for (const auto& ref : records) {
        if (ref.name.rfind(ref_prefix, 0) == 0 && ref.size == fast.size &&
            ref.gflops > 0.0) {
          bench::BenchRecord rec;
          rec.name = std::string(fast_prefix) + "pct_of_ref";
          rec.size = fast.size;
          rec.gflops = 100.0 * fast.gflops / ref.gflops;
          derived.push_back(std::move(rec));
        }
      }
    }
  }
  records.insert(records.end(), derived.begin(), derived.end());
}

/// Derived records: batched throughput as a percent of the looped per-op
/// call at the same size — the small-tile batching win.
void append_batch_speedup(std::vector<bench::BenchRecord>& records) {
  const std::pair<const char*, const char*> pairs[] = {
      {"BM_dgemm_batched/", "BM_dgemm/"},
      {"BM_sgemm_batched/", "BM_sgemm/"},
      {"BM_shgemm_batched/", "BM_shgemm/"},
      {"BM_hgemm_batched/", "BM_hgemm_fp16_store/"},
      {"BM_bgemm_batched/", "BM_bgemm_bf16_store/"}};
  std::vector<bench::BenchRecord> derived;
  for (const auto& [batched_prefix, loop_prefix] : pairs) {
    for (const auto& batched : records) {
      if (batched.name.rfind(batched_prefix, 0) != 0 ||
          batched.name.find("speedup") != std::string::npos)
        continue;
      for (const auto& loop : records) {
        if (loop.name.find("pct_of") != std::string::npos) continue;
        if (loop.name.rfind(loop_prefix, 0) == 0 && loop.size == batched.size &&
            loop.gflops > 0.0) {
          bench::BenchRecord rec;
          rec.name = std::string(batched_prefix) + "speedup_x100";
          rec.size = batched.size;
          rec.gflops = 100.0 * batched.gflops / loop.gflops;
          derived.push_back(std::move(rec));
        }
      }
    }
  }
  records.insert(records.end(), derived.begin(), derived.end());
}

/// Derived records: throughput as a percent of the ISA's theoretical peak at
/// the measured clock (la::gemm_peak_gflops).
void append_pct_of_peak(std::vector<bench::BenchRecord>& records) {
  const double ghz = gsx::la::measure_clock_ghz();
  const std::pair<const char*, gsx::Precision> prefixes[] = {
      {"BM_dgemm/", gsx::Precision::FP64},
      {"BM_dgemm_batched/", gsx::Precision::FP64},
      {"BM_sgemm/", gsx::Precision::FP32},
      {"BM_sgemm_batched/", gsx::Precision::FP32},
      {"BM_shgemm/", gsx::Precision::FP16},
      {"BM_shgemm_batched/", gsx::Precision::FP16},
      {"BM_sbgemm/", gsx::Precision::BF16}};
  std::vector<bench::BenchRecord> derived;
  for (const auto& [prefix, precision] : prefixes) {
    const double peak = gsx::la::gemm_peak_gflops(precision, ghz);
    if (peak <= 0.0) continue;
    for (const auto& r : records) {
      if (r.name.rfind(prefix, 0) != 0 || r.gflops <= 0.0) continue;
      if (r.name.find("pct_of") != std::string::npos ||
          r.name.find("speedup") != std::string::npos)
        continue;
      bench::BenchRecord rec;
      rec.name = std::string(prefix) + "pct_of_peak";
      rec.size = r.size;
      rec.gflops = 100.0 * r.gflops / peak;
      derived.push_back(std::move(rec));
    }
  }
  records.insert(records.end(), derived.begin(), derived.end());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const std::string json = bench::json_out_path(argc, argv);
  std::printf("gemm kernel isa: %s\n", gsx::la::gemm_kernel_isa());
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json.empty()) {
    append_pct_of_ref(reporter.records);
    append_batch_speedup(reporter.records);
    append_pct_of_peak(reporter.records);
    bench::write_bench_json(json, reporter.records);
  }
  benchmark::Shutdown();
  return 0;
}
