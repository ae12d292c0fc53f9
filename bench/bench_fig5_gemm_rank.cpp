// Fig. 5 reproduction: dense FP64 GEMM vs TLR FP64 GEMM on one core, as a
// function of the tile rank, with the time ratio and the crossover rank.
//
// Paper (A64FX, tile 800-ish): TLR GEMM cheaper below rank ~200, more
// expensive above. The absolute crossover depends on the machine; the shape
// (TLR wins at low rank, loses past an interior crossover) must reproduce.
#include <cstdio>
#include <vector>

#include "bench_utils.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "perfmodel/kernel_model.hpp"
#include "tlr/lr_kernels.hpp"

namespace {

using namespace gsx;

double time_dense(std::size_t ts, Rng& rng, int reps) {
  la::Matrix<double> a(ts, ts), b(ts, ts), c(ts, ts);
  for (std::size_t j = 0; j < ts; ++j)
    for (std::size_t i = 0; i < ts; ++i) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  Timer t;
  for (int r = 0; r < reps; ++r)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.cview(), b.cview(), 1.0,
                     c.view());
  return t.seconds() / reps;
}

double time_tlr(std::size_t ts, std::size_t rank, Rng& rng, int reps) {
  auto rand_mat = [&](std::size_t r, std::size_t c) {
    la::Matrix<double> m(r, c);
    for (std::size_t j = 0; j < c; ++j)
      for (std::size_t i = 0; i < r; ++i) m(i, j) = rng.normal();
    return m;
  };
  const auto ua = rand_mat(ts, rank), va = rand_mat(ts, rank);
  const auto ub = rand_mat(ts, rank), vb = rand_mat(ts, rank);
  Timer t;
  for (int r = 0; r < reps; ++r) {
    auto uc = rand_mat(ts, rank);
    auto vc = rand_mat(ts, rank);
    const tlr::LrProduct p = tlr::product_lr_lr(tlr::LrView{ua.cview(), va.cview()},
                                                tlr::LrView{ub.cview(), vb.cview()});
    tlr::lr_axpy_rounded(-1.0, p, uc, vc, 1e-8);
  }
  return t.seconds() / reps;
}

}  // namespace

int main() {
  using namespace gsx::bench;
  const std::size_t ts = scaled(256);
  const int reps = 3;
  Rng rng(42);

  print_header("Fig. 5 - Dense FP64 GEMM vs TLR FP64 GEMM vs rank (tile size " +
               std::to_string(ts) + ", single core, accuracy 1e-8)");

  const double dense_s = time_dense(ts, rng, reps);
  std::printf("dense FP64 GEMM: %.4f ms\n\n", dense_s * 1e3);
  std::printf("%8s %16s %16s %10s\n", "rank", "TLR GEMM (ms)", "dense (ms)",
              "dense/TLR");

  std::size_t crossover = 0;
  std::vector<std::size_t> ranks;
  for (std::size_t k = 2; k <= ts; k = (k * 3) / 2) ranks.push_back(k);
  if (ranks.back() != ts) ranks.push_back(ts);
  for (std::size_t k : ranks) {
    const double tlr_s = time_tlr(ts, k, rng, reps);
    std::printf("%8zu %16.4f %16.4f %10.2f\n", k, tlr_s * 1e3, dense_s * 1e3,
                dense_s / tlr_s);
    if (crossover == 0 && tlr_s >= dense_s) crossover = k;
  }
  if (crossover > 0)
    std::printf("\nmeasured crossover rank: ~%zu (paper: ~200 at tile 800 on A64FX)\n",
                crossover);
  else
    std::printf("\nno crossover below full rank on this machine/tile size\n");

  // Compare against the embedded performance model used by Algorithm 2.
  const std::vector<std::size_t> cal_ranks = {ts / 16, ts / 8, ts / 4, ts / 2};
  const auto model = gsx::perfmodel::KernelModel::calibrate(ts, cal_ranks);
  std::printf("performance-model crossover rank: %zu\n", model.crossover_rank());
  return 0;
}
