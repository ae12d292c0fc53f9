#include "perfmodel/band_tuner.hpp"

#include "common/error.hpp"

namespace gsx::perfmodel {

void predict_subdiagonal_cost(const tile::SymTileMatrix& a, const KernelModel& model,
                              std::size_t subdiag, double& dense_out, double& tlr_out) {
  GSX_REQUIRE(subdiag >= 1 && subdiag < a.nt(), "predict_subdiagonal_cost: bad sub-diagonal");
  dense_out = 0.0;
  tlr_out = 0.0;
  const std::size_t nt = a.nt();
  for (std::size_t j = 0; j + subdiag < nt; ++j) {
    const std::size_t i = j + subdiag;
    const tile::Tile& t = a.at(i, j);
    // During factorization, tile (i, j) receives one TRSM and j GEMM
    // updates. TRSM cost is modelled at roughly half a GEMM; the model
    // compares the dominant GEMM stream, as the paper's Algorithm 2 does.
    const double ops = 0.5 + static_cast<double>(j);
    // Dense execution at the tile's storage precision (FP64/FP32/FP16).
    const Precision p =
        (t.format() == tile::TileFormat::Dense) ? t.precision() : Precision::FP32;
    dense_out += ops * model.dense_gemm_seconds(p);
    // Low-rank execution at the tile's (compressed) rank.
    tlr_out += ops * model.tlr_gemm_seconds(t.rank());
  }
}

bool dense_wins(const tile::SymTileMatrix& a, const KernelModel& model, std::size_t subdiag,
                double fluctuation, double* dense_s, double* tlr_s) {
  GSX_REQUIRE(fluctuation > 0, "dense_wins: fluctuation must be positive");
  double dense = 0.0, tlr = 0.0;
  predict_subdiagonal_cost(a, model, subdiag, dense, tlr);
  if (dense_s != nullptr) *dense_s = dense;
  if (tlr_s != nullptr) *tlr_s = tlr;
  return dense < fluctuation * tlr;
}

BandDecision tune_band_size(const tile::SymTileMatrix& a, const KernelModel& model,
                            double fluctuation) {
  GSX_REQUIRE(fluctuation > 0, "tune_band_size: fluctuation must be positive");
  BandDecision out;
  const std::size_t nt = a.nt();
  out.dense_seconds.assign(nt - 1, 0.0);
  out.tlr_seconds.assign(nt - 1, 0.0);
  for (std::size_t d = 1; d < nt; ++d) {
    // The outermost dense win decides: sub-diagonals <= d run dense.
    if (dense_wins(a, model, d, fluctuation, &out.dense_seconds[d - 1],
                   &out.tlr_seconds[d - 1]))
      out.band_size_dense = d + 1;
  }
  return out;
}

}  // namespace gsx::perfmodel
