// gsx-ckpt-v1 checkpoints: CRC, tile serialization, model/fit round trips,
// corruption rejection. Round trips must be bit-identical — a reloaded
// factor answers predictions to 0 ULP.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cholesky/tile_solve.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "geostat/locations.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "test_utils.hpp"
#include "tile/tile_codec.hpp"

namespace gsx::serve {
namespace {

using gsx::test::random_matrix;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Byte image of a factor's tiles — two factors are bit-identical iff their
/// images match.
std::vector<std::uint8_t> factor_bytes(const tile::SymTileMatrix& a) {
  std::vector<std::uint8_t> out;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) tile::encode_tile(a.at(i, j), out);
  return out;
}

struct Problem {
  std::vector<geostat::Location> locs;
  std::vector<double> z;
  std::vector<double> theta{1.0, 0.1, 0.5};
};

Problem make_problem(std::size_t n, std::uint64_t seed = 11) {
  Rng rng(seed);
  Problem p;
  p.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(p.locs);
  const auto kernel = geostat::make_kernel("matern", p.theta);
  p.z = geostat::simulate_grf(*kernel, p.locs, rng);
  return p;
}

ModelCheckpoint make_checkpoint(const Problem& p, core::ModelConfig cfg) {
  const core::GsxModel model(geostat::make_kernel("matern", p.theta), cfg);
  ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = p.theta;
  ckpt.config = cfg;
  ckpt.train_locs = p.locs;
  ckpt.z_train = p.z;
  ckpt.factor = model.factor_at(p.theta, p.locs);
  return ckpt;
}

core::ModelConfig dense_config() {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 24;
  cfg.calibrate_perf_model = false;
  return cfg;
}

core::ModelConfig mp_config() {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDense;
  cfg.tile_size = 24;
  cfg.eps_target = 1e-4;  // coarse target so off-band tiles demote
  cfg.allow_fp16 = true;
  cfg.allow_bf16 = true;
  cfg.calibrate_perf_model = false;
  return cfg;
}

core::ModelConfig tlr_config() {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = 24;
  cfg.tlr_tol = 1e-7;
  cfg.auto_band = false;
  cfg.band_size = 1;
  cfg.calibrate_perf_model = false;
  return cfg;
}

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32 check value for "123456789".
  const std::uint8_t msg[9] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(tile::crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(tile::crc32(nullptr, 0), 0x00000000u);
}

TEST(TileSerialize, RoundTripsEveryFormat) {
  Rng rng(7);
  std::vector<tile::Tile> tiles;
  tiles.push_back(tile::Tile::dense(random_matrix(8, 8, rng)));
  {
    la::Matrix<float> m(8, 5);
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t i = 0; i < 8; ++i) m(i, j) = static_cast<float>(rng.normal());
    tiles.push_back(tile::Tile::dense(std::move(m)));
  }
  {
    la::Matrix<half> m(6, 6);
    for (std::size_t j = 0; j < 6; ++j)
      for (std::size_t i = 0; i < 6; ++i) m(i, j) = half(rng.normal());
    tiles.push_back(tile::Tile::dense(std::move(m)));
  }
  {
    la::Matrix<bfloat16> m(7, 3);  // ragged
    for (std::size_t j = 0; j < 3; ++j)
      for (std::size_t i = 0; i < 7; ++i) m(i, j) = bfloat16(rng.normal());
    tiles.push_back(tile::Tile::dense(std::move(m)));
  }
  tiles.push_back(
      tile::Tile::lowrank(random_matrix(9, 2, rng), random_matrix(6, 2, rng)));
  {
    la::Matrix<float> u(5, 3), v(8, 3);
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t i = 0; i < 5; ++i) u(i, j) = static_cast<float>(rng.normal());
      for (std::size_t i = 0; i < 8; ++i) v(i, j) = static_cast<float>(rng.normal());
    }
    tiles.push_back(tile::Tile::lowrank(std::move(u), std::move(v)));
  }

  // All records concatenated into one buffer, then read back in order.
  std::vector<std::uint8_t> buf;
  for (const tile::Tile& t : tiles) tile::encode_tile(t, buf);
  std::size_t off = 0;
  for (const tile::Tile& t : tiles) {
    const tile::Tile back = tile::decode_tile(buf, off);
    EXPECT_EQ(back.format(), t.format());
    EXPECT_EQ(back.precision(), t.precision());
    EXPECT_EQ(back.rows(), t.rows());
    EXPECT_EQ(back.cols(), t.cols());
    EXPECT_EQ(back.rank(), t.rank());
    // Bit-identity: re-serializing reproduces the record byte for byte.
    std::vector<std::uint8_t> once, twice;
    tile::encode_tile(t, once);
    tile::encode_tile(back, twice);
    EXPECT_EQ(once, twice);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(TileSerialize, RejectsTruncatedRecord) {
  Rng rng(8);
  std::vector<std::uint8_t> buf;
  tile::encode_tile(tile::Tile::dense(random_matrix(4, 4, rng)), buf);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, buf.size() - 1}) {
    std::vector<std::uint8_t> cut(buf.begin(),
                                  buf.begin() + static_cast<std::ptrdiff_t>(keep));
    std::size_t off = 0;
    EXPECT_THROW(tile::decode_tile(cut, off), InvalidArgument) << keep;
  }
}

class ModelCheckpointRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ModelCheckpointRoundTrip, BitIdenticalFactorAndPredictions) {
  const Problem p = make_problem(120);
  core::ModelConfig cfg;
  switch (GetParam()) {
    case 0: cfg = dense_config(); break;
    case 1: cfg = mp_config(); break;
    default: cfg = tlr_config(); break;
  }
  const ModelCheckpoint ckpt = make_checkpoint(p, cfg);
  const std::string path =
      temp_path("gsx_ckpt_rt_" + std::to_string(GetParam()) + ".ckpt");
  save_model_checkpoint(path, ckpt);
  const ModelCheckpoint back = load_model_checkpoint(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.kernel, "matern");
  EXPECT_EQ(back.theta, p.theta);
  EXPECT_EQ(static_cast<int>(back.config.variant), static_cast<int>(cfg.variant));
  EXPECT_EQ(back.config.tile_size, cfg.tile_size);
  EXPECT_EQ(back.config.tlr_tol, cfg.tlr_tol);
  ASSERT_EQ(back.train_locs.size(), p.locs.size());
  for (std::size_t i = 0; i < p.locs.size(); ++i) {
    EXPECT_EQ(back.train_locs[i].x, p.locs[i].x);
    EXPECT_EQ(back.train_locs[i].y, p.locs[i].y);
    EXPECT_EQ(back.train_locs[i].t, p.locs[i].t);
  }
  EXPECT_EQ(back.z_train, p.z);

  // The reloaded factor is bit-identical (per-tile format, precision, rank
  // and payload bytes), so predictions through it match to 0 ULP.
  EXPECT_EQ(factor_bytes(back.factor), factor_bytes(ckpt.factor));

  const auto kernel = geostat::make_kernel("matern", p.theta);
  Rng rng(21);
  const std::vector<geostat::Location> test_locs =
      geostat::perturbed_grid_locations(25, rng);
  const auto fresh =
      cholesky::tile_krige(*kernel, ckpt.factor, p.locs, p.z, test_locs, true);
  const auto reloaded =
      cholesky::tile_krige(*kernel, back.factor, p.locs, p.z, test_locs, true);
  ASSERT_EQ(fresh.mean.size(), reloaded.mean.size());
  for (std::size_t i = 0; i < fresh.mean.size(); ++i) {
    EXPECT_EQ(fresh.mean[i], reloaded.mean[i]) << i;          // 0 ULP
    EXPECT_EQ(fresh.variance[i], reloaded.variance[i]) << i;  // 0 ULP
  }
}

std::string variant_test_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "Dense";
    case 1: return "MP";
    default: return "TLR";
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ModelCheckpointRoundTrip,
                         ::testing::Values(0, 1, 2), variant_test_name);

TEST(CheckpointRejects, CorruptedCrc) {
  const Problem p = make_problem(72);
  const std::string path = temp_path("gsx_ckpt_corrupt.ckpt");
  save_model_checkpoint(path, make_checkpoint(p, dense_config()));

  std::vector<char> data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  data.back() ^= 0x5A;  // flip bits in the last payload byte (FACT section)
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  EXPECT_THROW(load_model_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointRejects, TruncatedFile) {
  const Problem p = make_problem(72);
  const std::string path = temp_path("gsx_ckpt_trunc.ckpt");
  save_model_checkpoint(path, make_checkpoint(p, dense_config()));
  std::vector<char> data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_THROW(load_model_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

// The load verb reads a file the client names, so a config byte past its
// enum's last value must be rejected even when the section's CRC holds.
// Loads `ckpt` saved with its config byte `at` set to `value`, with the
// META section's CRC recomputed to match; `saved`, if given, receives the
// byte as the file held it.
ModelCheckpoint load_with_config_byte(std::size_t at, std::uint8_t value,
                                      const ModelCheckpoint& ckpt,
                                      std::uint8_t* saved = nullptr) {
  // One file per (variant, byte, value): ctest runs these tests as parallel
  // processes.
  const std::string path =
      temp_path("gsx_ckpt_enum_" + std::to_string(static_cast<int>(ckpt.config.variant)) +
                "_" + std::to_string(at) + "_" + std::to_string(value) + ".ckpt");
  save_model_checkpoint(path, ckpt);
  std::vector<std::uint8_t> data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // META is the first section: after the 16-byte file header come its tag,
  // a reserved word, the u64 payload length and the CRC; the payload holds
  // the kernel name, theta and then the config.
  constexpr std::size_t kLength = 24, kCrc = 32, kPayload = 36;
  EXPECT_EQ(std::memcmp(data.data() + 16, "META", 4), 0);
  std::uint64_t length = 0;
  std::memcpy(&length, data.data() + kLength, sizeof(length));
  const std::size_t config = kPayload + 4 + std::strlen("matern") + 8 + 8 * ckpt.theta.size();
  if (saved != nullptr) *saved = data[config + at];
  data[config + at] = value;
  const std::uint32_t crc = tile::crc32(data.data() + kPayload, length);
  std::memcpy(data.data() + kCrc, &crc, sizeof(crc));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  struct Cleanup {
    const std::string& path;
    ~Cleanup() { std::remove(path.c_str()); }
  } cleanup{path};
  return load_model_checkpoint(path);
}

/// The same for a small dense model.
ModelCheckpoint load_with_config_byte(std::size_t at, std::uint8_t value) {
  return load_with_config_byte(at, value, make_checkpoint(make_problem(48), dense_config()));
}

void expect_config_byte_rejected(std::size_t at, std::uint8_t value, const std::string& field) {
  try {
    (void)load_with_config_byte(at, value);
    ADD_FAILURE() << field << " byte " << int{value} << " loaded";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoint: " + field + " byte " + std::to_string(value)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

// Config byte offsets: variant 0, precision rule 9, compression method 44,
// rounding method 45. Each field's last enumerator still loads.
TEST(CheckpointRejects, OutOfRangeComputeVariant) {
  EXPECT_EQ(load_with_config_byte(0, 2).config.variant, core::ComputeVariant::MPDenseTLR);
  expect_config_byte_rejected(0, 3, "compute variant");
  expect_config_byte_rejected(0, 9, "compute variant");
}

TEST(CheckpointRejects, OutOfRangePrecisionRule) {
  EXPECT_EQ(load_with_config_byte(9, 2).config.mp_rule,
            cholesky::PrecisionRule::AdaptiveFrobenius);
  expect_config_byte_rejected(9, 3, "precision rule");
}

// Bytes 44 and 45 once chose SVD (0) or ACA (1) compression and QR+SVD (0)
// or RRQR (1) rounding; only SVD and RRQR are left. A file is still written
// with 0 and 1 there, a file holding either value in either byte loads, and
// a TLR factor saved under the deleted method serves the same answers.
void expect_retired_method_byte(std::size_t at, std::uint8_t written,
                                const std::string& field) {
  const Problem p = make_problem(120);
  const ModelCheckpoint fresh = make_checkpoint(p, tlr_config());
  std::size_t lowrank = 0;
  for (std::size_t j = 0; j < fresh.factor.nt(); ++j)
    for (std::size_t i = j + 1; i < fresh.factor.nt(); ++i)
      lowrank += fresh.factor.at(i, j).format() == tile::TileFormat::LowRank;
  ASSERT_GT(lowrank, 0u);
  std::uint8_t saved = 0xFF;
  const ModelCheckpoint other =
      load_with_config_byte(at, static_cast<std::uint8_t>(1 - written), fresh, &saved);
  EXPECT_EQ(saved, written);
  const ModelCheckpoint same = load_with_config_byte(at, written);
  for (const ModelCheckpoint* c : {&other, &same}) {
    EXPECT_EQ(c->config.compression, tlr::CompressionMethod::SVD);
    EXPECT_EQ(c->config.rounding, tlr::RoundingMethod::Rrqr);
  }

  EXPECT_EQ(factor_bytes(other.factor), factor_bytes(fresh.factor));
  const auto served = LoadedModel::from_checkpoint("m", other);
  Rng rng(21);
  const std::vector<geostat::Location> test_locs = geostat::perturbed_grid_locations(9, rng);
  const auto want =
      cholesky::tile_krige(*served->kernel, fresh.factor, p.locs, p.z, test_locs, true);
  const auto got =
      cholesky::tile_krige(*served->kernel, served->factor, p.locs, p.z, test_locs, true);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.variance, want.variance);

  expect_config_byte_rejected(at, 2, field);
}

TEST(CheckpointRejects, OutOfRangeCompressionMethod) {
  expect_retired_method_byte(44, 0, "compression method");
}

TEST(CheckpointRejects, OutOfRangeRoundingMethod) {
  expect_retired_method_byte(45, 1, "rounding method");
}

TEST(CheckpointRejects, BadMagicAndMissingFile) {
  const std::string path = temp_path("gsx_ckpt_magic.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTACKPTxxxxxxxxxxxxxxxx";
  }
  EXPECT_THROW(load_model_checkpoint(path), InvalidArgument);
  EXPECT_THROW(probe_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
  EXPECT_THROW(load_model_checkpoint(temp_path("gsx_ckpt_does_not_exist.ckpt")),
               InvalidArgument);
}

TEST(FitCheckpoint, RoundTripAndProbe) {
  FitCheckpoint fc;
  fc.kernel = "matern-nugget";
  fc.theta_best = {0.9, 0.12, 0.7, 0.02};
  fc.loglik_best = -1234.5678;
  fc.evaluations = 77;
  const std::string path = temp_path("gsx_ckpt_fit.ckpt");
  save_fit_checkpoint(path, fc);

  EXPECT_EQ(probe_checkpoint(path), CheckpointKind::FitProgress);
  const FitCheckpoint back = load_fit_checkpoint(path);
  EXPECT_EQ(back.kernel, fc.kernel);
  EXPECT_EQ(back.theta_best, fc.theta_best);
  EXPECT_EQ(back.loglik_best, fc.loglik_best);
  EXPECT_EQ(back.evaluations, fc.evaluations);
  std::remove(path.c_str());

  const Problem p = make_problem(48);
  const std::string mpath = temp_path("gsx_ckpt_probe_model.ckpt");
  save_model_checkpoint(mpath, make_checkpoint(p, dense_config()));
  EXPECT_EQ(probe_checkpoint(mpath), CheckpointKind::Model);
  std::remove(mpath.c_str());
}

TEST(LoadedModel, ReconstructsKernelAndSolvedObservations) {
  const Problem p = make_problem(96);
  const ModelCheckpoint ckpt = make_checkpoint(p, dense_config());
  const std::string path = temp_path("gsx_ckpt_loaded.ckpt");
  save_model_checkpoint(path, ckpt);
  const auto model = LoadedModel::from_checkpoint("m", path);
  std::remove(path.c_str());

  EXPECT_EQ(model->name, "m");
  EXPECT_EQ(model->path, path);
  EXPECT_EQ(geostat::kernel_name(*model->kernel), "matern");
  EXPECT_EQ(model->theta, p.theta);
  EXPECT_GT(model->resident_bytes, model->factor.footprint_bytes());

  // y_solved is the forward solve of the observations through the factor.
  std::vector<double> y(p.z.begin(), p.z.end());
  cholesky::tile_forward_solve(ckpt.factor, y);
  EXPECT_EQ(model->y_solved, y);
}

}  // namespace
}  // namespace gsx::serve
