// gsx-ckpt-v1: versioned binary checkpoints for fitted models and MLE
// restarts — the persistence layer that splits *modeling* (fit once) from
// *prediction* (serve many), as ExaGeoStat's modeling/prediction stages do.
//
// File layout (all integers little-endian, fixed width):
//   magic   "GSXCKPT1"                                    8 bytes
//   u32     format version (= 1)
//   u32     section count
//   then per section:
//     u32   tag (FourCC, e.g. 'META')
//     u32   reserved (0)
//     u64   payload bytes
//     u32   CRC32 (IEEE reflected, poly 0xEDB88320) of the payload
//     payload bytes
//
// A fitted-model checkpoint carries META (kernel name, theta, ModelConfig)
// + LOCS (train locations) + OBSV (observations) + FACT (the tile Cholesky
// factor of Sigma_nn, per-tile precision and TLR rank metadata included).
// A fit-progress checkpoint (mid-MLE restart, in the spirit of long-run
// solvers like SDPB) carries META + FITP (best theta, best loglik,
// evaluation count) and no factor.
//
// Every section CRC is verified on load; a mismatch, truncation, bad magic
// or unknown version throws InvalidArgument. Loads are bit-identical:
// reloaded factors reproduce predictions to 0 ULP.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "geostat/locations.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::serve {

/// A fitted model ready to serve: everything prediction needs, no refit.
struct ModelCheckpoint {
  std::string kernel;                  ///< registry name (geostat::make_kernel)
  std::vector<double> theta;           ///< fitted parameters
  core::ModelConfig config;            ///< variant/tile/policy the factor was built with
  std::vector<geostat::Location> train_locs;
  std::vector<double> z_train;
  tile::SymTileMatrix factor{1, 1};    ///< tile Cholesky factor of Sigma_nn(theta)
};

/// Mid-fit restart state: the incumbent best plus optimizer bookkeeping.
struct FitCheckpoint {
  std::string kernel;
  std::vector<double> theta_best;
  double loglik_best = 0.0;
  std::uint64_t evaluations = 0;
};

enum class CheckpointKind : unsigned char { Model, FitProgress };

/// Atomic save (write to path + ".tmp", then rename). Throws on I/O errors.
void save_model_checkpoint(const std::string& path, const ModelCheckpoint& ckpt);
void save_fit_checkpoint(const std::string& path, const FitCheckpoint& ckpt);

/// Full parse with CRC verification of every section.
ModelCheckpoint load_model_checkpoint(const std::string& path);
FitCheckpoint load_fit_checkpoint(const std::string& path);

/// Cheap kind probe (magic + section tags only, no payload validation).
CheckpointKind probe_checkpoint(const std::string& path);

/// Full structural + CRC validation without materializing the model: every
/// section parsed and CRC-checked. False for missing files, bad magic,
/// truncation (a partially copied file in a shared store) or CRC mismatch.
[[nodiscard]] bool checkpoint_valid(const std::string& path) noexcept;

/// Resolve `model` to its newest valid checkpoint in a shared store
/// directory. Layout, in precedence order:
///   <store>/<model>.ckpt            — single current version
///   <store>/<model>/<version>.ckpt  — versioned; lexicographically last
///                                     *valid* file wins (invalid/partial
///                                     files are skipped, never fatal)
/// Throws InvalidArgument when no valid checkpoint exists for the model.
std::string resolve_store_checkpoint(const std::string& store_dir,
                                     const std::string& model);

}  // namespace gsx::serve
