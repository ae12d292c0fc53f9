// Model registry + factor cache: named fitted models resident in memory,
// LRU-bounded by resident bytes, shared read access for concurrent
// prediction (fit once, load once, predict many).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cholesky/tile_solve.hpp"
#include "geostat/covariance.hpp"
#include "serve/checkpoint.hpp"

namespace gsx::serve {

/// An immutable fitted model shared (read-only) by concurrent predictions.
/// `kernel` is positioned at the fitted theta; `y_solved` caches
/// L^{-1} Z_n and `packed_factor` the factor's dense off-diagonal tiles as
/// packed FP64 GEMM operands, so every served request starts from the
/// factored state and re-packs nothing.
struct LoadedModel {
  std::string name;
  std::string path;                     ///< checkpoint file of origin ("" if in-memory)
  std::unique_ptr<const geostat::CovarianceModel> kernel;
  std::vector<double> theta;
  core::ModelConfig config;
  std::vector<geostat::Location> train_locs;
  std::vector<double> z_train;
  tile::SymTileMatrix factor{1, 1};
  std::vector<double> y_solved;         ///< L^{-1} Z_n, computed once at load
  cholesky::PackedOffdiag packed_factor;  ///< packed once at load
  std::size_t resident_bytes = 0;  ///< factor + packed tiles + training data footprint

  /// Build from a checkpoint file (CRC-verified) or an in-memory checkpoint:
  /// reconstructs the kernel from the registry name, forward-solves the
  /// observations and packs the factor once, and accounts the resident
  /// footprint.
  static std::shared_ptr<const LoadedModel> from_checkpoint(std::string name,
                                                            const std::string& path);
  static std::shared_ptr<const LoadedModel> from_checkpoint(std::string name,
                                                            ModelCheckpoint ckpt);
};

struct RegistryStats {
  std::size_t models = 0;
  std::size_t resident_bytes = 0;
  std::size_t capacity_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
};

/// Named model cache. get() takes a shared lock and bumps a per-entry
/// recency counter (atomic, no exclusive locking on the read path);
/// load()/unload() take the exclusive lock. When inserting pushes resident
/// bytes past the cap, least-recently-used models are evicted first —
/// in-flight predictions keep their shared_ptr, so eviction never
/// invalidates a running request.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::size_t max_resident_bytes = std::size_t{1} << 30);

  /// Load from file and insert under `name`, replacing any previous entry
  /// with that name. Returns the loaded model.
  std::shared_ptr<const LoadedModel> load(const std::string& name,
                                          const std::string& path);
  /// Insert an already-built model (in-process use; benches, tests).
  std::shared_ptr<const LoadedModel> insert(std::shared_ptr<const LoadedModel> model);

  /// nullptr when absent.
  std::shared_ptr<const LoadedModel> get(const std::string& name) const;

  bool unload(const std::string& name);

  [[nodiscard]] RegistryStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const LoadedModel> model;
    mutable std::atomic<std::uint64_t> last_used{0};
  };

  void evict_to_fit_locked(std::size_t incoming_bytes);

  const std::size_t capacity_bytes_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::size_t resident_bytes_ = 0;
  mutable std::atomic<std::uint64_t> clock_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::uint64_t loads_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace gsx::serve
