#include "serve/registry.hpp"

#include <utility>

#include "cholesky/tile_solve.hpp"
#include "common/error.hpp"
#include "geostat/kernel_registry.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace gsx::serve {

namespace {

std::shared_ptr<LoadedModel> build_loaded(std::string name, ModelCheckpoint ckpt);

}  // namespace

std::shared_ptr<const LoadedModel> LoadedModel::from_checkpoint(std::string name,
                                                                const std::string& path) {
  std::shared_ptr<LoadedModel> model =
      build_loaded(std::move(name), load_model_checkpoint(path));
  model->path = path;
  return model;
}

std::shared_ptr<const LoadedModel> LoadedModel::from_checkpoint(std::string name,
                                                                ModelCheckpoint ckpt) {
  return build_loaded(std::move(name), std::move(ckpt));
}

namespace {

std::shared_ptr<LoadedModel> build_loaded(std::string name, ModelCheckpoint ckpt) {
  auto m = std::make_shared<LoadedModel>();
  m->name = std::move(name);
  m->kernel = geostat::make_kernel(ckpt.kernel, ckpt.theta);
  m->theta = std::move(ckpt.theta);
  m->config = ckpt.config;
  m->train_locs = std::move(ckpt.train_locs);
  m->z_train = std::move(ckpt.z_train);
  m->factor = std::move(ckpt.factor);

  // Amortize the observation solve and the factor's packing once: every
  // batch then reuses y and the packed tiles.
  m->y_solved.assign(m->z_train.begin(), m->z_train.end());
  cholesky::tile_forward_solve(m->factor, m->y_solved);
  m->packed_factor = cholesky::PackedOffdiag(m->factor);

  m->resident_bytes = m->factor.footprint_bytes() + m->packed_factor.bytes() +
                      m->train_locs.size() * sizeof(geostat::Location) +
                      (m->z_train.size() + m->y_solved.size()) * sizeof(double);
  return m;
}

}  // namespace

ModelRegistry::ModelRegistry(std::size_t max_resident_bytes)
    : capacity_bytes_(max_resident_bytes) {}

void ModelRegistry::evict_to_fit_locked(std::size_t incoming_bytes) {
  while (!entries_.empty() && resident_bytes_ + incoming_bytes > capacity_bytes_) {
    auto victim = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.last_used.load(std::memory_order_relaxed) <
          victim->second.last_used.load(std::memory_order_relaxed))
        victim = it;
    }
    const std::size_t victim_bytes = victim->second.model->resident_bytes;
    resident_bytes_ -= victim_bytes;
    obs::log_info("serve", "evicting model from factor cache",
                  {obs::lf("name", victim->first),
                   obs::lf("bytes", static_cast<std::uint64_t>(victim_bytes))});
    entries_.erase(victim);
    ++evictions_;
    obs::Registry::instance().counter("serve.cache.evictions").add();
    GSX_FLIGHT(obs::EventKind::CacheEvict, 0, 0, 0, static_cast<double>(victim_bytes));
  }
}

std::shared_ptr<const LoadedModel> ModelRegistry::load(const std::string& name,
                                                       const std::string& path) {
  // Parse outside the lock: loading is slow, lookups must not stall.
  std::shared_ptr<const LoadedModel> model = LoadedModel::from_checkpoint(name, path);
  return insert(std::move(model));
}

std::shared_ptr<const LoadedModel> ModelRegistry::insert(
    std::shared_ptr<const LoadedModel> model) {
  GSX_REQUIRE(model != nullptr && !model->name.empty(),
              "ModelRegistry::insert: model with a non-empty name required");
  GSX_REQUIRE(model->resident_bytes <= capacity_bytes_,
              "ModelRegistry: model larger than the whole cache (" +
                  std::to_string(model->resident_bytes) + " bytes)");
  std::unique_lock lk(mu_);
  if (const auto it = entries_.find(model->name); it != entries_.end()) {
    resident_bytes_ -= it->second.model->resident_bytes;
    entries_.erase(it);
  }
  evict_to_fit_locked(model->resident_bytes);
  resident_bytes_ += model->resident_bytes;
  ++loads_;
  // Entry holds an atomic (not movable) — construct in place, then fill.
  Entry& e = entries_.try_emplace(model->name).first->second;
  e.model = model;
  e.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  obs::Registry::instance().gauge("serve.cache.bytes")
      .set(static_cast<double>(resident_bytes_));
  obs::Registry::instance().gauge("serve.cache.models")
      .set(static_cast<double>(entries_.size()));
  return model;
}

std::shared_ptr<const LoadedModel> ModelRegistry::get(const std::string& name) const {
  std::shared_lock lk(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("serve.cache.misses").add();
    GSX_FLIGHT(obs::EventKind::CacheMiss, 0, 0, 0, 0.0);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::instance().counter("serve.cache.hits").add();
  GSX_FLIGHT(obs::EventKind::CacheHit, 0, 0, 0, 0.0);
  it->second.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
  return it->second.model;
}

bool ModelRegistry::unload(const std::string& name) {
  std::unique_lock lk(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  resident_bytes_ -= it->second.model->resident_bytes;
  entries_.erase(it);
  obs::Registry::instance().gauge("serve.cache.bytes")
      .set(static_cast<double>(resident_bytes_));
  obs::Registry::instance().gauge("serve.cache.models")
      .set(static_cast<double>(entries_.size()));
  return true;
}

RegistryStats ModelRegistry::stats() const {
  std::shared_lock lk(mu_);
  RegistryStats s;
  s.models = entries_.size();
  s.resident_bytes = resident_bytes_;
  s.capacity_bytes = capacity_bytes_;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.loads = loads_;
  s.evictions = evictions_;
  return s;
}

}  // namespace gsx::serve
