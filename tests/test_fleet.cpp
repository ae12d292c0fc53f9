// Fleet subsystem: consistent-hash membership (placement stability, bounded
// movement, drain/dead exclusion, stale expiry), the shared checkpoint store
// (newest-valid resolution, partial-file rejection, concurrent loads,
// hot-swap), and router end-to-end passes against live replica Servers —
// routing vs the placement oracle, failover after a killed replica, a drain
// that drops zero in-flight predicts, pooled connection reuse, a restarted
// replica that is re-dialed instead of marked dead, and a re-registered one
// that is never reached on its old port.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/export_prom.hpp"
#include "obs/metrics.hpp"
#include "obs/flight_merge.hpp"
#include "core/model.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "geostat/locations.hpp"
#include "geostat/prediction.hpp"
#include "serve/checkpoint.hpp"
#include "serve/listener.hpp"
#include "serve/membership.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "test_utils.hpp"

namespace gsx::serve {
namespace {

struct Problem {
  std::vector<geostat::Location> locs;
  std::vector<double> z;
  std::vector<double> theta{1.0, 0.1, 0.5};
};

Problem make_problem(std::size_t n, std::uint64_t seed = 13) {
  Rng rng(seed);
  Problem p;
  p.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(p.locs);
  const auto kernel = geostat::make_kernel("matern", p.theta);
  p.z = geostat::simulate_grf(*kernel, p.locs, rng);
  return p;
}

ModelCheckpoint make_checkpoint(const Problem& p) {
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 24;
  cfg.calibrate_perf_model = false;
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

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<geostat::Location> random_points(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geostat::Location> pts(m);
  for (geostat::Location& l : pts) {
    l.x = rng.uniform();
    l.y = rng.uniform();
  }
  return pts;
}

// --- membership: placement --------------------------------------------------

TEST(Membership, PlacementIsIndependentOfJoinOrder) {
  Membership a(10.0), b(10.0);
  for (const char* r : {"r0", "r1", "r2", "r3"}) a.join(r, "127.0.0.1", 1);
  for (const char* r : {"r3", "r1", "r0", "r2"}) b.join(r, "127.0.0.1", 1);
  for (int m = 0; m < 100; ++m) {
    const std::string model = "model-" + std::to_string(m);
    const auto oa = a.owner(model);
    const auto ob = b.owner(model);
    ASSERT_TRUE(oa && ob);
    EXPECT_EQ(oa->name, ob->name) << model;
  }
}

TEST(Membership, JoinMovesOnlyABoundedShareOfModels) {
  Membership ring(10.0);
  for (const char* r : {"r0", "r1", "r2"}) ring.join(r, "127.0.0.1", 1);
  constexpr int kModels = 400;
  std::vector<std::string> before(kModels);
  for (int m = 0; m < kModels; ++m)
    before[m] = ring.owner("model-" + std::to_string(m))->name;

  ring.join("r3", "127.0.0.1", 1);
  int moved = 0;
  for (int m = 0; m < kModels; ++m) {
    const auto o = ring.owner("model-" + std::to_string(m));
    if (o->name != before[m]) {
      // Every move must land on the newcomer — consistent hashing never
      // reshuffles models between surviving replicas.
      EXPECT_EQ(o->name, "r3");
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kModels / 2);  // ~1/4 expected; half is already failure
}

TEST(Membership, DrainAndDeadLeaveTheRoutableSet) {
  Membership ring(10.0);
  for (const char* r : {"r0", "r1", "r2"}) ring.join(r, "127.0.0.1", 1);
  ASSERT_EQ(ring.alive_count(), 3u);
  const std::uint64_t rehashes = ring.rehash_events();

  EXPECT_TRUE(ring.drain("r1"));
  EXPECT_TRUE(ring.mark_dead("r2"));
  EXPECT_EQ(ring.alive_count(), 1u);
  EXPECT_EQ(ring.rehash_events(), rehashes + 2);
  for (int m = 0; m < 50; ++m) {
    const auto o = ring.owner("model-" + std::to_string(m));
    ASSERT_TRUE(o);
    EXPECT_EQ(o->name, "r0");
  }

  // Draining and dead replicas stay visible to operators.
  EXPECT_EQ(ring.snapshot().size(), 3u);
  // A heartbeat does not resurrect; a re-join does.
  EXPECT_FALSE(ring.heartbeat("r2", 0.0));
  EXPECT_TRUE(ring.join("r2", "127.0.0.1", 1));
  EXPECT_EQ(ring.alive_count(), 2u);
}

TEST(Membership, StaleHeartbeatExpiresToDead) {
  using Clock = Membership::Clock;
  const Clock::time_point t0 = Clock::now();
  Membership ring(5.0);
  ring.join("r0", "127.0.0.1", 1, t0);
  ring.join("r1", "127.0.0.1", 1, t0);
  ring.heartbeat("r1", 0.0, 0.0, t0 + std::chrono::seconds(4));

  EXPECT_EQ(ring.alive_count(t0 + std::chrono::seconds(4)), 2u);
  // r0's heartbeat is 6s old, r1's is 2s old.
  EXPECT_EQ(ring.expire_stale(t0 + std::chrono::seconds(6)), 1u);
  const auto o = ring.owner("anything", t0 + std::chrono::seconds(6));
  ASSERT_TRUE(o);
  EXPECT_EQ(o->name, "r1");
  // Owner skips a fresh-looking entry whose state is already Dead.
  EXPECT_FALSE(ring.heartbeat("r0", 0.0, 0.0, t0 + std::chrono::seconds(6)));
  EXPECT_EQ(ring.alive_count(t0 + std::chrono::seconds(6)), 1u);
}

TEST(Membership, NothingRoutableReturnsNullopt) {
  Membership ring(10.0);
  EXPECT_FALSE(ring.owner("m"));
  ring.join("r0", "127.0.0.1", 1);
  ring.drain("r0");
  EXPECT_FALSE(ring.owner("m"));
}

// --- checkpoint store -------------------------------------------------------

TEST(Store, ResolvesFlatThenVersionedNewestValid) {
  const Problem p = make_problem(72);
  const ModelCheckpoint ckpt = make_checkpoint(p);
  const std::string store = temp_dir("gsx_fleet_store_resolve");

  // Flat layout wins when present.
  save_model_checkpoint(store + "/flat.ckpt", ckpt);
  EXPECT_EQ(resolve_store_checkpoint(store, "flat"), store + "/flat.ckpt");

  // Versioned layout: lexicographically last valid version wins.
  std::filesystem::create_directories(store + "/era5");
  save_model_checkpoint(store + "/era5/v0001.ckpt", ckpt);
  save_model_checkpoint(store + "/era5/v0002.ckpt", ckpt);
  EXPECT_EQ(resolve_store_checkpoint(store, "era5"), store + "/era5/v0002.ckpt");

  // A truncated (partially copied) newer version is skipped, not fatal.
  {
    std::ifstream in(store + "/era5/v0002.ckpt", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(store + "/era5/v0003.ckpt", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(checkpoint_valid(store + "/era5/v0003.ckpt"));
  EXPECT_EQ(resolve_store_checkpoint(store, "era5"), store + "/era5/v0002.ckpt");

  EXPECT_THROW(resolve_store_checkpoint(store, "ghost"), InvalidArgument);
  std::filesystem::remove_all(store);
}

TEST(Store, CorruptPayloadFailsCrcValidation) {
  const Problem p = make_problem(72);
  const std::string store = temp_dir("gsx_fleet_store_crc");
  const std::string path = store + "/m.ckpt";
  save_model_checkpoint(path, make_checkpoint(p));
  ASSERT_TRUE(checkpoint_valid(path));

  // Flip one payload byte near the end of the file (inside FACT data).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 9);
    char b;
    f.seekg(size - 9);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(size - 9);
    f.write(&b, 1);
  }
  EXPECT_FALSE(checkpoint_valid(path));
  EXPECT_THROW(load_model_checkpoint(path), InvalidArgument);
  EXPECT_THROW(resolve_store_checkpoint(store, "m"), InvalidArgument);
  std::filesystem::remove_all(store);
}

TEST(Store, TwoReplicasLoadTheSameCheckpointConcurrently) {
  const Problem p = make_problem(96);
  const std::string store = temp_dir("gsx_fleet_store_concurrent");
  save_model_checkpoint(store + "/m.ckpt", make_checkpoint(p));

  ModelRegistry reg_a, reg_b;
  std::atomic<int> failures{0};
  std::thread a([&] {
    try {
      reg_a.load("m", resolve_store_checkpoint(store, "m"));
    } catch (...) {
      ++failures;
    }
  });
  std::thread b([&] {
    try {
      reg_b.load("m", resolve_store_checkpoint(store, "m"));
    } catch (...) {
      ++failures;
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  const auto ma = reg_a.get("m");
  const auto mb = reg_b.get("m");
  ASSERT_TRUE(ma && mb);
  // Checkpoint loads are bit-identical, so both replicas hold the same data.
  EXPECT_EQ(ma->z_train, mb->z_train);
  EXPECT_EQ(ma->resident_bytes, mb->resident_bytes);
  std::filesystem::remove_all(store);
}

TEST(Store, HotSwapPicksNewestAndKeepsInFlightModelAlive) {
  const Problem p1 = make_problem(72, 13);
  const Problem p2 = make_problem(72, 14);  // different field, same extent
  const std::string store = temp_dir("gsx_fleet_store_hotswap");
  std::filesystem::create_directories(store + "/m");
  save_model_checkpoint(store + "/m/v0001.ckpt", make_checkpoint(p1));

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.store_dir = store;
  Server server(cfg);
  ASSERT_TRUE(JsonValue::parse(server.handle_line(R"({"op":"load","name":"m"})"))
                  .find("ok")->as_bool());
  const auto v1 = server.registry().get("m");
  ASSERT_NE(v1, nullptr);

  // Publish v0002 and hot-swap by re-issuing the same store-resolved load.
  save_model_checkpoint(store + "/m/v0002.ckpt", make_checkpoint(p2));
  const JsonValue r =
      JsonValue::parse(server.handle_line(R"({"op":"load","name":"m"})"));
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  EXPECT_EQ(r.find("path")->as_string(), store + "/m/v0002.ckpt");

  // The registry now serves v2; the in-flight v1 handle is still whole.
  const auto v2 = server.registry().get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_EQ(v1->z_train, p1.z);
  EXPECT_EQ(v2->z_train, p2.z);
  std::filesystem::remove_all(store);
}

// --- router + replicas end to end -------------------------------------------

/// A live in-process fleet: k replica Servers on ephemeral TCP ports plus a
/// Router, replicas joined into the membership table.
struct Fleet {
  explicit Fleet(std::size_t k, const std::string& store = "") {
    RouterConfig rcfg;
    rcfg.stale_after_seconds = 60.0;  // tests drive state transitions directly
    router = std::make_unique<Router>(rcfg);
    for (std::size_t i = 0; i < k; ++i) {
      ServerConfig cfg;
      cfg.workers = 1;
      cfg.store_dir = store;
      replicas.push_back(std::make_unique<Server>(cfg));
      ports.push_back(replicas.back()->listen());
      loops.emplace_back([s = replicas.back().get()] { s->serve_forever(); });
      router->membership().join("r" + std::to_string(i), "127.0.0.1",
                                ports.back());
    }
  }
  ~Fleet() {
    router->shutdown();
    for (auto& r : replicas) r->shutdown();
    for (auto& t : loops) t.join();
  }

  JsonValue ask(const std::string& line) {
    return JsonValue::parse(router->handle_line(line));
  }

  std::unique_ptr<Router> router;
  std::vector<std::unique_ptr<Server>> replicas;
  std::vector<std::uint16_t> ports;
  std::vector<std::thread> loops;
};

std::string predict_line(const std::string& model,
                         const std::vector<geostat::Location>& pts) {
  std::string req = R"({"op":"predict","model":")" + model + R"(","points":[)";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i) req += ",";
    req += "[" + std::to_string(pts[i].x) + "," + std::to_string(pts[i].y) + "]";
  }
  req += "]}";
  return req;
}

TEST(FleetE2E, RoutesLoadsAndPredictsAcrossThreeReplicas) {
  const Problem p = make_problem(96);
  const std::string store = temp_dir("gsx_fleet_e2e_store");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(3, store);
  // Load eight models through the router; each lands on its hash owner.
  std::set<std::string> used;
  for (int m = 0; m < 8; ++m) {
    const std::string name = "model-" + std::to_string(m);
    const JsonValue r = fleet.ask(
        R"({"op":"load","name":")" + name + R"(","path":"shared.ckpt"})");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    const std::string placed = r.find("replica")->as_string();
    EXPECT_EQ(placed, fleet.router->membership().owner(name)->name);
    used.insert(placed);
  }
  EXPECT_GE(used.size(), 2u);  // 8 models over 3 replicas must spread

  // Predictions agree with the dense kriging oracle, and each is answered by
  // the model's placement owner.
  const auto kernel = geostat::make_kernel("matern", p.theta);
  for (int m = 0; m < 8; m += 3) {
    const std::string name = "model-" + std::to_string(m);
    const auto pts = random_points(5, 700 + static_cast<std::uint64_t>(m));
    const JsonValue r = fleet.ask(predict_line(name, pts));
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_EQ(r.find("replica")->as_string(),
              fleet.router->membership().owner(name)->name);

    std::vector<geostat::Location> sent(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      sent[i].x = std::stod(std::to_string(pts[i].x));
      sent[i].y = std::stod(std::to_string(pts[i].y));
    }
    const auto oracle = gsx::test::krige(*kernel, p.locs, p.z, sent, true);
    const auto& mean = r.find("mean")->as_array();
    ASSERT_EQ(mean.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_NEAR(mean[i].as_number(), oracle.mean[i],
                  1e-8 * std::max(1.0, std::abs(oracle.mean[i])));
  }
}

TEST(FleetE2E, KilledReplicaFailsOverAndKeepsServing) {
  const Problem p = make_problem(96);
  const std::string store = temp_dir("gsx_fleet_e2e_failover");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(3, store);
  for (int m = 0; m < 6; ++m)
    ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"model-)" + std::to_string(m) +
                          R"(","path":"shared.ckpt"})")
                    .find("ok")->as_bool());

  // Kill replica r1 ungracefully: no drain, no goodbye — the router finds out
  // from the failed forward.
  const std::size_t victim = 1;
  fleet.replicas[victim]->shutdown();
  const std::uint64_t rehashes_before = fleet.router->membership().rehash_events();

  const auto pts = random_points(4, 41);
  for (int m = 0; m < 6; ++m) {
    const std::string name = "model-" + std::to_string(m);
    const JsonValue r = fleet.ask(predict_line(name, pts));
    ASSERT_TRUE(r.find("ok")->as_bool()) << name << " -> " << r.dump();
    EXPECT_NE(r.find("replica")->as_string(), "r1") << name;
  }
  // At least one model was owned by the victim, so the router must have
  // marked it dead (>= 1 rehash) and auto-loaded on the inheritor.
  EXPECT_GT(fleet.router->membership().rehash_events(), rehashes_before);
  const auto snapshot = fleet.router->membership().snapshot();
  for (const ReplicaInfo& r : snapshot)
    if (r.name == "r1") {
      EXPECT_EQ(r.state, ReplicaState::Dead);
    }
}

TEST(FleetE2E, DrainCompletesEveryInFlightPredict) {
  const Problem p = make_problem(96);
  const std::string store = temp_dir("gsx_fleet_e2e_drain");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(3, store);
  for (int m = 0; m < 6; ++m)
    ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"model-)" + std::to_string(m) +
                          R"(","path":"shared.ckpt"})")
                    .find("ok")->as_bool());

  // Saturate the fleet with concurrent predicts, then drain one replica in
  // the middle of the storm. Every request must complete: requests in flight
  // on the drained replica flush before it exits, later ones re-route.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 4;
  std::atomic<std::size_t> dropped{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::string name =
            "model-" + std::to_string((t * kPerThread + i) % 6);
        const auto pts = random_points(3, 100 * t + i);
        const JsonValue r = fleet.ask(predict_line(name, pts));
        const JsonValue* ok = r.find("ok");
        if (ok == nullptr || !ok->as_bool()) ++dropped;
      }
    });
  }
  const JsonValue drained = fleet.ask(R"({"op":"drain","replica":"r0"})");
  EXPECT_TRUE(drained.find("ok")->as_bool()) << drained.dump();
  for (auto& t : clients) t.join();

  EXPECT_EQ(dropped.load(), 0u);
  // The drained replica left the routable set. Usually it still reports
  // draining here, but a client racing the drain may dial it after its
  // listener closed, in which case the router's failover already marked it
  // dead — either way it must no longer count as alive.
  for (const ReplicaInfo& r : fleet.router->membership().snapshot())
    if (r.name == "r0") {
      EXPECT_NE(r.state, ReplicaState::Alive);
    }
  for (int m = 0; m < 6; ++m) {
    const auto o = fleet.router->membership().owner("model-" + std::to_string(m));
    ASSERT_TRUE(o);
    EXPECT_NE(o->name, "r0");
  }
  // And new predicts still complete on the survivors.
  const JsonValue after = fleet.ask(predict_line("model-0", random_points(2, 999)));
  EXPECT_TRUE(after.find("ok")->as_bool()) << after.dump();
}

// Forwards take an idle pooled connection instead of dialing: sequential
// traffic through the router needs one connection per replica.
TEST(FleetE2E, ForwardsReuseConnections) {
  obs::set_enabled(true);  // counters only count while recording is on
  const Problem p = make_problem(72);
  const std::string store = temp_dir("gsx_fleet_e2e_reuse");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(3, store);
  auto& reg = obs::Registry::instance();
  const std::uint64_t dials_before = reg.counter("router.forward.dials").value();
  const std::uint64_t forwards_before = reg.counter("router.forwards").value();
  for (int m = 0; m < 6; ++m)
    ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"model-)" + std::to_string(m) +
                          R"(","path":"shared.ckpt"})")
                    .find("ok")->as_bool());
  for (int i = 0; i < 30; ++i) {
    const JsonValue r = fleet.ask(predict_line(
        "model-" + std::to_string(i % 6), random_points(2, 300 + static_cast<std::uint64_t>(i))));
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  }
  const std::uint64_t dials = reg.counter("router.forward.dials").value() - dials_before;
  EXPECT_GE(dials, 1u);
  EXPECT_LE(dials, fleet.replicas.size());
  EXPECT_EQ(reg.counter("router.forwards").value() - forwards_before, 30u);
  obs::set_enabled(false);
  std::filesystem::remove_all(store);
}

// A replica that restarts on its port leaves the router holding a pooled
// connection to the old process. That connection fails, but the fresh dial
// behind it succeeds, so the replica is neither marked Dead nor rehashed.
TEST(FleetE2E, RestartedReplicaIsRedialedNotMarkedDead) {
  const Problem p = make_problem(72);
  const std::string store = temp_dir("gsx_fleet_e2e_restart");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(3, store);
  std::string model;
  for (int m = 0; model.empty(); ++m)
    if (fleet.router->membership().owner("model-" + std::to_string(m))->name == "r1")
      model = "model-" + std::to_string(m);
  ASSERT_TRUE(fleet.ask(R"({"op":"load","name":")" + model +
                        R"(","path":"shared.ckpt"})")
                  .find("ok")->as_bool());
  ASSERT_TRUE(fleet.ask(predict_line(model, random_points(2, 51))).find("ok")->as_bool());

  // Restart r1: same port, same store, an empty registry.
  fleet.replicas[1]->shutdown();
  fleet.loops[1].join();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.store_dir = store;
  cfg.tcp_port = fleet.ports[1];
  fleet.replicas[1] = std::make_unique<Server>(cfg);
  ASSERT_EQ(fleet.replicas[1]->listen(), fleet.ports[1]);
  fleet.loops[1] = std::thread([s = fleet.replicas[1].get()] { s->serve_forever(); });

  const std::uint64_t rehashes_before = fleet.router->membership().rehash_events();
  const JsonValue r = fleet.ask(predict_line(model, random_points(2, 52)));
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  EXPECT_EQ(r.find("replica")->as_string(), "r1");
  EXPECT_EQ(fleet.router->membership().rehash_events(), rehashes_before);
  for (const ReplicaInfo& info : fleet.router->membership().snapshot()) {
    if (info.name == "r1") {
      EXPECT_EQ(info.state, ReplicaState::Alive);
    }
  }
  std::filesystem::remove_all(store);
}

// A name re-registered at a new port must not be served a pooled connection
// to its old port, even while the old process still answers there.
TEST(FleetE2E, ReRegisteredReplicaIsNotReachedOnItsOldPort) {
  const Problem p = make_problem(72);
  const std::string store = temp_dir("gsx_fleet_e2e_reregister");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(1, store);
  ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"m","path":"shared.ckpt"})")
                  .find("ok")->as_bool());
  ASSERT_TRUE(fleet.ask(predict_line("m", random_points(2, 61))).find("ok")->as_bool());

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.store_dir = store;
  Server moved(cfg);
  const std::uint16_t moved_port = moved.listen();
  std::thread moved_loop([&moved] { moved.serve_forever(); });
  fleet.router->membership().join("r0", "127.0.0.1", moved_port);

  const std::uint64_t old_completed = fleet.replicas[0]->engine().stats().completed;
  const JsonValue r = fleet.ask(predict_line("m", random_points(2, 62)));
  EXPECT_TRUE(r.find("ok")->as_bool()) << r.dump();
  EXPECT_EQ(moved.engine().stats().completed, 1u);
  EXPECT_EQ(fleet.replicas[0]->engine().stats().completed, old_completed);

  moved.shutdown();
  moved_loop.join();
  std::filesystem::remove_all(store);
}

TEST(FleetE2E, RouterForwardsClientRequestIdAcrossBothHops) {
  const Problem p = make_problem(72);
  const std::string store = temp_dir("gsx_fleet_e2e_reqid");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));

  Fleet fleet(1, store);
  ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"m","path":"shared.ckpt"})")
                  .find("ok")->as_bool());
  std::string line = predict_line("m", random_points(2, 7));
  line.insert(line.size() - 1, R"(,"request_id":"r-424242")");
  const JsonValue r = fleet.ask(line);
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  // The replica echoed the id the router forwarded — one id, both hops.
  EXPECT_EQ(r.find("request_id")->as_string(), "r-424242");
}

TEST(FleetE2E, AnnouncerRegistersHeartbeatsAndSaysGoodbye) {
  RouterConfig rcfg;
  rcfg.stale_after_seconds = 60.0;
  Router router(rcfg);
  const std::uint16_t router_port = router.listen();
  std::thread loop([&router] { router.serve_forever(); });

  Announcer::Config acfg;
  acfg.router_port = router_port;
  acfg.replica_name = "hb-replica";
  acfg.replica_port = 19999;  // never dialed in this test
  acfg.heartbeat_seconds = 0.02;
  Announcer announcer(acfg, [] { return ReplicaLoad{1.5, 2.0}; });
  announcer.start();

  // register + a few heartbeats land.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (announcer.delivered() < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(announcer.delivered(), 3u);

  bool seen = false;
  for (const ReplicaInfo& r : router.membership().snapshot()) {
    if (r.name != "hb-replica") continue;
    seen = true;
    EXPECT_EQ(r.state, ReplicaState::Alive);
    EXPECT_EQ(r.port, 19999);
    EXPECT_GE(r.heartbeats, 3u);
    EXPECT_EQ(r.queue_depth, 1.5);
    EXPECT_EQ(r.inflight, 2.0);
  }
  EXPECT_TRUE(seen);

  // stop() sends the goodbye drain: the replica leaves the routable set
  // immediately instead of waiting out the stale window.
  announcer.stop();
  EXPECT_EQ(router.membership().alive_count(), 0u);
  for (const ReplicaInfo& r : router.membership().snapshot())
    if (r.name == "hb-replica") {
      EXPECT_EQ(r.state, ReplicaState::Draining);
    }

  router.shutdown();
  loop.join();
}

TEST(Router, StatsHealthAndUnknownVerbs) {
  RouterConfig cfg;
  Router router(cfg);
  const JsonValue health = JsonValue::parse(router.handle_line(R"({"op":"health"})"));
  EXPECT_TRUE(health.find("ok")->as_bool());
  EXPECT_EQ(health.find("status")->as_string(), "no-replicas");

  EXPECT_FALSE(JsonValue::parse(router.handle_line(R"({"op":"transmogrify"})"))
                   .find("ok")->as_bool());
  EXPECT_FALSE(JsonValue::parse(router.handle_line("not json"))
                   .find("ok")->as_bool());
  EXPECT_FALSE(JsonValue::parse(
                   router.handle_line(R"({"op":"heartbeat","replica":"ghost"})"))
                   .find("ok")->as_bool());
  EXPECT_FALSE(JsonValue::parse(
                   router.handle_line(R"({"op":"predict","model":"m","points":[[0,0]]})"))
                   .find("ok")->as_bool());

  ASSERT_TRUE(JsonValue::parse(router.handle_line(
                  R"({"op":"register","replica":"r0","port":12345})"))
                  .find("ok")->as_bool());
  const JsonValue stats = JsonValue::parse(router.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  ASSERT_EQ(stats.find("replicas")->as_array().size(), 1u);
  EXPECT_EQ(stats.find("replicas")->as_array()[0].find("state")->as_string(),
            "alive");
  EXPECT_EQ(stats.find("alive")->as_number(), 1.0);
}

// A heartbeat "seq" has to be a uint64_t: anything else is a wire error,
// not an out-of-range cast.
TEST(Router, HeartbeatSeqMustBeAnUnsigned64BitInteger) {
  RouterConfig cfg;
  Router router(cfg);
  ASSERT_TRUE(JsonValue::parse(router.handle_line(
                  R"({"op":"register","replica":"r0","port":12345})"))
                  .find("ok")->as_bool());
  for (const char* seq : {"-1", "1e30", "0.5", "\"5\""}) {
    const JsonValue r = JsonValue::parse(router.handle_line(
        std::string(R"({"op":"heartbeat","replica":"r0","seq":)") + seq + "}"));
    EXPECT_FALSE(r.find("ok")->as_bool()) << seq;
    ASSERT_NE(r.find("error"), nullptr) << seq;
    EXPECT_NE(r.find("error")->as_string().find("seq"), std::string::npos) << seq;
  }
  EXPECT_TRUE(JsonValue::parse(router.handle_line(
                  R"({"op":"heartbeat","replica":"r0","seq":5})"))
                  .find("ok")->as_bool());
}

TEST(Wire, RequestIdRoundTrip) {
  EXPECT_EQ(parse_request_id("r-17"), 17u);
  EXPECT_EQ(parse_request_id("17"), 17u);
  EXPECT_EQ(parse_request_id("r-"), 0u);
  EXPECT_EQ(parse_request_id("bogus"), 0u);
  EXPECT_EQ(parse_request_id(request_id_string(12345)), 12345u);
}

// Regression: a wire-initiated drain and the daemon's post-accept shutdown
// path used to race into Engine::drain / Router::shutdown concurrently —
// two threads passing the joinable() check would both join the same
// std::thread (UB; in practice the loser parked on a futex forever). All
// teardown entry points must tolerate concurrent callers.
TEST(FleetE2E, ConcurrentShutdownCallersDoNotDeadlock) {
  ServerConfig scfg;
  scfg.tcp_port = 0;
  auto server = std::make_unique<Server>(scfg);
  server->listen();
  std::thread server_loop([&] { server->serve_forever(); });

  RouterConfig rcfg;
  rcfg.tcp_port = 0;
  auto router = std::make_unique<Router>(rcfg);
  router->listen();
  std::thread router_loop([&] { router->serve_forever(); });

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { server->shutdown(); });
    stoppers.emplace_back([&] { router->shutdown(); });
  }
  for (std::thread& t : stoppers) t.join();
  server_loop.join();
  router_loop.join();
  server.reset();
  router.reset();
}

TEST(FleetE2E, ServeAfterShutdownReturnsImmediately) {
  // The ordering the concurrent test above can hit: a shutdown lands before
  // the serve loop starts. The loop must return, not throw on its thread.
  ServerConfig scfg;
  scfg.tcp_port = 0;
  Server server(scfg);
  server.listen();
  server.shutdown();
  EXPECT_NO_THROW(server.serve_forever());
  RouterConfig rcfg;
  rcfg.tcp_port = 0;
  Router router(rcfg);
  router.listen();
  router.shutdown();
  EXPECT_NO_THROW(router.serve_forever());
}

// --- fleet observability plane ----------------------------------------------

// The whole plane in one pass: a predict through the router carries a
// distributed trace id end to end; fleet_metrics federates every replica's
// exposition under replica="<name>" labels with fleet rollups; a corrupted
// factor fails a traced predict; flight_collect gathers every process's
// dump; and the merge reconstructs one timeline where the failing trace id
// spans the router's forward and the replica's solve.
TEST(FleetE2E, ObservabilityPlaneTracesMetricsAndFlightCorrelation) {
  // Recording is opt-in (the daemons flip it at startup); without it every
  // counter stays 0 and the flight ring stays empty.
  obs::set_enabled(true);
  const Problem p = make_problem(96);
  const std::string store = temp_dir("gsx_fleet_obs_store");
  save_model_checkpoint(store + "/shared.ckpt", make_checkpoint(p));
  // A zero on the factor diagonal: the first predict against it trips the
  // non-finite sentinel (NumericalError arriving through data, not wire).
  ModelCheckpoint bad = make_checkpoint(p);
  bad.factor.at(0, 0).matrix<double>()(0, 0) = 0.0;
  save_model_checkpoint(store + "/bad.ckpt", bad);

  Fleet fleet(3, store);
  ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"m","path":"shared.ckpt"})")
                  .find("ok")->as_bool());
  ASSERT_TRUE(fleet.ask(R"({"op":"load","name":"doomed","path":"bad.ckpt"})")
                  .find("ok")->as_bool());

  // 1. The router mints a trace id and the predict response carries it.
  const JsonValue ok = fleet.ask(predict_line("m", random_points(4, 41)));
  ASSERT_TRUE(ok.find("ok")->as_bool()) << ok.dump();
  const JsonValue* tid = ok.find("trace_id");
  ASSERT_NE(tid, nullptr) << ok.dump();
  EXPECT_EQ(tid->as_string().rfind("t-", 0), 0u);

  // A client-supplied trace context is adopted, not replaced.
  std::string traced = predict_line("m", random_points(3, 42));
  traced.insert(traced.size() - 1, R"(,"trace_id":"t-00000000deadbeef")");
  const JsonValue adopted = fleet.ask(traced);
  ASSERT_TRUE(adopted.find("ok")->as_bool()) << adopted.dump();
  EXPECT_EQ(adopted.find("trace_id")->as_string(), "t-00000000deadbeef");

  // Heartbeat-reported load surfaces per replica in router stats.
  const JsonValue stats = fleet.ask(R"({"op":"stats"})");
  ASSERT_TRUE(stats.find("ok")->as_bool());
  for (const JsonValue& r : stats.find("replicas")->as_array())
    ASSERT_NE(r.find("inflight"), nullptr) << r.dump();

  // 2. Federated metrics: every replica's series re-labeled, plus rollups.
  const JsonValue fm = fleet.ask(R"({"op":"fleet_metrics"})");
  ASSERT_TRUE(fm.find("ok")->as_bool()) << fm.dump();
  const std::string prom = fm.find("prometheus")->as_string();
  for (const char* r : {"r0", "r1", "r2"})
    EXPECT_NE(prom.find("replica=\"" + std::string(r) + "\""),
              std::string::npos) << r;
  EXPECT_NE(prom.find("gsx_serve_predict_seconds_bucket{replica="),
            std::string::npos);
  EXPECT_NE(prom.find("gsx_router_fleet_replicas_scraped 3"), std::string::npos);
  EXPECT_NE(prom.find("gsx_router_fleet_queue_depth_max"), std::string::npos);
  EXPECT_NE(prom.find("gsx_router_slo_violations"), std::string::npos);

  // 3. The corrupted factor fails a traced predict.
  const JsonValue doomed = fleet.ask(predict_line("doomed", random_points(2, 43)));
  ASSERT_FALSE(doomed.find("ok")->as_bool()) << doomed.dump();
  const JsonValue* bad_tid = doomed.find("trace_id");
  ASSERT_NE(bad_tid, nullptr) << doomed.dump();
  const std::uint64_t bad_trace = parse_trace_id(bad_tid->as_string());
  ASSERT_NE(bad_trace, 0u);

  // 4. flight_collect gathers one dump per process (3 replicas + router).
  const std::string pm_dir = temp_dir("gsx_fleet_obs_pm");
  const JsonValue collected =
      fleet.ask(R"({"op":"flight_collect","dir":")" + pm_dir + R"("})");
  ASSERT_TRUE(collected.find("ok")->as_bool()) << collected.dump();
  const auto& files = collected.find("files")->as_array();
  ASSERT_EQ(files.size(), 4u) << collected.dump();

  // 5. The merged timeline tells the failure's story under one trace id.
  std::vector<obs::FlightDump> dumps;
  for (const JsonValue& f : files) {
    std::ifstream in(f.as_string());
    ASSERT_TRUE(in.good()) << f.as_string();
    std::ostringstream buf;
    buf << in.rdbuf();
    dumps.push_back(obs::parse_flight_dump(buf.str()));
    EXPECT_TRUE(dumps.back().has_header) << f.as_string();
  }
  const obs::MergeResult merged = obs::merge_flight_dumps(dumps);
  ASSERT_EQ(merged.traces.count(bad_trace), 1u)
      << "failing trace absent from the merged timeline";
  bool router_forward = false, replica_solve = false;
  std::uint64_t forward_span = 0, solve_parent = 0;
  for (const std::size_t i : merged.traces.at(bad_trace)) {
    const obs::MergedEvent& e = merged.timeline[i];
    if (e.kind == "span_router_forward") {
      router_forward = true;
      forward_span = e.a;
    }
    if (e.kind == "span_replica_solve") {
      replica_solve = true;
      solve_parent = e.b;
    }
  }
  EXPECT_TRUE(router_forward) << "trace lacks the router's forward span";
  EXPECT_TRUE(replica_solve) << "trace lacks the replica's solve span";
  // Parenthood across the hop: the replica's solve names the router's
  // forward span as its parent.
  EXPECT_EQ(solve_parent, forward_span);

  obs::set_enabled(false);
  std::filesystem::remove_all(store);
  std::filesystem::remove_all(pm_dir);
}

}  // namespace
}  // namespace gsx::serve
