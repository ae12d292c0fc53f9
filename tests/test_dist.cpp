// Distributed backend: placement properties, wire framing, socket transport,
// out-of-core pool, external tasks, in-process multi-rank factorization
// matched against the single-process oracle, and the oracle matched against
// the production tile path.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/placement.hpp"
#include "dist/tile_pool.hpp"
#include "dist/transport.hpp"
#include "distsim/distsim.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/matrix.hpp"
#include "runtime/task_graph.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tile/tile.hpp"
#include "tile/tile_codec.hpp"
#include "test_utils.hpp"

namespace gsx::dist {
namespace {

// ---------------------------------------------------------------- placement

TEST(Placement, OwnerFormulaAndDeterminism) {
  const ProcessGrid g{2, 3};
  EXPECT_EQ(g.nodes(), 6u);
  EXPECT_EQ(g.owner(0, 0), 0u);
  EXPECT_EQ(g.owner(1, 0), 3u);
  EXPECT_EQ(g.owner(0, 1), 1u);
  EXPECT_EQ(g.owner(5, 7), (5 % 2) * 3 + (7 % 3));
  // Same inputs, same partition — no communication needed to agree.
  EXPECT_EQ(owned_tiles(g, 3, 16), owned_tiles(g, 3, 16));
}

TEST(Placement, NearSquareGrids) {
  EXPECT_EQ(ProcessGrid::near_square(1).p * ProcessGrid::near_square(1).q, 1u);
  const ProcessGrid g4 = ProcessGrid::near_square(4);
  EXPECT_EQ(g4.p, 2u);
  EXPECT_EQ(g4.q, 2u);
  const ProcessGrid g6 = ProcessGrid::near_square(6);
  EXPECT_EQ(g6.p * g6.q, 6u);
  const ProcessGrid g7 = ProcessGrid::near_square(7);  // prime: 1 x 7
  EXPECT_EQ(g7.p * g7.q, 7u);
}

TEST(Placement, PartitionCoversTriangleOnce) {
  const ProcessGrid g = ProcessGrid::near_square(4);
  const std::size_t nt = 9;
  std::vector<int> seen(nt * nt, 0);
  std::size_t total = 0;
  for (std::size_t r = 0; r < g.nodes(); ++r)
    for (const auto& [i, j] : owned_tiles(g, r, nt)) {
      EXPECT_GE(i, j);
      EXPECT_EQ(g.owner(i, j), r);
      ++seen[i * nt + j];
      ++total;
    }
  EXPECT_EQ(total, nt * (nt + 1) / 2);
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i) EXPECT_EQ(seen[i * nt + j], 1);
}

/// Stored-tile count per rank.
std::vector<std::size_t> tile_counts(const ProcessGrid& grid, std::size_t nt) {
  std::vector<std::size_t> counts(grid.nodes(), 0);
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i) ++counts[grid.owner(i, j)];
  return counts;
}

TEST(Placement, BlockCyclicBalance) {
  // 2D block-cyclic keeps stored-tile counts within a small spread.
  const ProcessGrid g = ProcessGrid::near_square(4);
  const std::vector<std::size_t> counts = tile_counts(g, 32);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GE(*lo * 5, *hi * 4) << "worst rank holds >25% more tiles than best";
}

TEST(Placement, DistsimSharesTheSameGrid) {
  // The simulator consumes the identical placement type: a simulated layout
  // and a real run put every tile on the same rank by construction.
  static_assert(std::is_same_v<distsim::ProcessGrid, ProcessGrid>);
}

// ------------------------------------------------------------ wire framing

tile::Tile test_tile(double scale = 1.0, std::size_t n = 8) {
  la::Matrix<double> m(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      m(i, j) = scale * (static_cast<double>(i) + 10.0 * static_cast<double>(j));
  return tile::Tile::dense(std::move(m));
}

TEST(WireFraming, RoundTrip) {
  std::vector<std::uint8_t> buf;
  encode_wire_message(kMsgPanel, 3, (7ull << 32) | 2, test_tile(), buf);
  std::size_t off = 0;
  const WireMessage msg = decode_wire_message(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(msg.kind, kMsgPanel);
  EXPECT_EQ(msg.src, 3);
  EXPECT_EQ(msg.tag >> 32, 7u);
  EXPECT_EQ(msg.tile.rows(), 8u);
}

TEST(WireFraming, RejectsCorruptionEverywhere) {
  std::vector<std::uint8_t> buf;
  encode_wire_message(kMsgGather, 1, 5, test_tile(1.0, 4), buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::vector<std::uint8_t> bad = buf;
    bad[i] ^= 0x01;
    std::size_t off = 0;
    bool rejected = false;
    try {
      const WireMessage msg = decode_wire_message(bad, off);
      // Header kind/src/tag bytes are outside the tile CRC; a flip there
      // must still parse to a *different* message, never a corrupted tile.
      rejected = msg.kind != kMsgGather || msg.src != 1 || msg.tag != 5;
    } catch (const InvalidArgument&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected) << "flipped byte " << i << " passed through";
  }
}

// -------------------------------------------------------------- transport

TEST(Transport, SendRecvMailboxAndDelivery) {
  TileTransport a(0), b(1);
  const std::uint16_t pa = a.listen();
  const std::uint16_t pb = b.listen();
  const std::map<int, std::uint16_t> peers{{0, pa}, {1, pb}};
  a.set_peers(peers);
  b.set_peers(peers);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> delivered;
  b.set_delivery(kMsgPanel, [&](int src, std::uint64_t tag, tile::Tile t) {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(t.rows(), 8u);
    std::lock_guard lk(mu);
    delivered.push_back(tag);
    cv.notify_all();
  });

  a.send_tile(1, kMsgPanel, 11, test_tile(2.0));
  a.send_tile(1, kMsgGather, 22, test_tile(3.0));
  b.send_tile(0, kMsgGather, 33, test_tile(4.0));

  const tile::Tile via_mailbox = b.recv_tile(kMsgGather, 22);
  EXPECT_DOUBLE_EQ(via_mailbox.to_dense64()(1, 1), 3.0 * 11.0);
  const tile::Tile back = a.recv_tile(kMsgGather, 33);
  EXPECT_DOUBLE_EQ(back.to_dense64()(1, 1), 4.0 * 11.0);
  {
    std::unique_lock lk(mu);
    cv.wait_for(lk, std::chrono::seconds(10), [&] { return !delivered.empty(); });
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], 11u);
  }
  EXPECT_EQ(a.stats().tiles_sent.load(), 2u);
  EXPECT_EQ(b.stats().tiles_recv.load(), 2u);
  EXPECT_GT(a.stats().bytes_sent.load(), 0u);
  a.shutdown();
  b.shutdown();
}

TEST(Transport, CorruptFrameCountedAndConnectionDropped) {
  TileTransport b(1);
  const std::uint16_t pb = b.listen();

  // Hand-roll a sender so we can flip a payload byte after encoding.
  std::vector<std::uint8_t> buf;
  encode_wire_message(kMsgPanel, 0, 9, test_tile(), buf);
  buf[buf.size() - 3] ^= 0x10;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(pb);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(fd, buf.data(), buf.size(), 0),
            static_cast<ssize_t>(buf.size()));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (b.stats().recv_corrupt.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(b.stats().recv_corrupt.load(), 1u);
  EXPECT_EQ(b.stats().tiles_recv.load(), 0u);
  ::close(fd);
  b.shutdown();
}

// -------------------------------------------------------------- tile pool

/// Per-test scratch directory under the system temp root (NOT the CWD: these
/// tests used to litter `pool_*.<pid>/` into the source tree when run from a
/// source checkout), removed recursively when the test process exits.
std::string fresh_dir(const std::string& name) {
  static std::vector<std::filesystem::path>& made = *new std::vector<std::filesystem::path>;
  static const int cleanup = std::atexit([] {
    for (const auto& p : made) {
      std::error_code ec;
      std::filesystem::remove_all(p, ec);
    }
  });
  (void)cleanup;
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("gsx_" + name + ".XXXXXX"))
                         .string();
  const char* dir = ::mkdtemp(tmpl.data());
  GSX_REQUIRE(dir != nullptr, "fresh_dir: mkdtemp failed");
  made.emplace_back(dir);
  return dir;
}

TEST(TilePool, ByteBoundEnforcedWithSpillAndReadback) {
  const std::string dir = fresh_dir("pool_spill");
  // 16x16 FP64 dense tiles: 2048 payload bytes each; bound of 5000 keeps at
  // most two resident.
  PooledTileStore pool(5000, dir);
  for (std::size_t i = 0; i < 4; ++i) pool.put(i, 0, test_tile(1.0 + i, 16));
  EXPECT_LE(pool.resident_bytes(), 5000u);
  EXPECT_GE(pool.stats().spill_out.load(), 2u);

  // Fault the coldest tiles back in and check every value survived the disk
  // round trip (CRC-verified by the codec).
  for (std::size_t i = 0; i < 4; ++i) {
    TileLease lease(pool, i, 0);
    EXPECT_DOUBLE_EQ(lease.get().to_dense64()(3, 2), (1.0 + i) * 23.0);
  }
  EXPECT_GE(pool.stats().spill_in.load(), 2u);
  EXPECT_LE(pool.resident_bytes(), 5000u);

  // take() drains the pool (gather path), faulting in what is on disk.
  for (std::size_t i = 0; i < 4; ++i) {
    const tile::Tile t = pool.take(i, 0);
    EXPECT_EQ(t.rows(), 16u);
  }
  EXPECT_EQ(pool.resident_bytes(), 0u);
  // Every spill eventually faulted back in: nothing left on disk.
  EXPECT_EQ(pool.stats().spill_in.load(), pool.stats().spill_out.load());
}

TEST(TilePool, OvercommitsInsteadOfDeadlocking) {
  const std::string dir = fresh_dir("pool_tiny");
  PooledTileStore pool(100, dir);  // below a single tile's 2048 bytes
  pool.put(0, 0, test_tile(1.0, 16));
  EXPECT_GE(pool.stats().overcommit.load(), 1u);
  TileLease lease(pool, 0, 0);  // still usable
  EXPECT_EQ(lease.get().rows(), 16u);
}

TEST(TilePool, CorruptSpillFileRejectedOnFaultIn) {
  const std::string dir = fresh_dir("pool_corrupt");
  PooledTileStore pool(2500, dir);
  pool.put(0, 0, test_tile(1.0, 16));
  pool.put(1, 0, test_tile(2.0, 16));  // evicts (0,0) to disk
  ASSERT_GE(pool.stats().spill_out.load(), 1u);
  const std::string path = dir + "/t0_0.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    const char x = 0x7F;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)pool.pin(0, 0), InvalidArgument);
}

// ------------------------------------------------- external tasks (runtime)

TEST(ExternalTasks, NotifyDuringRunReleasesConsumers) {
  rt::TaskGraph g;
  const auto d = rt::DatumId::from_index(1);
  int seen = -1;
  std::atomic<int> staged{0};
  const std::size_t recv = g.submit_external("recv", {{d, rt::Access::Write}});
  g.submit("consume", {{d, rt::Access::Read}}, [&] { seen = staged.load(); });
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    staged.store(42);
    g.notify(recv);
  });
  g.run(2);
  notifier.join();
  EXPECT_EQ(seen, 42);
}

TEST(ExternalTasks, NotifyBeforeRunIsRemembered) {
  rt::TaskGraph g;
  const auto d = rt::DatumId::from_index(1);
  bool ran = false;
  const std::size_t recv = g.submit_external("recv", {{d, rt::Access::Write}});
  g.submit("consume", {{d, rt::Access::Read}}, [&] { ran = true; });
  g.notify(recv);  // transport can outrun run()
  g.run(2);
  EXPECT_TRUE(ran);
}

TEST(ExternalTasks, NotifyOfRegularTaskThrows) {
  rt::TaskGraph g;
  const std::size_t t = g.submit("t", {}, [] {});
  EXPECT_THROW(g.notify(t), InvalidArgument);
}

// ------------------------------------- multi-rank factorization vs oracle

struct MultiRankResult {
  DistResult rank0;
  std::vector<RankStats> stats;
};

MultiRankResult run_ranks(const DistProblemConfig& prob, int nprocs, DistPolicy policy,
                          std::size_t ooc_bytes = 0, const std::string& spill_base = "") {
  Coordinator coord(nprocs);
  const std::uint16_t port = coord.start();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  MultiRankResult out;
  out.stats.resize(static_cast<std::size_t>(nprocs));
  std::mutex mu;
  for (int r = 0; r < nprocs; ++r)
    threads.emplace_back([&, r] {
      try {
        DistRunConfig cfg;
        cfg.rank = r;
        cfg.nprocs = nprocs;
        cfg.coord_port = port;
        cfg.workers = 2;
        cfg.policy = policy;
        if (ooc_bytes > 0) {
          cfg.ooc_bytes = ooc_bytes;
          cfg.spill_dir = spill_base + "/r" + std::to_string(r);
          ::mkdir(cfg.spill_dir.c_str(), 0755);
        }
        DistResult res = run_dist_rank(prob, cfg);
        std::lock_guard lk(mu);
        out.stats[static_cast<std::size_t>(r)] = res.stats;
        if (r == 0) out.rank0 = std::move(res);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  EXPECT_TRUE(coord.all_ok());
  coord.stop();
  return out;
}

void expect_matches_oracle(const DistProblemConfig& prob, DistPolicy policy,
                           int nprocs) {
  const MultiRankResult run = run_ranks(prob, nprocs, policy);
  ASSERT_NE(run.rank0.factor, nullptr);
  const auto oracle = oracle_factor(prob, policy, run.rank0.global_norm, 2);
  const FactorComparison cmp = compare_factors(*run.rank0.factor, *oracle);
  EXPECT_TRUE(cmp.identical)
      << dist_policy_name(policy) << " n=" << prob.n << ": " << cmp.mismatched_tiles << "/"
      << cmp.tiles_compared << " tiles differ, max |diff| " << cmp.max_abs_diff;
  if (nprocs > 1) {
    std::uint64_t sent = 0;
    for (const RankStats& s : run.stats) sent += s.tiles_sent;
    EXPECT_GT(sent, 0u) << "multi-rank run exchanged no tiles";
  }
}

DistProblemConfig small_problem() {
  DistProblemConfig prob;
  prob.n = 96;
  prob.tile_size = 16;
  return prob;
}

/// n = 100 in tiles of 16: the last tile row and column hold 4 rows, so
/// ragged tiles cross the transport, the tile pool and the gather.
DistProblemConfig ragged_problem() {
  DistProblemConfig prob;
  prob.n = 100;
  prob.tile_size = 16;
  return prob;
}

TEST(DistCholesky, DenseMatchesOracleAcross4Ranks) {
  expect_matches_oracle(small_problem(), DistPolicy::Dense, 4);
  expect_matches_oracle(ragged_problem(), DistPolicy::Dense, 4);
}

TEST(DistCholesky, MixedPrecisionMatchesOracleAcross4Ranks) {
  expect_matches_oracle(small_problem(), DistPolicy::MixedPrecision, 4);
  expect_matches_oracle(ragged_problem(), DistPolicy::MixedPrecision, 4);
}

TEST(DistCholesky, TlrMatchesOracleAcross4Ranks) {
  expect_matches_oracle(small_problem(), DistPolicy::Tlr, 4);
  expect_matches_oracle(ragged_problem(), DistPolicy::Tlr, 4);
}

TEST(DistCholesky, SingleRankDegenerateCase) {
  expect_matches_oracle(small_problem(), DistPolicy::Dense, 1);
}

TEST(DistCholesky, WeightedSumsqMatchesFullNorm) {
  // weighted_sumsq over the whole stored triangle (off-diagonal tiles count
  // twice) is exactly ||A||_F^2 of the symmetric operator.
  tile::SymTileMatrix a(64, 16);
  gsx::test::generate(a, [](std::size_t gi, std::size_t gj) {
    return 1.0 / (1.0 + static_cast<double>(gi > gj ? gi - gj : gj - gi));
  });
  std::vector<std::pair<std::size_t, std::size_t>> all;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) all.emplace_back(i, j);
  const double sumsq = weighted_sumsq(a, all);
  EXPECT_NEAR(std::sqrt(sumsq), a.frobenius_norm(), 1e-9 * std::sqrt(sumsq));
}

TEST(DistCholesky, OutOfCoreSpillsAndStillMatchesOracle) {
  const DistProblemConfig prob = small_problem();
  const std::string base = fresh_dir("dist_ooc");
  // 16x16 FP64 tiles are 2048 B; a 6 KiB bound forces heavy spilling on the
  // rank that owns ~11 of the 21 stored tiles.
  const MultiRankResult run = run_ranks(prob, 2, DistPolicy::Dense, 6144, base);
  ASSERT_NE(run.rank0.factor, nullptr);
  std::uint64_t spills = 0;
  for (const RankStats& s : run.stats) spills += s.spill_out;
  EXPECT_GT(spills, 0u) << "pool bound never triggered a spill";
  const auto oracle = oracle_factor(prob, DistPolicy::Dense, run.rank0.global_norm, 2);
  const FactorComparison cmp = compare_factors(*run.rank0.factor, *oracle);
  EXPECT_TRUE(cmp.identical) << cmp.mismatched_tiles << " tiles differ";
}

// ------------------------- parity with the single-process production path

/// The problem's covariance tiles built the way GsxModel builds them: the
/// same seed, Morton ordering and Matérn kernel every rank uses.
tile::SymTileMatrix production_tiles(const DistProblemConfig& prob) {
  Rng rng(prob.seed);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(prob.n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, prob.range, prob.smoothness, prob.nugget);
  tile::SymTileMatrix a(prob.n, prob.tile_size);
  geostat::fill_covariance_tiles(a, model, locs, 2);
  return a;
}

void expect_same_factor(const tile::SymTileMatrix& oracle,
                        const tile::SymTileMatrix& production) {
  const FactorComparison cmp = compare_factors(oracle, production);
  EXPECT_TRUE(cmp.identical) << cmp.mismatched_tiles << "/" << cmp.tiles_compared
                             << " tiles differ, max |diff| " << cmp.max_abs_diff;
}

TEST(DistParity, TlrOracleMatchesCompressOffbandAtRaggedN) {
  // The 4-row last tile row must get compress_offband's decisions (rank
  // cap tile_size/2, not half the tile's own rows).
  const DistProblemConfig prob = ragged_problem();
  tile::SymTileMatrix a = production_tiles(prob);
  const double norm = a.frobenius_norm();
  cholesky::TlrCompressOptions copt;
  copt.tol = 1e-7;
  copt.band_size = 2;
  cholesky::compress_offband(a, copt, 2);
  ASSERT_EQ(cholesky::tile_cholesky_tlr(a, copt.tol, cholesky::FactorOptions{}).info, 0);
  expect_same_factor(*oracle_factor(prob, DistPolicy::Tlr, norm, 2), a);
}

TEST(DistParity, MixedPrecisionOracleMatchesPrecisionPolicyAtRaggedN) {
  const DistProblemConfig prob = ragged_problem();
  tile::SymTileMatrix a = production_tiles(prob);
  const double norm = a.frobenius_norm();
  cholesky::PrecisionPolicy policy;
  policy.rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  cholesky::apply_precision_policy(a, policy);
  ASSERT_EQ(cholesky::tile_cholesky_dense(a, cholesky::FactorOptions{}).info, 0);
  expect_same_factor(*oracle_factor(prob, DistPolicy::MixedPrecision, norm, 2), a);
}

}  // namespace
}  // namespace gsx::dist
