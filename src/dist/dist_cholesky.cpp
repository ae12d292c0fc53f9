#include "dist/dist_cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "cholesky/tile_kernels.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dist/tile_pool.hpp"
#include "dist/transport.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "runtime/task_graph.hpp"
#include "tile/tile_codec.hpp"

namespace gsx::dist {

namespace {

// Barrier/allreduce epochs of one run, globally agreed across ranks.
constexpr std::uint64_t kEpochNorm = 1;        // allreduce of ||Sigma||_F^2
constexpr std::uint64_t kEpochPreRun = 2;      // all graphs built, deliveries set
constexpr std::uint64_t kEpochPostGather = 3;  // rank 0 holds the full factor

std::uint64_t tile_tag(std::size_t i, std::size_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}

/// Settings of the per-tile decisions every rank and the oracle make with
/// GsxModel's own functions: TLR compression (absolute tolerance 1e-7,
/// dense band 2, rank cap tile_size/2, FP32 factors where the Frobenius
/// rule allows at eps 1e-8, seed 42), adaptive-Frobenius demotion (eps
/// 1e-8, FP16 allowed), and the oracle's rounding of low-rank updates.
constexpr cholesky::TlrCompressOptions kTlr{.tol = 1.0e-7, .band_size = 2};
constexpr cholesky::PrecisionPolicy kMp{.rule = cholesky::PrecisionRule::AdaptiveFrobenius,
                                        .band = {}};
constexpr tlr::RoundingMethod kRounding = cholesky::FactorOptions{}.rounding;

/// The deterministic Matérn problem: same seed -> same locations -> same
/// Sigma on every rank and in the oracle. Mirrors bench make_space_problem.
std::vector<geostat::Location> problem_locations(const DistProblemConfig& prob) {
  Rng rng(prob.seed);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(prob.n, rng);
  geostat::sort_morton(locs);
  return locs;
}

geostat::MaternCovariance problem_kernel(const DistProblemConfig& prob) {
  return {1.0, prob.range, prob.smoothness, prob.nugget};
}

/// The storage decision `policy` makes for tile (i, j) against the global
/// norm: a switch over the functions GsxModel runs on every tile.
void decide_tile(tile::SymTileMatrix& a, std::size_t i, std::size_t j, DistPolicy policy,
                 double global_norm) {
  switch (policy) {
    case DistPolicy::Dense:
      return;
    case DistPolicy::MixedPrecision:
      cholesky::demote_tile(a, i, j, global_norm, kMp);
      return;
    case DistPolicy::Tlr:
      if (i - j >= kTlr.band_size) cholesky::compress_tile(a, i, j, global_norm, kTlr);
      return;
  }
}

/// One rank's slice of the factorization: owned tiles, remote staging,
/// the task graph, and the in-body sends.
class RankEngine {
 public:
  RankEngine(const DistProblemConfig& prob, const DistRunConfig& cfg,
             TileTransport& transport)
      : prob_(prob),
        cfg_(cfg),
        transport_(transport),
        grid_(ProcessGrid::near_square(static_cast<std::size_t>(cfg.nprocs))),
        a_(prob.n, prob.tile_size),
        nt_(a_.nt()),
        owned_(owned_tiles(grid_, rank(), nt_)) {
    if (cfg_.ooc_bytes > 0) {
      GSX_REQUIRE(!cfg_.spill_dir.empty(), "dist: ooc_bytes > 0 needs spill_dir");
      pool_ = std::make_unique<PooledTileStore>(cfg_.ooc_bytes, cfg_.spill_dir);
      store_ = pool_.get();
    } else {
      direct_ = std::make_unique<DirectTileStore>(a_);
      store_ = direct_.get();
    }
  }

  [[nodiscard]] std::size_t rank() const noexcept {
    return static_cast<std::size_t>(cfg_.rank);
  }

  /// Materialize only the owned tiles.
  void generate() {
    const std::vector<geostat::Location> locs = problem_locations(prob_);
    const std::span<const geostat::Location> all(locs);
    const geostat::MaternCovariance model = problem_kernel(prob_);
    for (const auto& [i, j] : owned_)
      a_.generate_tile(i, j, [&](std::size_t gi0, std::size_t gj0, Span2D<double> block) {
        model.fill(all.subspan(gi0, block.rows()), all.subspan(gj0, block.cols()), block);
      });
  }

  [[nodiscard]] double local_sumsq() const { return weighted_sumsq(a_, owned_); }

  void apply_policy(double global_norm) {
    for (const auto& [i, j] : owned_) decide_tile(a_, i, j, cfg_.policy, global_norm);
  }

  /// In OOC mode move the (policy-shaped) owned tiles into the byte-bounded
  /// pool; the matrix keeps only empty husks from here on.
  void seal_storage() {
    if (pool_ == nullptr) return;
    for (const auto& [i, j] : owned_) pool_->put(i, j, std::move(a_.at(i, j)));
  }

  /// Unroll the global Algorithm 1 loop, submitting only tasks whose output
  /// tile this rank owns. Same loop order and priorities as the
  /// single-process factorization — the dependency chains fix the kernel
  /// order, which is what makes the factor bit-identical to the oracle.
  void build_graph() {
    for (std::size_t k = 0; k < nt_; ++k) {
      const int base = static_cast<int>(3 * (nt_ - k));
      if (grid_.owner(k, k) == rank()) submit_potrf(k, base + 2);
      for (std::size_t m = k + 1; m < nt_; ++m)
        if (grid_.owner(m, k) == rank()) submit_trsm(m, k, base + 1);
      for (std::size_t m = k + 1; m < nt_; ++m) {
        if (grid_.owner(m, m) == rank()) submit_syrk(m, k, base);
        for (std::size_t n = k + 1; n < m; ++n)
          if (grid_.owner(m, n) == rank()) submit_gemm(m, n, k, base);
      }
    }
  }

  /// Transport delivery for kMsgPanel: stage the tile, release consumers.
  /// Runs on receiver threads; every staging slot and recv task exists
  /// before the pre-run barrier, so the maps are structurally frozen.
  [[nodiscard]] TileTransport::Delivery delivery() {
    return [this](int /*src*/, std::uint64_t tag, tile::Tile t) {
      staging_.at(tag) = std::move(t);
      graph_.notify(recv_task_.at(tag));
    };
  }

  void run(std::size_t workers) { graph_.run(workers); }

  /// Move one owned tile out of its store (gather path).
  [[nodiscard]] tile::Tile take_tile(std::size_t i, std::size_t j) {
    if (pool_ != nullptr) return pool_->take(i, j);
    return std::move(a_.at(i, j));
  }

  /// Rank 0: assemble own + received tiles into the full factor.
  /// Other ranks: ship every owned tile to rank 0.
  [[nodiscard]] std::unique_ptr<tile::SymTileMatrix> gather() {
    if (rank() != 0) {
      for (const auto& [i, j] : owned_)
        transport_.send_tile(0, kMsgGather, tile_tag(i, j), take_tile(i, j));
      return nullptr;
    }
    auto factor = std::make_unique<tile::SymTileMatrix>(prob_.n, prob_.tile_size);
    for (std::size_t j = 0; j < nt_; ++j)
      for (std::size_t i = j; i < nt_; ++i)
        factor->at(i, j) = grid_.owner(i, j) == 0
                               ? take_tile(i, j)
                               : transport_.recv_tile(kMsgGather, tile_tag(i, j));
    return factor;
  }

  [[nodiscard]] const PooledTileStore* pool() const noexcept { return pool_.get(); }

 private:
  [[nodiscard]] rt::DatumId owned_datum(std::size_t i, std::size_t j) const {
    return rt::DatumId::from_index(i * nt_ + j);
  }
  [[nodiscard]] rt::DatumId staging_datum(std::size_t i, std::size_t j) const {
    return rt::DatumId::from_index(nt_ * nt_ + i * nt_ + j);
  }

  /// Dependency on tile (i, j) as a read operand. Remote tiles lazily create
  /// their externally-completed recv task + staging slot on first use.
  [[nodiscard]] rt::Dep read_dep(std::size_t i, std::size_t j) {
    if (grid_.owner(i, j) == rank()) return {owned_datum(i, j), rt::Access::Read};
    const std::uint64_t tag = tile_tag(i, j);
    if (recv_task_.find(tag) == recv_task_.end()) {
      staging_[tag];  // default slot, overwritten by the delivery callback
      recv_task_[tag] =
          graph_.submit_external("recv", {{staging_datum(i, j), rt::Access::Write}});
    }
    return {staging_datum(i, j), rt::Access::Read};
  }

  /// Read access to tile (i, j) inside a task body: a pinned lease for owned
  /// tiles, the staged copy for remote ones.
  struct Operand {
    std::optional<TileLease> lease;
    const tile::Tile* t = nullptr;
  };
  [[nodiscard]] Operand read_operand(std::size_t i, std::size_t j) {
    Operand op;
    if (grid_.owner(i, j) == rank()) {
      op.lease.emplace(*store_, i, j);
      op.t = &op.lease->get();
    } else {
      op.t = &staging_.at(tile_tag(i, j));
    }
    return op;
  }

  /// Ship a finished tile to every rank in `dests` (self excluded, dup-free).
  void broadcast(const std::set<std::size_t>& dests, std::size_t i, std::size_t j,
                 const tile::Tile& t) {
    for (const std::size_t d : dests)
      if (d != rank())
        transport_.send_tile(static_cast<int>(d), kMsgPanel, tile_tag(i, j), t);
  }

  void submit_potrf(std::size_t k, int priority) {
    graph_.submit(
        "potrf", {{owned_datum(k, k), rt::Access::ReadWrite}},
        [this, k] {
          TileLease d(*store_, k, k);
          const int info = cholesky::potrf_tile(d.get());
          if (info != 0) {
            NumericalContext ctx;
            ctx.tile_i = static_cast<long>(k);
            ctx.tile_j = static_cast<long>(k);
            ctx.pivot = static_cast<int>(k * prob_.tile_size) + info;
            ctx.precision = d.get().precision();
            throw NumericalError("dist potrf: matrix not positive definite", ctx);
          }
          // The factored diagonal feeds every trsm of the panel below it.
          std::set<std::size_t> dests;
          for (std::size_t m = k + 1; m < nt_; ++m) dests.insert(grid_.owner(m, k));
          broadcast(dests, k, k, d.get());
        },
        priority);
  }

  void submit_trsm(std::size_t m, std::size_t k, int priority) {
    graph_.submit(
        "trsm", {read_dep(k, k), {owned_datum(m, k), rt::Access::ReadWrite}},
        [this, m, k] {
          Operand l = read_operand(k, k);
          TileLease b(*store_, m, k);
          cholesky::trsm_tile(*l.t, b.get());
          // Consumers of the finished panel tile (m, k): syrk at (m, m),
          // gemm outputs (m, n) for k < n < m and (i, m) for i > m.
          std::set<std::size_t> dests;
          dests.insert(grid_.owner(m, m));
          for (std::size_t n = k + 1; n < m; ++n) dests.insert(grid_.owner(m, n));
          for (std::size_t i = m + 1; i < nt_; ++i) dests.insert(grid_.owner(i, m));
          broadcast(dests, m, k, b.get());
        },
        priority);
  }

  void submit_syrk(std::size_t m, std::size_t k, int priority) {
    graph_.submit(
        "syrk", {read_dep(m, k), {owned_datum(m, m), rt::Access::ReadWrite}},
        [this, m, k] {
          Operand p = read_operand(m, k);
          TileLease d(*store_, m, m);
          cholesky::syrk_tile(*p.t, d.get());
        },
        priority);
  }

  void submit_gemm(std::size_t m, std::size_t n, std::size_t k, int priority) {
    graph_.submit(
        "gemm", {read_dep(m, k), read_dep(n, k), {owned_datum(m, n), rt::Access::ReadWrite}},
        [this, m, n, k] {
          Operand x = read_operand(m, k);
          Operand y = read_operand(n, k);
          TileLease c(*store_, m, n);
          cholesky::gemm_tile(*x.t, *y.t, c.get(), kTlr.tol, kRounding);
        },
        priority);
  }

  const DistProblemConfig& prob_;
  const DistRunConfig& cfg_;
  TileTransport& transport_;
  const ProcessGrid grid_;
  tile::SymTileMatrix a_;  ///< owned tiles only (empty husks in OOC mode)
  const std::size_t nt_;
  const std::vector<std::pair<std::size_t, std::size_t>> owned_;

  std::unique_ptr<PooledTileStore> pool_;
  std::unique_ptr<DirectTileStore> direct_;
  TileStore* store_ = nullptr;

  rt::TaskGraph graph_;
  // node-based maps: delivery threads write distinct slots concurrently with
  // worker-thread reads of other slots; no structural changes during run.
  std::map<std::uint64_t, tile::Tile> staging_;
  std::map<std::uint64_t, std::size_t> recv_task_;
};

}  // namespace

DistPolicy parse_dist_policy(const std::string& name) {
  if (name == "dense") return DistPolicy::Dense;
  if (name == "mp") return DistPolicy::MixedPrecision;
  if (name == "tlr") return DistPolicy::Tlr;
  GSX_REQUIRE(false, "unknown dist policy (want dense|mp|tlr): " + name);
  return DistPolicy::Dense;
}

double weighted_sumsq(const tile::SymTileMatrix& a,
                      const std::vector<std::pair<std::size_t, std::size_t>>& coords) {
  double sum = 0.0;
  for (const auto& [i, j] : coords) {
    const double f = a.at(i, j).frobenius();
    sum += (i == j ? 1.0 : 2.0) * f * f;
  }
  return sum;
}

DistResult run_dist_rank(const DistProblemConfig& prob, const DistRunConfig& run) {
  GSX_REQUIRE(run.nprocs >= 1 && run.rank >= 0 && run.rank < run.nprocs,
              "run_dist_rank: bad rank/nprocs");

  CoordClient client(run.coord_port, run.rank);
  TileTransport transport(run.rank);
  const std::uint16_t data_port = transport.listen();
  const int nprocs = client.register_rank(data_port);
  GSX_REQUIRE(nprocs == run.nprocs, "run_dist_rank: coordinator nprocs mismatch");
  // Clock-alignment beats for gsx_obs --offsets; globally unique sequence
  // numbers (rank * 1000 + n) pair Send/Ack with the coordinator's Recv.
  for (std::size_t h = 1; h <= run.heartbeats; ++h)
    client.heartbeat(static_cast<std::uint64_t>(run.rank) * 1000 + h);
  transport.set_peers(client.wait_peers());

  RankEngine engine(prob, run, transport);
  engine.generate();

  DistResult res;
  res.global_norm = std::sqrt(client.allreduce_sum(kEpochNorm, engine.local_sumsq()));
  engine.apply_policy(res.global_norm);
  engine.seal_storage();
  engine.build_graph();
  transport.set_delivery(kMsgPanel, engine.delivery());

  // Nobody sends until every rank has built its graph and staging slots.
  client.barrier(kEpochPreRun);

  // Load-carrying heartbeats while the factorization runs: a side thread
  // with its own CoordClient (the main client is not thread-safe) samples
  // this rank's scheduler gauges and ships them so the coordinator can
  // publish per-rank dist.hb.* load. Sequence numbers live in their own
  // high-bit namespace (1<<63 | rank<<32 | n): still globally unique for
  // gsx_obs merge --offsets, and a run of any length can never walk into
  // another rank's rendezvous series (rank*1000 + n).
  std::atomic<bool> run_active{true};
  std::thread beat_thread([&run_active, &run] {
    try {
      CoordClient beats(run.coord_port, run.rank);
      obs::Registry& reg = obs::Registry::instance();
      const std::uint64_t seq_base =
          (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(run.rank) << 32);
      std::uint64_t n = 0;
      while (run_active.load(std::memory_order_relaxed)) {
        beats.heartbeat(seq_base | ++n, reg.gauge("taskgraph.queue_depth").value(),
                        reg.gauge("taskgraph.inflight").value());
        for (int i = 0; i < 20 && run_active.load(std::memory_order_relaxed); ++i)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } catch (...) {
      // Best-effort telemetry: a lost beat connection must not fail the run.
    }
  });
  // engine.run rethrows the first task error (TaskGraph::run); the beat
  // thread must be stopped and joined on that path too, or its destructor
  // calls std::terminate and the coordinator never hears done(false).
  struct BeatGuard {
    std::atomic<bool>& active;
    std::thread& t;
    ~BeatGuard() {
      active.store(false, std::memory_order_relaxed);
      if (t.joinable()) t.join();
    }
  } beat_guard{run_active, beat_thread};

  Timer timer;
  engine.run(run.workers);
  res.factor_seconds = timer.seconds();
  run_active.store(false, std::memory_order_relaxed);
  beat_thread.join();

  res.factor = engine.gather();
  // Rank 0 passes this barrier only after receiving every tile, so peers
  // keep their transports alive until the gather is complete.
  client.barrier(kEpochPostGather);

  const WireStats& w = transport.stats();
  res.stats.tiles_sent = w.tiles_sent.load();
  res.stats.bytes_sent = w.bytes_sent.load();
  res.stats.tiles_recv = w.tiles_recv.load();
  res.stats.bytes_recv = w.bytes_recv.load();
  res.stats.recv_corrupt = w.recv_corrupt.load();
  if (engine.pool() != nullptr) {
    res.stats.spill_out = engine.pool()->stats().spill_out.load();
    res.stats.spill_in = engine.pool()->stats().spill_in.load();
  }
  client.report_stats(res.stats);
  client.done(true, "");
  transport.shutdown();
  return res;
}

std::unique_ptr<tile::SymTileMatrix> oracle_factor(const DistProblemConfig& prob,
                                                   DistPolicy policy, double global_norm,
                                                   std::size_t workers) {
  auto a = std::make_unique<tile::SymTileMatrix>(prob.n, prob.tile_size);
  geostat::fill_covariance_tiles(*a, problem_kernel(prob), problem_locations(prob), workers);
  for (std::size_t j = 0; j < a->nt(); ++j)
    for (std::size_t i = j; i < a->nt(); ++i) decide_tile(*a, i, j, policy, global_norm);

  cholesky::FactorOptions fopt;
  fopt.workers = workers;
  const cholesky::FactorReport report =
      policy == DistPolicy::Tlr ? cholesky::tile_cholesky_tlr(*a, kTlr.tol, fopt)
                                : cholesky::tile_cholesky_dense(*a, fopt);
  GSX_REQUIRE(report.info == 0, "oracle_factor: matrix not positive definite");
  return a;
}

FactorComparison compare_factors(const tile::SymTileMatrix& a,
                                 const tile::SymTileMatrix& b) {
  GSX_REQUIRE(a.n() == b.n() && a.tile_size() == b.tile_size(),
              "compare_factors: shape mismatch");
  FactorComparison cmp;
  const std::size_t nt = a.nt();
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i) {
      ++cmp.tiles_compared;
      std::vector<std::uint8_t> ba, bb;
      tile::encode_tile(a.at(i, j), ba);
      tile::encode_tile(b.at(i, j), bb);
      if (ba != bb) ++cmp.mismatched_tiles;
      const la::Matrix<double> da = a.at(i, j).to_dense64();
      const la::Matrix<double> db = b.at(i, j).to_dense64();
      for (std::size_t jj = 0; jj < da.cols(); ++jj)
        for (std::size_t ii = 0; ii < da.rows(); ++ii)
          cmp.max_abs_diff =
              std::max(cmp.max_abs_diff, std::abs(da(ii, jj) - db(ii, jj)));
    }
  cmp.identical = cmp.mismatched_tiles == 0;
  return cmp;
}

}  // namespace gsx::dist
