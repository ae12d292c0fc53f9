#include "serve/engine.hpp"

#include "cholesky/tile_solve.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"

namespace gsx::serve {

namespace {

double seconds_between(KrigingEngine::Clock::time_point a,
                       KrigingEngine::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

PredictOutcome fail(std::string why) {
  PredictOutcome o;
  o.ok = false;
  o.error = std::move(why);
  return o;
}

// RequestReject flight-event reason codes (the `a` field).
constexpr std::uint64_t kRejectQueueFull = 1;
constexpr std::uint64_t kRejectDeadline = 2;
constexpr std::uint64_t kRejectDraining = 3;

}  // namespace

KrigingEngine::KrigingEngine(EngineConfig cfg, bool auto_start) : cfg_(cfg) {
  GSX_REQUIRE(cfg_.workers >= 1 && cfg_.queue_capacity >= 1 &&
                  cfg_.max_batch_points >= 1,
              "KrigingEngine: degenerate configuration");
  if (auto_start) start();
}

void KrigingEngine::start() {
  std::lock_guard lk(mu_);
  if (started_) return;
  started_ = true;
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

KrigingEngine::~KrigingEngine() { drain(); }

std::future<PredictOutcome> KrigingEngine::submit(
    std::shared_ptr<const LoadedModel> model, std::vector<geostat::Location> points,
    bool with_variance, Clock::time_point deadline, std::uint64_t request_id,
    std::uint64_t trace_id, std::uint64_t parent_span) {
  std::promise<PredictOutcome> promise;
  std::future<PredictOutcome> future = promise.get_future();
  if (request_id == 0) request_id = mint_request_id();
  // Rejections below record under the request's trace so a client-visible
  // fast-fail still shows up in the fleet timeline.
  obs::FlightTraceScope trace_scope(trace_id);
  if (model == nullptr || points.empty()) {
    promise.set_value(fail(model == nullptr ? "no such model" : "no points"));
    return future;
  }

  const auto now = Clock::now();
  std::size_t depth = 0;
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      GSX_FLIGHT(obs::EventKind::RequestReject, request_id, kRejectDraining, 0, 0.0);
      promise.set_value(fail("engine draining"));
      return future;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      // Fast-fail admission control: shed load instead of convoying.
      ++stats_.rejected_queue_full;
      obs::Registry::instance().counter("serve.rejected.queue_full").add();
      GSX_FLIGHT(obs::EventKind::RequestReject, request_id, kRejectQueueFull, 0, 0.0);
      promise.set_value(fail("queue full"));
      return future;
    }
    Pending p;
    p.model = std::move(model);
    p.points = std::move(points);
    p.with_variance = with_variance;
    p.request_id = request_id;
    p.trace_id = trace_id;
    p.parent_span = parent_span;
    p.deadline = deadline;
    p.enqueued = now;
    p.promise = std::move(promise);
    queue_.push_back(std::move(p));
    ++stats_.accepted;
    depth = queue_.size();
    stats_.queue_depth = depth;
    obs::Registry::instance().gauge("serve.queue.depth")
        .set(static_cast<double>(depth));
  }
  GSX_FLIGHT(obs::EventKind::RequestAdmit, request_id, depth, 0, 0.0);
  cv_.notify_one();
  return future;
}

void KrigingEngine::drain() {
  // drain_mu_ serializes concurrent drainers: two threads racing past the
  // joinable() check would otherwise both join the dispatcher — UB that in
  // practice parks the loser on a futex forever (seen when a wire-initiated
  // drain and the daemon's post-accept-loop shutdown overlap).
  std::lock_guard drain_lk(drain_mu_);
  {
    std::lock_guard lk(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Never started: fail whatever was queued so futures don't hang.
  std::deque<Pending> leftovers;
  {
    std::lock_guard lk(mu_);
    leftovers.swap(queue_);
  }
  for (Pending& p : leftovers) p.promise.set_value(fail("engine draining"));
}

EngineStats KrigingEngine::stats() const {
  std::lock_guard lk(mu_);
  EngineStats s = stats_;
  s.queue_depth = queue_.size();
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

void KrigingEngine::dispatch_loop() {
  std::unique_lock lk(mu_);
  while (true) {
    cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Micro-batch: the oldest request plus every queued request against the
    // same model, up to the point cap. Requests for other models stay
    // queued and form the next batch.
    std::vector<Pending> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    const LoadedModel* model = batch.front().model.get();
    std::size_t points = batch.front().points.size();
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->model.get() == model && points + it->points.size() <= cfg_.max_batch_points) {
        points += it->points.size();
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    stats_.queue_depth = queue_.size();
    ++stats_.batches;
    stats_.batched_points += points;
    obs::Registry::instance().gauge("serve.queue.depth")
        .set(static_cast<double>(queue_.size()));
    lk.unlock();
    for (const Pending& p : batch)
      GSX_FLIGHT(obs::EventKind::RequestDispatch, p.request_id, batch.size(), points,
                 0.0);
    obs::Registry::instance().histogram("serve.batch.points")
        .observe(static_cast<double>(points));
    process_batch(std::move(batch));
    lk.lock();
  }
}

void KrigingEngine::process_batch(std::vector<Pending> batch) {
  const auto start = Clock::now();
  const LoadedModel& model = *batch.front().model;

  // Deadline check happens once per batch, before the expensive pass; a
  // request that expired while queued is failed without touching the solver.
  std::vector<Pending> live;
  live.reserve(batch.size());
  bool any_variance = false;
  std::vector<geostat::Location> points;
  for (Pending& p : batch) {
    if (p.deadline < start) {
      {
        std::lock_guard lk(mu_);
        ++stats_.rejected_deadline;
      }
      obs::Registry::instance().counter("serve.rejected.deadline").add();
      GSX_FLIGHT(obs::EventKind::RequestReject, p.request_id, kRejectDeadline, 0, 0.0);
      p.promise.set_value(fail("deadline exceeded while queued"));
      continue;
    }
    any_variance = any_variance || p.with_variance;
    points.insert(points.end(), p.points.begin(), p.points.end());
    live.push_back(std::move(p));
  }
  if (live.empty()) return;

  // The whole micro-batch shares one solver pass, so the trace context
  // carries the oldest request's id (its deadline admitted the batch). The
  // ambient trace scope follows the same rule: SolveBegin/SolveEnd and the
  // numerical sentinels recorded inside the pass stamp the oldest request's
  // distributed trace id.
  cholesky::SolveTelemetry telemetry;
  telemetry.ctx.request_id = live.front().request_id;
  obs::FlightTraceScope batch_trace(live.front().trace_id);

  in_flight_.fetch_add(live.size(), std::memory_order_relaxed);
  obs::Registry::instance().gauge("serve.inflight")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));

  PredictOutcome failure;
  geostat::KrigingResult result;
  bool ok = true;
  try {
    // One tiled Sigma_mn assembly + solve pass for the whole micro-batch.
    result = cholesky::tile_krige_solved(*model.kernel, model.factor, model.packed_factor,
                                         model.y_solved, model.train_locs, points,
                                         any_variance, cfg_.workers, &telemetry);
  } catch (const std::exception& e) {
    ok = false;
    failure = fail(std::string("prediction failed: ") + e.what());
    // A numerical failure is exactly what the flight recorder exists for:
    // persist the in-memory rings next to the error before anything else
    // overwrites them, and hand the dump path back on the wire.
    failure.flight_dump = obs::FlightRecorder::instance().dump_on_failure();
    obs::log_warn("serve", "batch prediction failed", {obs::lf("error", e.what())});
  }

  const auto end = Clock::now();
  auto& latency = obs::Registry::instance().histogram(
      "serve.predict.seconds", obs::Histogram::duration_bounds());
  auto& queue_wait = obs::Registry::instance().histogram(
      "serve.queue.seconds", obs::Histogram::duration_bounds());

  // Count completions before fulfilling any promise: a client that has its
  // response in hand must see these requests in a subsequent stats read.
  if (ok) {
    std::lock_guard lk(mu_);
    stats_.completed += live.size();
  }

  std::size_t offset = 0;
  for (Pending& p : live) {
    const std::size_t m = p.points.size();
    const double queue_s = seconds_between(p.enqueued, start);
    const double total_s = seconds_between(p.enqueued, end);
    // Replica-side distributed-trace spans: queue/assemble/solve siblings
    // under the router's forward span. Recorded even on failure — a span
    // tree that stops at the router is exactly the blind spot this exists
    // to remove.
    if (p.trace_id != 0) {
      obs::FlightTraceScope req_trace(p.trace_id);
      GSX_FLIGHT(obs::EventKind::SpanReplicaQueue, p.request_id,
                 obs::mint_span_id(), p.parent_span, queue_s);
      GSX_FLIGHT(obs::EventKind::SpanReplicaAssemble, p.request_id,
                 obs::mint_span_id(), p.parent_span, telemetry.assemble_seconds);
      GSX_FLIGHT(obs::EventKind::SpanReplicaSolve, p.request_id,
                 obs::mint_span_id(), p.parent_span, telemetry.solve_seconds);
    }
    if (!ok) {
      PredictOutcome o = failure;
      o.request_id = p.request_id;
      GSX_FLIGHT(obs::EventKind::RequestComplete, p.request_id, 0, 0, total_s);
      p.promise.set_value(std::move(o));
      continue;
    }
    PredictOutcome o;
    o.ok = true;
    o.batched_with = live.size();
    o.request_id = p.request_id;
    o.queue_seconds = queue_s;
    o.assemble_seconds = telemetry.assemble_seconds;
    o.solve_seconds = telemetry.solve_seconds;
    o.total_seconds = total_s;
    o.mean.assign(result.mean.begin() + static_cast<std::ptrdiff_t>(offset),
                  result.mean.begin() + static_cast<std::ptrdiff_t>(offset + m));
    if (p.with_variance) {
      o.variance.assign(result.variance.begin() + static_cast<std::ptrdiff_t>(offset),
                        result.variance.begin() + static_cast<std::ptrdiff_t>(offset + m));
    }
    latency.observe(o.total_seconds);
    queue_wait.observe(o.queue_seconds);
    GSX_FLIGHT(obs::EventKind::RequestComplete, p.request_id, 1, 0, total_s);
    p.promise.set_value(std::move(o));
    offset += m;
  }
  in_flight_.fetch_sub(live.size(), std::memory_order_relaxed);
  obs::Registry::instance().gauge("serve.inflight")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
}

}  // namespace gsx::serve
