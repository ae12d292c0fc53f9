#include "obs/ring.hpp"

namespace gsx::obs {

std::string_view event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::RequestAdmit: return "request_admit";
    case EventKind::RequestDispatch: return "request_dispatch";
    case EventKind::RequestComplete: return "request_complete";
    case EventKind::RequestReject: return "request_reject";
    case EventKind::TileDemotion: return "tile_demotion";
    case EventKind::CacheHit: return "cache_hit";
    case EventKind::CacheMiss: return "cache_miss";
    case EventKind::CacheEvict: return "cache_evict";
    case EventKind::NumericalSentinel: return "numerical_sentinel";
    case EventKind::SolveBegin: return "solve_begin";
    case EventKind::SolveEnd: return "solve_end";
    case EventKind::RouterForward: return "router_forward";
    case EventKind::SpanRouterQueue: return "span_router_queue";
    case EventKind::SpanRouterForward: return "span_router_forward";
    case EventKind::SpanRouterRetry: return "span_router_retry";
    case EventKind::SpanReplicaQueue: return "span_replica_queue";
    case EventKind::SpanReplicaAssemble: return "span_replica_assemble";
    case EventKind::SpanReplicaSolve: return "span_replica_solve";
    case EventKind::HeartbeatSend: return "heartbeat_send";
    case EventKind::HeartbeatAck: return "heartbeat_ack";
    case EventKind::HeartbeatRecv: return "heartbeat_recv";
    case EventKind::TileSend: return "tile_send";
    case EventKind::TileRecv: return "tile_recv";
    case EventKind::SpillOut: return "spill_out";
    case EventKind::SpillIn: return "spill_in";
    case EventKind::TaskBegin: return "task_begin";
    case EventKind::TaskFinish: return "task_finish";
    case EventKind::Phase: return "phase";
  }
  return "unknown";
}

void EventRing::record(const Event& e) noexcept {
  const std::uint64_t pos = recorded_.load(std::memory_order_relaxed);
  Slot& s = slots_[pos & (kRingCapacity - 1)];
  const std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_release);  // odd: write in progress
  s.t.store(e.t, std::memory_order_relaxed);
  s.request.store(e.request, std::memory_order_relaxed);
  s.trace.store(e.trace, std::memory_order_relaxed);
  s.a.store(e.a, std::memory_order_relaxed);
  s.b.store(e.b, std::memory_order_relaxed);
  s.v.store(e.v, std::memory_order_relaxed);
  s.kind_thread.store((static_cast<std::uint32_t>(e.kind) << 16) | e.thread,
                      std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);  // even: stable
  recorded_.store(pos + 1, std::memory_order_release);
}

bool EventRing::read_slot(std::size_t i, Event& out) const noexcept {
  const Slot& s = slots_[i];
  const std::uint64_t before = s.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;  // empty or mid-write
  out.t = s.t.load(std::memory_order_relaxed);
  out.request = s.request.load(std::memory_order_relaxed);
  out.trace = s.trace.load(std::memory_order_relaxed);
  out.a = s.a.load(std::memory_order_relaxed);
  out.b = s.b.load(std::memory_order_relaxed);
  out.v = s.v.load(std::memory_order_relaxed);
  const std::uint32_t kt = s.kind_thread.load(std::memory_order_relaxed);
  out.kind = static_cast<EventKind>(kt >> 16);
  out.thread = static_cast<std::uint16_t>(kt & 0xFFFF);
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == before;  // false: torn
}

void EventRing::snapshot_into(std::vector<Event>& out) const {
  Event e;
  for (std::size_t i = 0; i < kRingCapacity; ++i)
    if (read_slot(i, e)) out.push_back(e);
}

}  // namespace gsx::obs
