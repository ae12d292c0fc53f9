#include "obs/flight.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>

#include "obs/trace.hpp"

namespace gsx::obs {

namespace {

// Rings are heap-allocated on a thread's first event and registered here;
// they are never freed (a dead thread's last events stay dumpable, and the
// slot is adopted by a later thread). The array itself is lock-free to read
// — the fatal-signal dump walks it with plain atomic loads.
constexpr std::size_t kMaxRings = 128;
std::atomic<EventRing*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};
std::mutex g_acquire_mutex;

std::mutex g_dump_mutex;
std::string& dump_path_storage() {
  static std::string p;
  return p;
}

std::mutex g_name_mutex;
std::string& process_name_storage() {
  static std::string n = "gsx";
  return n;
}

thread_local std::uint64_t t_current_trace = 0;

/// Thread-local ring handle; releases the ring for adoption on thread exit.
struct RingHandle {
  EventRing* ring = nullptr;
  std::uint16_t index = 0;
  ~RingHandle() {
    if (ring != nullptr) FlightRecorder::instance().release_ring(ring);
  }
};

thread_local RingHandle t_ring;

// ---------------------------------------------------------------------------
// Async-signal-safe formatting: no allocation, no stdio, no locale.

char* put_str(char* p, char* end, const char* s) {
  while (*s != '\0' && p < end) *p++ = *s++;
  return p;
}

char* put_u64(char* p, char* end, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && p < end) *p++ = tmp[--n];
  return p;
}

/// Fixed-point %.6f for non-negative, seconds-scale doubles. Values that do
/// not fit (negative, non-finite, > ~5.8e11 s) degrade to "0.000000" or a
/// saturated integer part — acceptable for a crash dump.
char* put_f6(char* p, char* end, double v) {
  if (!(v >= 0.0)) return put_str(p, end, "0.000000");
  if (v > 5.8e11) return put_u64(p, end, static_cast<std::uint64_t>(v));
  const std::uint64_t micros = static_cast<std::uint64_t>(v * 1e6 + 0.5);
  p = put_u64(p, end, micros / 1000000);
  if (p < end) *p++ = '.';
  char frac[6];
  std::uint64_t f = micros % 1000000;
  for (int i = 5; i >= 0; --i) {
    frac[i] = static_cast<char>('0' + f % 10);
    f /= 10;
  }
  for (int i = 0; i < 6 && p < end; ++i) *p++ = frac[i];
  return p;
}

char* format_event_line(char* p, char* end, const Event& e) {
  p = put_str(p, end, "{\"t\":");
  p = put_f6(p, end, e.t);
  p = put_str(p, end, ",\"kind\":\"");
  p = put_str(p, end, std::string_view(event_kind_name(e.kind)).data());
  p = put_str(p, end, "\",\"thread\":");
  p = put_u64(p, end, e.thread);
  p = put_str(p, end, ",\"request\":");
  p = put_u64(p, end, e.request);
  p = put_str(p, end, ",\"trace\":");
  p = put_u64(p, end, e.trace);
  p = put_str(p, end, ",\"a\":");
  p = put_u64(p, end, e.a);
  p = put_str(p, end, ",\"b\":");
  p = put_u64(p, end, e.b);
  p = put_str(p, end, ",\"v\":");
  p = put_f6(p, end, e.v);
  p = put_str(p, end, "}\n");
  return p;
}

// Signal-safe copy of the process name (set_process_name keeps it in sync
// with the locked std::string used by the allocating paths).
char g_proc_name[64] = "gsx";

double wall_clock_seconds() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The dump header: the cross-process alignment datum. Both clocks are
/// sampled here, at dump time, so wall = wall_anchor + (t - mono_anchor)
/// converts any event timestamp in this dump to wall-clock time.
char* format_header_line(char* p, char* end) noexcept {
  const double mono = now_seconds();
  const double wall = wall_clock_seconds();
  p = put_str(p, end, "{\"t\":");
  p = put_f6(p, end, mono);
  p = put_str(p, end, ",\"kind\":\"dump_header\",\"process\":\"");
  p = put_str(p, end, g_proc_name);
  p = put_str(p, end, "\",\"pid\":");
  p = put_u64(p, end, static_cast<std::uint64_t>(::getpid()));
  p = put_str(p, end, ",\"wall_anchor\":");
  p = put_f6(p, end, wall);
  p = put_str(p, end, ",\"mono_anchor\":");
  p = put_f6(p, end, mono);
  p = put_str(p, end, "}\n");
  return p;
}

void write_fd_all(int fd, const char* data, std::size_t n) noexcept {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w <= 0) return;  // nothing sane to do in a signal handler
    done += static_cast<std::size_t>(w);
  }
}

std::atomic<int> g_fatal_fd{-1};

extern "C" void gsx_fatal_signal_handler(int sig) {
  const int fd = g_fatal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) FlightRecorder::instance().dump_fd_signal_safe(fd);
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (core dumps, exit status).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void flight_record(EventKind kind, std::uint64_t request, std::uint64_t a,
                   std::uint64_t b, double v) noexcept {
  if (t_ring.ring == nullptr) {
    t_ring.ring = FlightRecorder::instance().acquire_ring(&t_ring.index);
    if (t_ring.ring == nullptr) return;  // > kMaxRings live threads: drop
  }
  Event e;
  e.t = now_seconds();
  e.kind = kind;
  e.thread = t_ring.index;
  e.request = request;
  e.trace = t_current_trace;
  e.a = a;
  e.b = b;
  e.v = v;
  t_ring.ring->record(e);
}

std::uint64_t set_current_trace(std::uint64_t trace) noexcept {
  const std::uint64_t prev = t_current_trace;
  t_current_trace = trace;
  return prev;
}

std::uint64_t mint_span_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  const std::uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid()) & 0xFFFF;
  return (pid << 48) | (n & 0xFFFFFFFFFFFFULL);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder r;
  return r;
}

EventRing* FlightRecorder::acquire_ring(std::uint16_t* index_out) noexcept {
  std::lock_guard lk(g_acquire_mutex);
  const std::size_t count = g_ring_count.load(std::memory_order_relaxed);
  // Adopt a ring whose owning thread exited before growing the array.
  for (std::size_t i = 0; i < count; ++i) {
    EventRing* r = g_rings[i].load(std::memory_order_relaxed);
    if (r != nullptr && !r->in_use()) {
      r->set_in_use(true);
      *index_out = static_cast<std::uint16_t>(i);
      return r;
    }
  }
  if (count >= kMaxRings) return nullptr;
  EventRing* r = new EventRing();  // intentionally immortal (see file header)
  r->set_in_use(true);
  g_rings[count].store(r, std::memory_order_release);
  g_ring_count.store(count + 1, std::memory_order_release);
  *index_out = static_cast<std::uint16_t>(count);
  return r;
}

void FlightRecorder::release_ring(EventRing* ring) noexcept {
  ring->set_in_use(false);
}

std::vector<Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  const std::size_t count = g_ring_count.load(std::memory_order_acquire);
  out.reserve(count * 64);
  for (std::size_t i = 0; i < count; ++i) {
    const EventRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr) r->snapshot_into(out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  return out;
}

std::string event_jsonl(const Event& e) {
  char buf[320];
  char* p = format_event_line(buf, buf + sizeof buf - 1, e);
  if (p > buf && p[-1] == '\n') --p;  // snapshot_jsonl joins with '\n' itself
  return std::string(buf, static_cast<std::size_t>(p - buf));
}

void FlightRecorder::set_process_name(std::string name) {
  std::lock_guard lk(g_name_mutex);
  std::strncpy(g_proc_name, name.c_str(), sizeof g_proc_name - 1);
  g_proc_name[sizeof g_proc_name - 1] = '\0';
  process_name_storage() = std::move(name);
}

std::string FlightRecorder::process_name() const {
  std::lock_guard lk(g_name_mutex);
  return process_name_storage();
}

std::string FlightRecorder::snapshot_jsonl() const {
  char hdr[320];
  char* p = format_header_line(hdr, hdr + sizeof hdr);
  std::string out(hdr, static_cast<std::size_t>(p - hdr));
  for (const Event& e : snapshot()) {
    out += event_jsonl(e);
    out.push_back('\n');
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = snapshot_jsonl();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

void FlightRecorder::set_dump_path(std::string path) {
  std::lock_guard lk(g_dump_mutex);
  dump_path_storage() = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard lk(g_dump_mutex);
  return dump_path_storage();
}

std::string FlightRecorder::dump_on_failure() const {
  const std::string path = dump_path();
  if (path.empty()) return {};
  return dump(path) ? path : std::string{};
}

void FlightRecorder::dump_fd_signal_safe(int fd) const noexcept {
  // One line per consistent slot, formatted into a stack buffer. Reads the
  // same atomics as snapshot() but without allocation or sorting. The
  // header goes first so even a crash dump carries the wall-clock anchor.
  char buf[320];
  char* h = format_header_line(buf, buf + sizeof buf);
  write_fd_all(fd, buf, static_cast<std::size_t>(h - buf));
  const std::size_t count = g_ring_count.load(std::memory_order_acquire);
  Event e;
  for (std::size_t i = 0; i < count; ++i) {
    const EventRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t slot = 0; slot < kRingCapacity; ++slot) {
      if (!ring->read_slot(slot, e)) continue;
      char* p = format_event_line(buf, buf + sizeof buf, e);
      write_fd_all(fd, buf, static_cast<std::size_t>(p - buf));
    }
  }
}

void FlightRecorder::install_fatal_handlers(int fd) noexcept {
  g_fatal_fd.store(fd, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = gsx_fatal_signal_handler;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGFPE, &sa, nullptr);
}

}  // namespace gsx::obs
