#include "obs/flight.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/escape.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mde::obs {

namespace {

/// Raw pointer twin of the Global() singleton: the signal handler must not
/// touch a function-local static mid-initialization.
FlightRecorder* g_recorder = nullptr;
/// Dump destination resolved at handler-install time (getenv is not
/// async-signal-safe).
char g_signal_path[512] = "mde_flight.json";
std::atomic<bool> g_handlers_installed{false};

/// Dispositions that preceded ours, saved at install time so the fatal
/// handler can CHAIN instead of clobbering: a pre-existing handler (test
/// harness, sanitizer runtime) still runs after the dump.
constexpr int kMaxSavedSignal = 32;
struct sigaction g_prev_actions[kMaxSavedSignal];

/// Loops ::write until `len` bytes land (or an error). Async-signal-safe.
void WriteAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t w = ::write(fd, buf + off, len - off);
    if (w <= 0) return;
    off += static_cast<size_t>(w);
  }
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGFPE:
      return "signal:SIGFPE";
    case SIGILL:
      return "signal:SIGILL";
  }
  return "signal:unknown";
}

void CrashSignalHandler(int sig) {
  FlightRecorder* r = g_recorder;
  if (r != nullptr) r->DumpFromSignal(SignalName(sig));
  // Chain: restore whatever disposition preceded ours and re-raise. A saved
  // real handler gets the signal next (then presumably dies its own way);
  // SIG_IGN would swallow a fatal re-raise, so it degrades to SIG_DFL —
  // exit status and core dumps behave as without the recorder.
  if (sig >= 0 && sig < kMaxSavedSignal) {
    struct sigaction prev = g_prev_actions[sig];
    const bool prev_is_handler =
        (prev.sa_flags & SA_SIGINFO) != 0 ||
        (prev.sa_handler != SIG_DFL && prev.sa_handler != SIG_IGN);
    if (!prev_is_handler) prev.sa_handler = SIG_DFL;
    sigaction(sig, &prev, nullptr);
  } else {
    std::signal(sig, SIG_DFL);
  }
  std::raise(sig);
}

void InstallHandlersOnce() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) return;
  const char* env = std::getenv("MDE_FLIGHT_PATH");
  if (env != nullptr && *env != '\0') {
    std::strncpy(g_signal_path, env, sizeof(g_signal_path) - 1);
    g_signal_path[sizeof(g_signal_path) - 1] = '\0';
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  // Block the profiler's SIGPROF while dumping: a sampling tick landing
  // mid-dump would interleave with the crash artifact's write loop.
  sigaddset(&sa.sa_mask, SIGPROF);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    if (sig < kMaxSavedSignal) {
      sigaction(sig, &sa, &g_prev_actions[sig]);
    } else {
      sigaction(sig, &sa, nullptr);
    }
  }
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendHex(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

/// Thread-exit hook: returns the thread's slot to the recorder's free list
/// so long-lived processes with short-lived pools never exhaust kMaxThreads.
struct FlightSlotHandle {
  FlightRecorder* owner = nullptr;
  FlightRecorder::Slot* slot = nullptr;
  ~FlightSlotHandle() {
    if (owner != nullptr && slot != nullptr) owner->ReleaseSlot(slot);
  }
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* r = [] {
    auto* rec = new FlightRecorder();  // leaked: outlives static destructors
    g_recorder = rec;
    InstallHandlersOnce();
    return rec;
  }();
  return *r;
}

void FlightRecorder::InstallCrashHandler() { Global(); }

std::string FlightRecorder::DefaultPath() {
  const char* env = std::getenv("MDE_FLIGHT_PATH");
  return (env != nullptr && *env != '\0') ? env : "mde_flight.json";
}

FlightRecorder::Slot* FlightRecorder::SlotForThisThread() {
  thread_local FlightSlotHandle handle;
  if (handle.slot == nullptr || handle.owner != this) {
    uint32_t idx = kMaxThreads;
    {
      std::lock_guard<std::mutex> lock(free_mu_);
      if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
      }
    }
    if (idx >= kMaxThreads) {
      if (high_water_.load(std::memory_order_relaxed) >= kMaxThreads) {
        return nullptr;  // > kMaxThreads live recording threads: not recorded
      }
      idx = high_water_.fetch_add(1, std::memory_order_relaxed);
      if (idx >= kMaxThreads) return nullptr;
    }
    handle.owner = this;
    handle.slot = &slots_[idx];
  }
  return handle.slot;
}

void FlightRecorder::ReleaseSlot(Slot* slot) {
  // The thread (and its context) is gone; retained spans stay readable.
  slot->ctx_trace_id.store(0, std::memory_order_relaxed);
  slot->ctx_fingerprint.store(0, std::memory_order_relaxed);
  slot->ctx_tag.store(nullptr, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(free_mu_);
  free_slots_.push_back(static_cast<uint32_t>(slot - slots_));
}

void FlightRecorder::RecordSpanOpen(const char* name, uint64_t ts_ns,
                                    uint64_t trace_id, uint64_t span_id,
                                    uint64_t parent_span_id) {
  Slot* s = SlotForThisThread();
  if (s == nullptr) return;
  const uint64_t i = s->seq.fetch_add(1, std::memory_order_relaxed);
  SpanRecord& r = s->ring[i % kSpanRingSize];
  r.name.store(name, std::memory_order_relaxed);
  r.ts_ns.store(ts_ns, std::memory_order_relaxed);
  r.trace_id.store(trace_id, std::memory_order_relaxed);
  r.span_id.store(span_id, std::memory_order_relaxed);
  r.parent_span_id.store(parent_span_id, std::memory_order_relaxed);
}

void FlightRecorder::NoteContext(uint64_t trace_id, uint64_t fingerprint,
                                 const char* tag) {
  Slot* s = SlotForThisThread();
  if (s == nullptr) return;
  s->ctx_trace_id.store(trace_id, std::memory_order_relaxed);
  s->ctx_fingerprint.store(fingerprint, std::memory_order_relaxed);
  s->ctx_tag.store(tag, std::memory_order_relaxed);
}

void FlightRecorder::AppendSlotsJson(std::string* out) const {
  const uint32_t n = std::min<uint32_t>(
      high_water_.load(std::memory_order_relaxed), kMaxThreads);
  out->append("\"contexts\":[");
  bool first = true;
  for (uint32_t i = 0; i < n; ++i) {
    const Slot& s = slots_[i];
    const uint64_t trace_id = s.ctx_trace_id.load(std::memory_order_relaxed);
    if (trace_id == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"thread\":\"");
    const char* name = s.name.load(std::memory_order_relaxed);
    if (name != nullptr) {
      JsonEscapeInto(name, out);
    } else {
      out->append("thread-");
      AppendU64(i, out);
    }
    out->append("\",\"trace_id\":");
    AppendU64(trace_id, out);
    out->append(",\"fingerprint\":\"");
    AppendHex(s.ctx_fingerprint.load(std::memory_order_relaxed), out);
    out->append("\",\"tag\":\"");
    const char* tag = s.ctx_tag.load(std::memory_order_relaxed);
    if (tag != nullptr) JsonEscapeInto(tag, out);
    out->append("\"}");
  }
  out->append("],\"spans\":[");

  struct Rec {
    uint32_t slot;
    const char* thread_name;
    const char* name;
    uint64_t ts_ns, trace_id, span_id, parent_span_id;
  };
  std::vector<Rec> recs;
  for (uint32_t i = 0; i < n; ++i) {
    const Slot& s = slots_[i];
    const uint64_t seq = s.seq.load(std::memory_order_relaxed);
    const uint64_t count = std::min<uint64_t>(seq, kSpanRingSize);
    for (uint64_t k = seq - count; k < seq; ++k) {
      const SpanRecord& r = s.ring[k % kSpanRingSize];
      const char* sname = r.name.load(std::memory_order_relaxed);
      if (sname == nullptr) continue;
      recs.push_back({i, s.name.load(std::memory_order_relaxed), sname,
                      r.ts_ns.load(std::memory_order_relaxed),
                      r.trace_id.load(std::memory_order_relaxed),
                      r.span_id.load(std::memory_order_relaxed),
                      r.parent_span_id.load(std::memory_order_relaxed)});
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const Rec& a, const Rec& b) { return a.ts_ns < b.ts_ns; });
  first = true;
  for (const Rec& r : recs) {
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"thread\":\"");
    if (r.thread_name != nullptr) {
      JsonEscapeInto(r.thread_name, out);
    } else {
      out->append("thread-");
      AppendU64(r.slot, out);
    }
    out->append("\",\"name\":\"");
    JsonEscapeInto(r.name, out);
    out->append("\",\"ts_ns\":");
    AppendU64(r.ts_ns, out);
    out->append(",\"trace_id\":");
    AppendU64(r.trace_id, out);
    out->append(",\"span_id\":");
    AppendU64(r.span_id, out);
    out->append(",\"parent_span_id\":");
    AppendU64(r.parent_span_id, out);
    out->append("}");
  }
  out->append("]");
}

std::string FlightRecorder::RenderJson(const std::string& reason) const {
  std::string doc;
  doc.reserve(1 << 14);
  doc.append("{\"flight\":{\"version\":1,\"reason\":\"");
  JsonEscapeInto(reason, &doc);
  doc.append("\",\"ts_ns\":");
  AppendU64(NowNanos(), &doc);
  doc.push_back(',');
  AppendSlotsJson(&doc);
  doc.append(",\"counters\":{");
  const std::vector<MetricSnapshot> snapshot = Registry::Global().Snapshot();
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricSnapshot::Kind::kCounter) continue;
    if (!first) doc.push_back(',');
    first = false;
    doc.push_back('"');
    JsonEscapeInto(m.name, &doc);
    doc.append("\":");
    AppendU64(static_cast<uint64_t>(m.value), &doc);
  }
  doc.append("},\"gauges\":{");
  first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricSnapshot::Kind::kGauge) continue;
    if (!first) doc.push_back(',');
    first = false;
    doc.push_back('"');
    JsonEscapeInto(m.name, &doc);
    doc.append("\":");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    doc.append(buf);
  }
  doc.append("}}}\n");
  return doc;
}

bool FlightRecorder::DumpToFile(const std::string& path,
                                const std::string& reason) {
  const std::string doc = RenderJson(reason);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t off = 0;
  while (off < doc.size()) {
    const ssize_t w = ::write(fd, doc.data() + off, doc.size() - off);
    if (w <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<size_t>(w);
  }
  ::close(fd);
  return ::rename(tmp.c_str(), path.c_str()) == 0;
}

void FlightRecorder::DumpFromSignal(const char* reason) {
  // Async-signal-safe: fixed buffers, snprintf, open/write/close only. The
  // mutex-guarded metrics registry is skipped; the artifact still carries
  // every thread's recent spans and active context.
  const int fd =
      ::open(g_signal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char buf[512];
  int len = std::snprintf(buf, sizeof(buf),
                          "{\"flight\":{\"version\":1,\"reason\":\"%s\","
                          "\"contexts\":[",
                          reason);
  WriteAll(fd, buf, static_cast<size_t>(len));
  const uint32_t n = std::min<uint32_t>(
      high_water_.load(std::memory_order_relaxed), kMaxThreads);
  bool first = true;
  for (uint32_t i = 0; i < n; ++i) {
    const Slot& s = slots_[i];
    const uint64_t trace_id = s.ctx_trace_id.load(std::memory_order_relaxed);
    if (trace_id == 0) continue;
    const char* name = s.name.load(std::memory_order_relaxed);
    const char* tag = s.ctx_tag.load(std::memory_order_relaxed);
    len = std::snprintf(
        buf, sizeof(buf),
        "%s{\"thread\":\"%s\",\"trace_id\":%llu,\"fingerprint\":\"0x%llx\","
        "\"tag\":\"%s\"}",
        first ? "" : ",", name != nullptr ? name : "thread",
        static_cast<unsigned long long>(trace_id),
        static_cast<unsigned long long>(
            s.ctx_fingerprint.load(std::memory_order_relaxed)),
        tag != nullptr ? tag : "");
    WriteAll(fd, buf, static_cast<size_t>(len));
    first = false;
  }
  len = std::snprintf(buf, sizeof(buf), "],\"spans\":[");
  WriteAll(fd, buf, static_cast<size_t>(len));
  first = true;
  for (uint32_t i = 0; i < n; ++i) {
    const Slot& s = slots_[i];
    const char* tname = s.name.load(std::memory_order_relaxed);
    const uint64_t seq = s.seq.load(std::memory_order_relaxed);
    const uint64_t count = std::min<uint64_t>(seq, kSpanRingSize);
    for (uint64_t k = seq - count; k < seq; ++k) {
      const SpanRecord& r = s.ring[k % kSpanRingSize];
      const char* sname = r.name.load(std::memory_order_relaxed);
      if (sname == nullptr) continue;
      len = std::snprintf(
          buf, sizeof(buf),
          "%s{\"thread\":\"%s\",\"name\":\"%s\",\"ts_ns\":%llu,"
          "\"trace_id\":%llu,\"span_id\":%llu,\"parent_span_id\":%llu}",
          first ? "" : ",", tname != nullptr ? tname : "thread", sname,
          static_cast<unsigned long long>(
              r.ts_ns.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              r.trace_id.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              r.span_id.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              r.parent_span_id.load(std::memory_order_relaxed)));
      WriteAll(fd, buf, static_cast<size_t>(len));
      first = false;
    }
  }
  len = std::snprintf(buf, sizeof(buf), "]}}\n");
  WriteAll(fd, buf, static_cast<size_t>(len));
  ::close(fd);
}

void FlightRecorder::Reset() {
  const uint32_t n = std::min<uint32_t>(
      high_water_.load(std::memory_order_relaxed), kMaxThreads);
  for (uint32_t i = 0; i < n; ++i) {
    Slot& s = slots_[i];
    s.seq.store(0, std::memory_order_relaxed);
    for (SpanRecord& r : s.ring) {
      r.name.store(nullptr, std::memory_order_relaxed);
    }
    s.ctx_trace_id.store(0, std::memory_order_relaxed);
    s.ctx_fingerprint.store(0, std::memory_order_relaxed);
    s.ctx_tag.store(nullptr, std::memory_order_relaxed);
  }
}

}  // namespace mde::obs
