#ifndef MDE_OBS_FLIGHT_H_
#define MDE_OBS_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// Crash flight recorder: an always-on, lock-free ring of recent span opens
/// plus each thread's active query context, dumped to a JSON artifact when
/// something goes wrong — from the `ckpt::FaultInjector` fire path, from a
/// fatal-signal handler, or on demand. The black-box principle: by the time
/// a crash happens it is too late to turn tracing on, so the recorder keeps
/// the last `kSpanRingSize` span opens per thread at all times and a crash
/// costs only the dump.
///
/// Write path: each recording thread owns one fixed slot (acquired on first
/// use, returned to a free list at thread exit) holding relaxed atomics —
/// no locks, no allocation, safe from any context including inside a signal
/// handler's victim thread. Span names must be string literals.
///
/// Read path: `DumpToFile` (normal code) snapshots slots + the metrics
/// registry and writes tmp+rename atomically; `DumpFromSignal` uses only
/// async-signal-safe calls (snprintf into a stack buffer + write(2) to a
/// path pre-resolved at handler-install time) and skips the mutex-guarded
/// metrics registry. Either way the artifact is one JSON document
/// `{"flight":{...}}` readable by `mde_report --flight`.
///
/// Field tearing: a reader can observe a half-updated span record (each
/// field is individually atomic but the record is not). Post-mortem
/// tolerance, not linearizability, is the contract — at worst one record
/// per thread mixes two spans.
namespace mde::obs {

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Maximum concurrently-recording threads; later threads are silently
  /// not recorded (slots are recycled on thread exit, so only a process
  /// with > kMaxThreads LIVE recording threads ever hits this).
  static constexpr size_t kMaxThreads = 256;
  /// Retained span opens per thread (newest win).
  static constexpr size_t kSpanRingSize = 128;

  /// Appends a span-open record to the calling thread's ring. `name` must
  /// be a string literal.
  void RecordSpanOpen(const char* name, uint64_t ts_ns, uint64_t trace_id,
                      uint64_t span_id, uint64_t parent_span_id);

  /// Publishes the calling thread's active query context (zero trace_id
  /// clears it). `tag` must be a string literal or interned.
  void NoteContext(uint64_t trace_id, uint64_t fingerprint, const char* tag);

  /// Renders the full live artifact `{"flight":{...}}` (contexts + spans +
  /// metrics snapshot) as one JSON document — exactly what DumpToFile
  /// writes; /flightz serves it without crashing anything.
  std::string RenderJson(const std::string& reason) const;

  /// Writes the full artifact (contexts + spans + metrics snapshot) to
  /// `path` atomically via tmp+rename. Returns false on I/O failure.
  bool DumpToFile(const std::string& path, const std::string& reason);

  /// Async-signal-safe dump (contexts + spans only, no metrics) to the
  /// path captured by InstallCrashHandler — callable from a signal handler.
  void DumpFromSignal(const char* reason);

  /// Installs fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that dump to
  /// $MDE_FLIGHT_PATH (default "mde_flight.json") and re-raise. Idempotent.
  static void InstallCrashHandler();

  /// $MDE_FLIGHT_PATH or "mde_flight.json" — where fault-path dumps land.
  static std::string DefaultPath();

  /// Clears all retained spans and contexts (tests only).
  void Reset();

 private:
  friend struct FlightSlotHandle;
  friend void SetCurrentThreadName(const std::string& name);

  struct SpanRecord {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span_id{0};
  };

  struct Slot {
    SpanRecord ring[kSpanRingSize];
    std::atomic<uint64_t> seq{0};  // total opens; next write = seq % size
    std::atomic<uint64_t> ctx_trace_id{0};
    std::atomic<uint64_t> ctx_fingerprint{0};
    std::atomic<const char*> ctx_tag{nullptr};
    std::atomic<const char*> name{nullptr};  // interned thread name (trace.h)
  };

  FlightRecorder() = default;

  Slot* SlotForThisThread();
  void ReleaseSlot(Slot* slot);
  /// Renders the slot state (contexts + spans arrays) into `os`-style
  /// appends on a std::string; shared by the normal dump path.
  void AppendSlotsJson(std::string* out) const;

  Slot slots_[kMaxThreads];
  std::atomic<uint32_t> high_water_{0};  // slots ever handed out
  std::mutex free_mu_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace mde::obs

#endif  // MDE_OBS_FLIGHT_H_
