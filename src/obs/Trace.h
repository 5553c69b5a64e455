//===- obs/Trace.h - Lock-free compile-lifecycle tracing ------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of src/obs/: a TraceRecorder holding one lock-free
/// ring buffer per writer thread (fixed byte budget, drop-oldest) and a
/// Span RAII handle that stamps causally linked events into it, so one
/// compile request yields a tree: request -> admission -> cache_resolve
/// -> compile -> {peer_fetch, codegen -> tuner_search, fulfill} ->
/// notification_write. Parent linkage is a thread-local "current span";
/// SpanContext carries it across threads (pool submits, continuation
/// joins) explicitly.
///
/// Concurrency contract: each ring is single-writer (its owning
/// thread), many-reader. Every slot is a tiny seqlock of
/// std::atomic<uint64_t> words — sequence stamped odd, payload words
/// stored, sequence published even — and snapshot() accepts a slot
/// only when the same even sequence brackets its copy, so the slot a
/// writer is overwriting is skipped rather than returned torn. No
/// locks on the hot path, clean under ThreadSanitizer.
///
/// Lifetime contract: a span only ever opens on the active recorder and
/// pins it until it closes, and a recorder's destructor waits until no
/// span is open on it. Several recorders may come and go in one process
/// (one per compile server), and a thread of one server can be mid-span
/// on another server's recorder when that server stops; the pin is what
/// keeps such a span from recording into freed memory.
///
/// Cost when idle: instrumentation sites construct a Span, whose
/// constructor is a single load of the process-wide active-recorder
/// pointer and an early-out when it is null.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_OBS_TRACE_H
#define UNIT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace unit {
namespace obs {

/// One completed span, fixed-size so ring slots are plain word arrays.
/// 136 bytes = 17 uint64 words (static_asserted in Trace.cpp).
struct TraceEvent {
  uint64_t SpanId = 0;
  uint64_t ParentId = 0;       ///< 0 = root.
  uint64_t StartMicros = 0;    ///< Recorder clock (monotonic by default).
  uint64_t DurationMicros = 0;
  uint32_t ThreadTag = 0;      ///< Small per-ring id, stable per thread.
  uint32_t Reserved = 0;
  char Name[24] = {};          ///< NUL-terminated, truncated.
  char Args[72] = {};          ///< "key=value key=value", truncated.
};

class TraceRecorder;

/// A (recorder, span-id) pair that survives a hop to another thread:
/// capture with currentSpan() or Span::context() on the submitting
/// thread, hand it to the pool task / continuation, and open the child
/// with Span(Name, Context) there.
struct SpanContext {
  TraceRecorder *Rec = nullptr;
  uint64_t Id = 0;
};

/// Per-thread ring buffers of TraceEvents under one fixed byte budget
/// per thread, oldest events overwritten first. The clock is injectable
/// (tests pin it); null means the monotonic steady clock.
class TraceRecorder {
public:
  using ClockFn = std::function<uint64_t()>;

  explicit TraceRecorder(size_t BytesPerThread = 256 * 1024,
                         ClockFn Clock = nullptr);
  /// Uninstalls this recorder if it is still active, then waits until
  /// every span open on it has closed.
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Current time on this recorder's clock, microseconds.
  uint64_t nowMicros() const;

  /// Process-unique nonzero span id.
  uint64_t nextSpanId();

  /// Appends \p Ev to the calling thread's ring (creating it on first
  /// use), stamping Ev.ThreadTag. Wait-free after the first call per
  /// thread.
  void record(TraceEvent Ev);

  /// Copies every live event out of every ring. Runs concurrently with
  /// writers; slots overwritten while being copied are dropped rather
  /// than returned torn.
  std::vector<TraceEvent> snapshot() const;

  /// Events each thread's ring can hold before dropping oldest.
  size_t slotsPerThread() const { return Slots; }

private:
  friend class Span;
  struct Ring;
  Ring &myRing();

  const size_t Slots;
  const ClockFn Clock;
  const uint64_t Epoch; ///< Distinguishes recorders across address reuse.
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> OpenSpans{0}; ///< Spans pinning this recorder.
  mutable std::mutex RegMu; ///< Guards Rings (registration + snapshot).
  std::vector<std::unique_ptr<Ring>> Rings;
};

/// The recorder instrumentation sites write to, or null when tracing is
/// off. Installed by the server on start(); every Span constructor is a
/// single acquire load of this pointer when idle.
void setActiveRecorder(TraceRecorder *Rec);
TraceRecorder *activeRecorder();
/// Uninstalls \p Rec only if it is still the active recorder (two
/// servers in one process: the later install wins, the earlier stop
/// must not yank the newer recorder).
void clearActiveRecorder(TraceRecorder *Rec);

/// The calling thread's innermost open span (inert context when none).
SpanContext currentSpan();

/// RAII span: opens on construction, records one TraceEvent with the
/// measured duration on destruction. Scope-bound by design (no
/// copy/move) — a span that must outlive a scope is expressed by
/// passing its context() to the code that outlives it.
class Span {
public:
  /// Inert span (records nothing). Lets call sites declare
  /// conditionally opened spans.
  Span() = default;

  /// Opens a span on the active recorder, parented to the calling
  /// thread's current span. No-op when no recorder is active.
  explicit Span(const char *Name);

  /// Opens a span parented to \p Parent — the cross-thread form. The
  /// span opens on the active recorder like any other; it becomes a root
  /// when \p Parent is inert or was taken on a different recorder (one
  /// since replaced, or torn down — a context is never dereferenced).
  Span(const char *Name, const SpanContext &Parent);

  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Appends "Key=Value " to the event's bounded Args buffer; silently
  /// truncates when full.
  void annotate(const char *Key, uint64_t Value);
  void annotate(const char *Key, const char *Value);

  /// Context for parenting work spawned onto other threads.
  SpanContext context() const { return {Rec, Ev.SpanId}; }

  bool active() const { return Rec != nullptr; }

private:
  /// The active recorder, pinned for this span (its destructor waits for
  /// the pin to drop), or null when tracing is off.
  static TraceRecorder *pinActive();
  void open(TraceRecorder *R, const char *Name, uint64_t ParentId);

  TraceRecorder *Rec = nullptr;
  TraceEvent Ev;
  SpanContext Saved; ///< Thread-local current span to restore on close.
  size_t ArgsLen = 0;
};

} // namespace obs
} // namespace unit

#endif // UNIT_OBS_TRACE_H
