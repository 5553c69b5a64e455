//===- obs/Trace.cpp -------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace unit;
using namespace unit::obs;

static_assert(sizeof(TraceEvent) % sizeof(uint64_t) == 0,
              "TraceEvent must be a whole number of words for ring slots");

namespace {

constexpr size_t WordsPerSlot = sizeof(TraceEvent) / sizeof(uint64_t);

uint64_t steadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<TraceRecorder *> ActiveRecorder{nullptr};
std::atomic<uint64_t> NextEpoch{1};
/// Threads between reading a non-null active recorder and pinning it.
/// A recorder being destroyed waits for this to drain after it is
/// uninstalled: any thread that could still pin it has done so by then.
std::atomic<uint64_t> SpansPinning{0};

thread_local SpanContext CurrentSpanTls;

} // namespace

/// One thread's event ring: single writer (the owning thread), read by
/// snapshot(). Every slot is a per-slot seqlock — one sequence word
/// followed by the event payload, all atomic words so concurrent
/// read/write is data-race-free. Writing event number H stamps the
/// sequence odd (2H+1), stores the payload, then publishes even
/// (2H+2); a reader accepts a slot only when it observes the same even
/// sequence before and after copying, so the one slot a writer is
/// mid-overwrite on is skipped exactly, never returned torn. The
/// sequence is monotonic per slot (H advances by Slots per lap), so
/// there is no ABA. Head counts events ever written; only the writer
/// uses it.
struct TraceRecorder::Ring {
  Ring(size_t Slots, uint32_t Tag)
      : Tag(Tag), Words(Slots * (WordsPerSlot + 1)) {}

  const uint32_t Tag;
  std::atomic<uint64_t> Head{0};
  std::vector<std::atomic<uint64_t>> Words;
};

namespace {

/// Thread-local pointer to "my ring in the recorder I last used",
/// validated by (owner, epoch) so a stale cache after a recorder is
/// destroyed and another allocated at the same address never matches.
/// (void* because Ring is private to TraceRecorder; the only consumer
/// is myRing(), which casts it back.)
struct RingCache {
  const TraceRecorder *Owner = nullptr;
  uint64_t Epoch = 0;
  void *R = nullptr;
};
thread_local RingCache RingTls;

} // namespace

TraceRecorder::TraceRecorder(size_t BytesPerThread, ClockFn Clock)
    : Slots(std::max<size_t>(
          4, BytesPerThread / (sizeof(TraceEvent) + sizeof(uint64_t)))),
      Clock(std::move(Clock)),
      Epoch(NextEpoch.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() {
  clearActiveRecorder(this);
  while (SpansPinning.load() != 0 || OpenSpans.load() != 0)
    std::this_thread::yield();
}

uint64_t TraceRecorder::nowMicros() const {
  return Clock ? Clock() : steadyMicros();
}

uint64_t TraceRecorder::nextSpanId() {
  return NextId.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder::Ring &TraceRecorder::myRing() {
  if (RingTls.Owner == this && RingTls.Epoch == Epoch)
    return *static_cast<Ring *>(RingTls.R);
  std::lock_guard<std::mutex> Lock(RegMu);
  Rings.push_back(std::make_unique<Ring>(
      Slots, static_cast<uint32_t>(Rings.size() + 1)));
  RingTls = {this, Epoch, Rings.back().get()};
  return *static_cast<Ring *>(RingTls.R);
}

void TraceRecorder::record(TraceEvent Ev) {
  Ring &R = myRing();
  Ev.ThreadTag = R.Tag;
  uint64_t W[WordsPerSlot];
  std::memcpy(W, &Ev, sizeof(Ev));
  uint64_t H = R.Head.load(std::memory_order_relaxed);
  size_t Base = static_cast<size_t>(H % Slots) * (WordsPerSlot + 1);
  // Seqlock write: odd marks the slot in flux. The release fence orders
  // the odd store before the payload stores as other threads see them,
  // so a reader that observed any new payload word cannot then read the
  // old even sequence and accept a mixed slot.
  R.Words[Base].store(2 * H + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t I = 0; I < WordsPerSlot; ++I)
    R.Words[Base + 1 + I].store(W[I], std::memory_order_relaxed);
  // Even publish: a reader that sees 2H+2 sees every payload word of
  // event H.
  R.Words[Base].store(2 * H + 2, std::memory_order_release);
  R.Head.store(H + 1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> Out;
  std::lock_guard<std::mutex> Lock(RegMu);
  std::vector<std::pair<uint64_t, TraceEvent>> Got;
  for (const std::unique_ptr<Ring> &RP : Rings) {
    const Ring &R = *RP;
    Got.clear();
    for (size_t Slot = 0; Slot < Slots; ++Slot) {
      size_t Base = Slot * (WordsPerSlot + 1);
      uint64_t S1 = R.Words[Base].load(std::memory_order_acquire);
      if (S1 == 0 || (S1 & 1))
        continue; // Never written, or mid-overwrite right now.
      uint64_t W[WordsPerSlot];
      for (size_t I = 0; I < WordsPerSlot; ++I)
        W[I] = R.Words[Base + 1 + I].load(std::memory_order_relaxed);
      // Pairs with the writer's release fence: if any copied word came
      // from a newer in-progress write, this fence makes that write's
      // odd sequence (stored before it) visible to the re-check below.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (R.Words[Base].load(std::memory_order_relaxed) != S1)
        continue; // Overwritten while copying: discard, never tear.
      TraceEvent Ev;
      std::memcpy(&Ev, W, sizeof(Ev));
      Got.emplace_back(S1, Ev);
    }
    // Slot order is ring order; hand events back in write order.
    std::sort(Got.begin(), Got.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[Seq, Ev] : Got)
      Out.push_back(Ev);
  }
  return Out;
}

void obs::setActiveRecorder(TraceRecorder *Rec) {
  // Sequentially consistent, like the CAS in clearActiveRecorder: either
  // one may be the uninstall a replaced recorder's destructor relies on
  // (see Span::pinActive).
  ActiveRecorder.store(Rec);
}

TraceRecorder *obs::activeRecorder() {
  return ActiveRecorder.load(std::memory_order_acquire);
}

void obs::clearActiveRecorder(TraceRecorder *Rec) {
  TraceRecorder *Expected = Rec;
  ActiveRecorder.compare_exchange_strong(Expected, nullptr);
}

SpanContext obs::currentSpan() { return CurrentSpanTls; }

TraceRecorder *Span::pinActive() {
  if (!ActiveRecorder.load(std::memory_order_acquire))
    return nullptr; // Idle: one load, no shared writes.
  // Sequentially consistent pair: count this thread as pinning, then
  // re-read the pointer. A recorder uninstalled before the re-read is
  // never touched; one uninstalled after it sees this thread in
  // SpansPinning and waits for the pin below before it can be freed.
  SpansPinning.fetch_add(1);
  TraceRecorder *R = ActiveRecorder.load();
  if (R)
    R->OpenSpans.fetch_add(1);
  SpansPinning.fetch_sub(1);
  return R;
}

Span::Span(const char *Name) {
  TraceRecorder *R = pinActive();
  if (!R)
    return;
  open(R, Name, CurrentSpanTls.Rec == R ? CurrentSpanTls.Id : 0);
}

Span::Span(const char *Name, const SpanContext &Parent) {
  TraceRecorder *R = pinActive();
  if (!R)
    return;
  open(R, Name, Parent.Rec == R ? Parent.Id : 0);
}

void Span::open(TraceRecorder *R, const char *Name, uint64_t ParentId) {
  Rec = R;
  Ev.SpanId = R->nextSpanId();
  Ev.ParentId = ParentId;
  Ev.StartMicros = R->nowMicros();
  std::strncpy(Ev.Name, Name, sizeof(Ev.Name) - 1);
  Saved = CurrentSpanTls;
  CurrentSpanTls = {Rec, Ev.SpanId};
}

Span::~Span() {
  if (!Rec)
    return;
  CurrentSpanTls = Saved;
  uint64_t End = Rec->nowMicros();
  Ev.DurationMicros = End > Ev.StartMicros ? End - Ev.StartMicros : 0;
  Rec->record(Ev);
  Rec->OpenSpans.fetch_sub(1, std::memory_order_release);
}

void Span::annotate(const char *Key, uint64_t Value) {
  // Hand-rolled digits: annotate runs on compile hot paths where a
  // snprintf per call is measurable against sub-30us warm tickets.
  char Buf[24];
  char *P = Buf + sizeof(Buf) - 1;
  *P = '\0';
  do {
    *--P = static_cast<char>('0' + Value % 10);
    Value /= 10;
  } while (Value);
  annotate(Key, P);
}

void Span::annotate(const char *Key, const char *Value) {
  if (!Rec)
    return;
  char *Dst = Ev.Args + ArgsLen;
  size_t Room = sizeof(Ev.Args) - 1 - ArgsLen;
  auto Put = [&](const char *S, size_t N) {
    N = std::min(N, Room);
    std::memcpy(Dst, S, N);
    Dst += N;
    Room -= N;
  };
  if (ArgsLen)
    Put(" ", 1);
  Put(Key, std::strlen(Key));
  Put("=", 1);
  Put(Value, std::strlen(Value));
  *Dst = '\0';
  ArgsLen = static_cast<size_t>(Dst - Ev.Args);
}

