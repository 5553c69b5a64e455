//===- tests/test_obs.cpp - Tracing + histogram layer tests ----------------===//
//
// Covers src/obs/: log-bucket histogram placement, merge, and quantile
// accuracy against exact order statistics; the per-thread trace rings
// (byte budget, drop-oldest overflow, no torn records under a
// concurrent snapshot hammer); span parent linkage on one thread and
// across threads — including through the session's resolveThen
// continuation path, where a join registered on thread A resumes on the
// winner's pool thread and must still parent to A's submit-side span;
// and recorder teardown while another thread is mid-span on it.
//
//===----------------------------------------------------------------------===//

#include "obs/Build.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

using namespace unit;
using namespace unit::obs;

namespace {

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketBoundaries) {
  LatencyHistogram H;
  // Bucket B holds samples <= 2^B microseconds; bucket 0 is <= 1us.
  H.record(0);          // Zero lands in bucket 0.
  H.record(1e-6);       // Exactly 1us: bucket 0.
  H.record(1.000001e-6);// Just above 1us: bucket 1.
  H.record(2e-6);       // Exactly 2us: bucket 1.
  H.record(3e-6);       // 3us: bucket 2 (<= 4us).
  H.record(4e-6);       // Exactly 4us: bucket 2.
  H.record(1e-3);       // 1000us: bucket 10 (<= 1024us).
  H.record(1.0);        // 1e6us: bucket 20 (<= 2^20 = 1048576us).
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Buckets[0], 2u);
  EXPECT_EQ(S.Buckets[1], 2u);
  EXPECT_EQ(S.Buckets[2], 2u);
  EXPECT_EQ(S.Buckets[10], 1u);
  EXPECT_EQ(S.Buckets[20], 1u);
  EXPECT_EQ(S.Count, 8u);
  EXPECT_NEAR(S.SumSeconds, 1.001011000001, 1e-6);
}

TEST(Histogram, NegativeNaNAndOverflow) {
  LatencyHistogram H;
  H.record(-5.0);                 // Negative: clamped to bucket 0, sum 0.
  H.record(std::nan(""));         // NaN: bucket 0.
  H.record(1e6);                  // 1e12 us >> 2^36 us: overflow bucket.
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Buckets[0], 2u);
  EXPECT_EQ(S.Buckets[HistogramSnapshot::OverflowBucket], 1u);
  EXPECT_EQ(S.Count, 3u);
  // The overflow bucket's upper bound is +Inf; its quantile reports the
  // finite lower edge instead of interpolating into infinity.
  EXPECT_TRUE(std::isinf(
      HistogramSnapshot::upperBoundSeconds(HistogramSnapshot::OverflowBucket)));
  EXPECT_EQ(S.quantile(1.0),
            HistogramSnapshot::upperBoundSeconds(
                HistogramSnapshot::OverflowBucket - 1));
}

TEST(Histogram, EmptyQuantileIsZero) {
  HistogramSnapshot S;
  EXPECT_EQ(S.quantile(0.5), 0.0);
  EXPECT_EQ(S.Count, 0u);
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram A, B;
  A.record(1e-6);
  A.record(1e-3);
  B.record(1e-3);
  B.record(1.0);
  HistogramSnapshot SA = A.snapshot(), SB = B.snapshot();
  SA.merge(SB);
  EXPECT_EQ(SA.Count, 4u);
  EXPECT_EQ(SA.Buckets[0], 1u);
  EXPECT_EQ(SA.Buckets[10], 2u);
  EXPECT_EQ(SA.Buckets[20], 1u);
  EXPECT_NEAR(SA.SumSeconds, 1.002001, 1e-9);
}

TEST(Histogram, QuantileWithinOneBucketOfExact) {
  // Against random samples the histogram quantile must land within the
  // bucket that contains the exact order statistic: the estimate and
  // the true value share a bucket, so the estimate is bounded by the
  // bucket's edges — the histogram's advertised accuracy contract.
  std::mt19937_64 Rng(42);
  std::lognormal_distribution<double> Dist(/*us-scale*/ 4.0, 2.0);
  LatencyHistogram H;
  std::vector<double> Samples;
  for (int I = 0; I < 5000; ++I) {
    double Seconds = Dist(Rng) * 1e-6;
    Samples.push_back(Seconds);
    H.record(Seconds);
  }
  std::sort(Samples.begin(), Samples.end());
  HistogramSnapshot S = H.snapshot();
  for (double Q : {0.5, 0.95, 0.99}) {
    size_t Rank = static_cast<size_t>(
        std::ceil(Q * static_cast<double>(Samples.size())));
    double Exact = Samples[Rank - 1];
    double Est = S.quantile(Q);
    // Find the exact value's bucket and assert the estimate sits inside
    // its [lower, upper] edges.
    int B = 0;
    while (Exact > HistogramSnapshot::upperBoundSeconds(B))
      ++B;
    EXPECT_GE(Est, HistogramSnapshot::upperBoundSeconds(B - 1))
        << "q" << Q;
    EXPECT_LE(Est, HistogramSnapshot::upperBoundSeconds(B)) << "q" << Q;
  }
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram H;
  constexpr int Threads = 8, PerThread = 20000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (int I = 0; I < PerThread; ++I)
        H.record(1e-6 * static_cast<double>(1 + (T + I) % 64));
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(H.snapshot().Count,
            static_cast<uint64_t>(Threads) * PerThread);
}

//===----------------------------------------------------------------------===//
// TraceRecorder rings
//===----------------------------------------------------------------------===//

TraceEvent makeEvent(uint64_t Id) {
  TraceEvent Ev;
  Ev.SpanId = Id;
  Ev.ParentId = Id * 3;       // Self-consistent payload: torn records
  Ev.StartMicros = Id * 7;    // would break these relations.
  Ev.DurationMicros = Id * 11;
  std::snprintf(Ev.Name, sizeof(Ev.Name), "ev%llu",
                static_cast<unsigned long long>(Id));
  return Ev;
}

bool eventConsistent(const TraceEvent &Ev) {
  char Expect[sizeof(Ev.Name)];
  std::snprintf(Expect, sizeof(Expect), "ev%llu",
                static_cast<unsigned long long>(Ev.SpanId));
  return Ev.ParentId == Ev.SpanId * 3 && Ev.StartMicros == Ev.SpanId * 7 &&
         Ev.DurationMicros == Ev.SpanId * 11 &&
         std::strncmp(Ev.Name, Expect, sizeof(Ev.Name)) == 0;
}

TEST(TraceRing, ByteBudgetSetsSlotCount) {
  // 10 slots' worth of bytes (each slot pays one extra word for its
  // seqlock sequence): the ring must hold exactly that many events per
  // thread, with a floor of 4 for degenerate budgets.
  TraceRecorder Rec(10 * (sizeof(TraceEvent) + sizeof(uint64_t)));
  EXPECT_EQ(Rec.slotsPerThread(), 10u);
  TraceRecorder Tiny(1);
  EXPECT_EQ(Tiny.slotsPerThread(), 4u);
}

TEST(TraceRing, OverflowDropsOldest) {
  TraceRecorder Rec(8 * sizeof(TraceEvent));
  const size_t Slots = Rec.slotsPerThread();
  const uint64_t Total = 3 * Slots + 1;
  for (uint64_t I = 1; I <= Total; ++I)
    Rec.record(makeEvent(I));
  std::vector<TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), Slots);
  // The survivors are exactly the newest Slots events, in write order.
  std::vector<uint64_t> Ids;
  for (const TraceEvent &Ev : Events) {
    EXPECT_TRUE(eventConsistent(Ev));
    Ids.push_back(Ev.SpanId);
  }
  std::sort(Ids.begin(), Ids.end());
  for (size_t I = 0; I < Slots; ++I)
    EXPECT_EQ(Ids[I], Total - Slots + 1 + I);
}

TEST(TraceRing, PerThreadRingsGetDistinctTags) {
  TraceRecorder Rec(8 * sizeof(TraceEvent));
  Rec.record(makeEvent(1));
  std::thread Other([&Rec] { Rec.record(makeEvent(2)); });
  Other.join();
  std::vector<TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NE(Events[0].ThreadTag, Events[1].ThreadTag);
}

TEST(TraceRing, SnapshotNeverReturnsTornRecords) {
  // One writer lapping a small ring as fast as it can; concurrent
  // snapshots must only ever see self-consistent events (slots caught
  // mid-overwrite are discarded, not returned half-old half-new).
  TraceRecorder Rec(16 * sizeof(TraceEvent));
  constexpr uint64_t Total = 200000;
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (uint64_t Id = 1; Id <= Total; ++Id)
      Rec.record(makeEvent(Id));
    Done.store(true, std::memory_order_release);
  });
  // Snapshot continuously for the writer's whole lifetime: the ring is
  // lapped thousands of times, so copies race overwrites constantly.
  size_t Inspected = 0;
  int Rounds = 0;
  while (!Done.load(std::memory_order_acquire)) {
    std::vector<TraceEvent> Events = Rec.snapshot();
    EXPECT_LE(Events.size(), Rec.slotsPerThread());
    for (const TraceEvent &Ev : Events) {
      ASSERT_TRUE(eventConsistent(Ev))
          << "torn record: id " << Ev.SpanId << " round " << Rounds;
      ++Inspected;
    }
    ++Rounds;
  }
  Writer.join();
  // A final quiescent snapshot holds exactly the newest ring-full.
  std::vector<TraceEvent> Final = Rec.snapshot();
  ASSERT_EQ(Final.size(), Rec.slotsPerThread());
  for (const TraceEvent &Ev : Final) {
    EXPECT_TRUE(eventConsistent(Ev));
    EXPECT_GT(Ev.SpanId, Total - Rec.slotsPerThread());
    ++Inspected;
  }
  EXPECT_GT(Inspected, 0u);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Installs a recorder for the scope and guarantees it is uninstalled
/// before destruction even when an assertion fails out of the test.
struct ScopedRecorder {
  TraceRecorder Rec;
  explicit ScopedRecorder(size_t Bytes = 64 * 1024,
                          TraceRecorder::ClockFn Clock = nullptr)
      : Rec(Bytes, std::move(Clock)) {
    setActiveRecorder(&Rec);
  }
  ~ScopedRecorder() { clearActiveRecorder(&Rec); }
};

const TraceEvent *findByName(const std::vector<TraceEvent> &Events,
                             const char *Name) {
  for (const TraceEvent &Ev : Events)
    if (std::strcmp(Ev.Name, Name) == 0)
      return &Ev;
  return nullptr;
}

TEST(Span, NestingLinksParentsOnOneThread) {
  ScopedRecorder Scoped;
  {
    Span Outer("outer");
    {
      Span Inner("inner");
      Inner.annotate("ticket", 42);
      Inner.annotate("outcome", "hit");
    }
  }
  std::vector<TraceEvent> Events = Scoped.Rec.snapshot();
  const TraceEvent *Outer = findByName(Events, "outer");
  const TraceEvent *Inner = findByName(Events, "inner");
  ASSERT_TRUE(Outer && Inner);
  EXPECT_EQ(Outer->ParentId, 0u);
  EXPECT_EQ(Inner->ParentId, Outer->SpanId);
  EXPECT_STREQ(Inner->Args, "ticket=42 outcome=hit");
}

TEST(Span, InjectedClockStampsStartAndDuration) {
  uint64_t Now = 1000;
  ScopedRecorder Scoped(64 * 1024, [&Now] { return Now; });
  {
    Span S("timed");
    Now += 250;
  }
  std::vector<TraceEvent> Events = Scoped.Rec.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].StartMicros, 1000u);
  EXPECT_EQ(Events[0].DurationMicros, 250u);
}

TEST(Span, NoRecorderMeansInert) {
  // No active recorder: spans are no-ops, annotate included.
  TraceRecorder *Before = activeRecorder();
  ASSERT_EQ(Before, nullptr);
  Span S("nothing");
  S.annotate("k", 1);
  EXPECT_FALSE(S.active());
}

TEST(Span, ContextCarriesParentAcrossThreads) {
  ScopedRecorder Scoped;
  SpanContext Ctx;
  {
    Span Submit("submit");
    Ctx = Submit.context();
    std::thread Worker([Ctx] { Span Child("child", Ctx); });
    Worker.join();
  }
  std::vector<TraceEvent> Events = Scoped.Rec.snapshot();
  const TraceEvent *Submit = findByName(Events, "submit");
  const TraceEvent *Child = findByName(Events, "child");
  ASSERT_TRUE(Submit && Child);
  EXPECT_EQ(Child->ParentId, Submit->SpanId);
  EXPECT_NE(Child->ThreadTag, Submit->ThreadTag);
}

TEST(Span, ClearActiveRecorderOnlyYanksItsOwn) {
  TraceRecorder A, B;
  setActiveRecorder(&A);
  // A stale owner clearing after a newer install must not disturb it.
  setActiveRecorder(&B);
  clearActiveRecorder(&A);
  EXPECT_EQ(activeRecorder(), &B);
  clearActiveRecorder(&B);
  EXPECT_EQ(activeRecorder(), nullptr);
}

TEST(Span, RecorderTeardownWaitsForSpansOpenOnIt) {
  // Two servers in one process: the second install replaces the first
  // server's recorder while one of its threads is mid-span on it. The
  // first recorder's destruction must wait for that span, not free the
  // memory the span closes into.
  auto First = std::make_unique<TraceRecorder>();
  setActiveRecorder(First.get());
  std::promise<void> Opened, Release;
  SpanContext FirstCtx;
  std::thread Worker([&] {
    Span Late("late");
    FirstCtx = Late.context();
    Opened.set_value();
    Release.get_future().wait();
  });
  Opened.get_future().wait();

  TraceRecorder Second;
  setActiveRecorder(&Second);
  {
    // A context from the replaced recorder parents nothing on the new
    // one: the span is a root, and the old recorder is never touched.
    Span Child("child", FirstCtx);
  }
  std::atomic<bool> Destroyed{false};
  std::thread Teardown([&] {
    First.reset();
    Destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Destroyed.load());
  Release.set_value();
  Worker.join();
  Teardown.join();
  EXPECT_TRUE(Destroyed.load());
  clearActiveRecorder(&Second);

  std::vector<TraceEvent> Events = Second.snapshot();
  const TraceEvent *Child = findByName(Events, "child");
  ASSERT_TRUE(Child);
  EXPECT_EQ(Child->ParentId, 0u);
  EXPECT_EQ(findByName(Events, "late"), nullptr);
}

//===----------------------------------------------------------------------===//
// Cross-thread parenting through the session's continuation join
//===----------------------------------------------------------------------===//

/// Minimal backend: compiles block on a gate so a second submission of
/// the same key deterministically joins the in-flight winner.
class GateBackend : public TargetBackend {
public:
  std::shared_future<void> Gate;
  /// Signalled once the compile is running (and about to block on the
  /// gate) — i.e. a pool worker, not the submitting thread, owns it.
  mutable std::atomic<bool> Started{false};

  const std::string &id() const override {
    static const std::string Id = "probe";
    return Id;
  }
  std::string cacheSalt() const override { return "probe|obs-gate"; }
  const QuantScheme &scheme() const override {
    static QuantScheme S = TargetRegistry::instance().get("x86")->scheme();
    return S;
  }
  std::string convKey(const ConvLayer &L) const override {
    return cacheSalt() + "|conv|" + L.shapeKey();
  }
  KernelReport compileConv(const ConvLayer &, ThreadPool *,
                           const CompileOptions &) const override {
    Started.store(true);
    if (Gate.valid())
      Gate.wait();
    KernelReport R;
    R.Seconds = 0.25;
    return R;
  }
  KernelReport compileOp(const ComputeOpRef &, ThreadPool *,
                         const CompileOptions &) const override {
    return compileConv({}, nullptr, {});
  }
};

TEST(SpanTree, ResolveThenContinuationParentsAcrossThreads) {
  ScopedRecorder Scoped(256 * 1024);
  SessionConfig C;
  C.Threads = 2;
  {
    CompilerSession Session(C);
    auto Backend = std::make_shared<GateBackend>();
    std::promise<void> Gate;
    Backend->Gate = Gate.get_future().share();
    ConvLayer L{"c", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};

    std::atomic<int> Fired{0};
    // First submission plants the gated winner synchronously; the
    // second is therefore a continuation join, resumed on the winner's
    // pool thread when the gate opens.
    CompileJob Winner =
        Session.compileAsync({Workload::conv2d(L), Backend});
    Session.compileAsyncThen(
        {Workload::conv2d(L), Backend},
        [&](const KernelReport *Report, std::exception_ptr Error, bool) {
          if (Report && !Error)
            Fired.fetch_add(1);
        });
    // Let a pool worker claim the winner before opening the gate:
    // quiesce() drains queued work on the calling thread, which would
    // otherwise sometimes run the compile (and the continuation) right
    // here on the main thread and void the cross-thread assertions.
    while (!Backend->Started.load())
      std::this_thread::yield();
    Gate.set_value();
    Session.quiesce();
    ASSERT_EQ(Fired.load(), 1);
    SessionStats Stats = Session.sessionStats();
    ASSERT_EQ(Stats.ContinuationJoins, 1u);
  }

  std::vector<TraceEvent> Events = Scoped.Rec.snapshot();
  const TraceEvent *Resume = findByName(Events, "join_resume");
  ASSERT_TRUE(Resume) << "continuation join produced no join_resume span";

  // The resume parents to the joining submission's cache_resolve span —
  // the one annotated outcome=join, opened on the main thread.
  const TraceEvent *JoinResolve = nullptr;
  const TraceEvent *MissResolve = nullptr;
  for (const TraceEvent &Ev : Events)
    if (std::strcmp(Ev.Name, "cache_resolve") == 0) {
      if (std::strstr(Ev.Args, "outcome=join"))
        JoinResolve = &Ev;
      if (std::strstr(Ev.Args, "outcome=miss"))
        MissResolve = &Ev;
    }
  ASSERT_TRUE(JoinResolve);
  ASSERT_TRUE(MissResolve);
  EXPECT_EQ(Resume->ParentId, JoinResolve->SpanId);
  // Submit side ran on this thread; the resume ran on a pool worker.
  EXPECT_NE(Resume->ThreadTag, JoinResolve->ThreadTag);

  // The winner's compile span is parented to its own (miss) resolve and
  // also hopped threads.
  const TraceEvent *Compile = findByName(Events, "compile");
  ASSERT_TRUE(Compile);
  EXPECT_EQ(Compile->ParentId, MissResolve->SpanId);
  EXPECT_NE(Compile->ThreadTag, MissResolve->ThreadTag);
}

//===----------------------------------------------------------------------===//
// Build string
//===----------------------------------------------------------------------===//

TEST(Build, StringHasVersionAndSha) {
  std::string S = buildString();
  EXPECT_EQ(S.rfind("unit-", 0), 0u) << S;
  EXPECT_NE(S.find('+'), std::string::npos) << S;
}

} // namespace
