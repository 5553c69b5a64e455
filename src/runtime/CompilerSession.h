//===- runtime/CompilerSession.h - Reusable concurrent compile layer ------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable compilation layer between graph executors and kernel
/// search: one object owning the shared KernelCache and a work-stealing
/// thread pool, exposing the unified request surface —
///
///   compile(CompileRequest)       blocking
///   compileAsync(CompileRequest)  future-based CompileJob
///   compileAllAsync(requests)     batch submission
///   compileModel(model, target)   submit every distinct layer, then join
///
/// Every entry point goes through one resolve (hit, join, or miss, under
/// one cache_resolve span) and one miss body (peer probe, codegen,
/// transfer-index update, publish, observer, cold histogram). The blocking
/// and async forms differ only in where the work runs: a blocking miss
/// runs the miss body on the calling thread and a blocking join waits on
/// the entry's future, while an async miss is a pool task and an async
/// join a continuation the winner fires. Every workload kind (conv2d /
/// conv3d / dense-as-1x1 / raw op) flows through that path, and targets
/// are string ids resolved through the TargetRegistry. Distinct shapes of
/// a model tune concurrently and tuning candidates are scored in
/// parallel, but every winner is chosen by an index-stable argmin —
/// parallel and sequential modes produce byte-identical reports.
///
/// The cache persists: saveCache() serializes every surviving entry under
/// a fingerprint of the registered machines, and loadCache() rejects
/// stale or cross-machine files, so a repeat run starts with zero tuning.
///
/// Engines (graph/Executor.h) share the process-wide session by default,
/// so a resnet50 compile warms resnet18's kernels and vice versa.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_COMPILERSESSION_H
#define UNIT_RUNTIME_COMPILERSESSION_H

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "runtime/CompileRequest.h"
#include "runtime/KernelCache.h"
#include "support/ThreadPool.h"
#include "target/TargetRegistry.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace unit {

struct SessionConfig {
  unsigned Threads = 0;           ///< Pool size; 0 = hardware concurrency.
  bool ParallelShapes = true;     ///< Tune distinct model shapes concurrently.
  bool ParallelCandidates = true; ///< Score tuning candidates concurrently.
  size_t CacheCapacity = 0;       ///< LRU entry cap; 0 = unbounded.
  /// LRU byte cap over the cache's resident-byte accounting; 0 =
  /// unbounded. Enforced on insert, coldest ready entries first
  /// (in-flight compiles are never evicted). Both caps may be set; each
  /// is enforced independently.
  size_t CacheCapacityBytes = 0;
  /// Age-based cache expiry: ready entries older than this re-tune on
  /// next use (KernelCache::setTTL); <= 0 = entries never expire. For
  /// long-lived daemons whose machine stays fixed but whose operators
  /// still want periodic re-tunes.
  double CacheTTLSeconds = 0;
  /// Clock the TTL is measured on; null = process steady clock. A test
  /// hook — injecting a fake clock turns expiry tests into arithmetic
  /// instead of sleeps.
  KernelCache::ClockFn CacheClock;
};

/// Counters describing how the session has been resolving requests,
/// blocking and async alike. All monotonic over the session's lifetime.
struct SessionStats {
  /// Requests that joined an in-flight compile of their key: an async
  /// join registers a continuation the winner drains (zero pool threads
  /// consumed); a blocking join waits on the entry's future.
  uint64_t ContinuationJoins = 0;
  /// Requests served by a ready cache entry, resolved inline on the
  /// calling thread with no pool task.
  uint64_t InlineReadyHits = 0;
  /// Requests that won their key and ran a fresh compile — a pool task
  /// when async, the calling thread when blocking (plus Bypass requests,
  /// which always compile).
  uint64_t FreshDispatches = 0;
  /// Cold compiles whose tuner search was seeded from the cached winner
  /// of a near-isomorphic key (transfer tuning, docs/TUNING.md). Seeding
  /// never changes the compiled report — only how many candidates the
  /// pruned search has to score.
  uint64_t TransferSeeds = 0;
};

/// What compiling a whole model produced.
struct ModelCompileResult {
  std::vector<KernelReport> Layers; ///< One per Model::Convs entry.
  size_t DistinctShapes = 0;        ///< Kernels actually visited.
  size_t CacheHitLayers = 0;        ///< Layers whose entry predated this call
                                    ///< (approximate under concurrent cold
                                    ///< submissions — the probe races).
  size_t FreshCompiles = 0;         ///< Kernels this call actually compiled —
                                    ///< race-free (from the compile itself,
                                    ///< not a cache probe); single-flight
                                    ///< joins of concurrent callers are 0.
  double WallSeconds = 0.0;         ///< Measured compile wall time (telemetry).
};

class CompilerSession {
public:
  /// Fleet hook: consulted by the winning thread of a cold Default-policy
  /// compile before it tunes. Returning a report fulfills the in-flight
  /// entry with it — callers observe a cache hit (Computed=false), no
  /// tuner runs. See setColdMissFetcher.
  using ColdMissFetcher =
      std::function<std::optional<KernelReport>(const std::string &Key)>;
  /// Fleet hook: fired after every successful fresh compile (never for
  /// cache hits, joins, or peer-fetched entries). See setCompileObserver.
  using CompileObserver =
      std::function<void(const std::string &Key, const KernelReport &Report)>;

  /// Completion callback for compileAsyncThen: exactly one of \p Report
  /// and \p Error is non-null/non-empty; \p Computed mirrors compile()'s
  /// ComputedHere (true only when the job ran the compile itself).
  /// Invoked on whichever thread resolves the job: the *submitting*
  /// thread (ready cache hits fire before compileAsyncThen returns), the
  /// winner's completing thread (single-flight joins, drained as
  /// continuations), or a pool worker (fresh compiles). Never invoked
  /// while the session holds an internal lock. Keep it short and never
  /// call back into blocking session APIs from inside it.
  using JobCallback = std::function<void(
      const KernelReport *Report, std::exception_ptr Error, bool Computed)>;

private:
  SessionConfig Config;
  KernelCache Cache;
  /// Fleet hooks (guarded by HooksMu; read per cold compile, so the lock
  /// is off every warm path). Declared before Pool: workers read them.
  mutable std::mutex HooksMu;
  ColdMissFetcher MissFetcher;
  CompileObserver Observer;
  /// Async compile tasks submitted but not yet finished. Long-lived hosts
  /// (the CompileServer) quiesce() on this before tearing anything down.
  /// Declared (with the cv pair below) before Pool: the pool's destructor
  /// joins workers that still touch them, so they must be destroyed
  /// after the join.
  std::atomic<size_t> InFlight{0};
  /// Wakes quiesce() when the last in-flight job finishes while the
  /// waiter is parked on an empty queue.
  std::mutex QuiesceMu;
  std::condition_variable QuiesceCv;
  /// SessionStats counters (see sessionStats()); declared before Pool for
  /// the same destruction-order reason as the quiesce state above.
  std::atomic<uint64_t> ContinuationJoinsCount{0};
  std::atomic<uint64_t> InlineReadyHitsCount{0};
  std::atomic<uint64_t> FreshDispatchesCount{0};
  std::atomic<uint64_t> TransferSeedsCount{0};
  /// Transfer-tuning index: cache key -> winning candidate index, grouped
  /// by the key's `target|spechash|kind|` prefix so seeds never cross a
  /// backend or workload family. Inner std::map keeps deterministic
  /// iteration (nearest-neighbor ties break by body order, not hash
  /// order). Touched only on cold compiles — warm hits never take the
  /// lock. Declared before Pool: workers record winners into it.
  std::mutex TransferMu;
  std::unordered_map<std::string, std::map<std::string, int>> TransferIndex;
  /// Submit-to-resolve latency histograms (docs/OBSERVABILITY.md), split
  /// by how the request resolved: fresh compile (cold, including
  /// peer-fetched misses and Bypass), ready cache hit (warm), join of an
  /// in-flight compile.
  /// Wait-free to record; declared before Pool — workers record into
  /// them, so they must outlive the worker join.
  obs::LatencyHistogram ColdLatencyHist;
  obs::LatencyHistogram WarmLatencyHist;
  obs::LatencyHistogram JoinLatencyHist;
  std::unique_ptr<ThreadPool> Pool;

  /// The pool handed to tuners, or null when candidate-parallelism is off.
  ThreadPool *tuningPool() { return Config.ParallelCandidates ? Pool.get() : nullptr; }

  /// \p Base with SeedCandidate filled from the transfer index when the
  /// caller left it unset: the winning candidate of the structurally
  /// nearest already-compiled key in \p Key's group, if any is within the
  /// distance cutoff. Called only on cold compile paths.
  CompileOptions optionsWithSeed(const CompileOptions &Base,
                                 const std::string &Key);

  /// Candidate-space index the transfer index suggests for \p Key, or -1.
  int transferSeedFor(const std::string &Key);

  /// Feeds \p Key's winning candidate into the transfer index (no-op for
  /// fallback reports with no winner). Called after fresh compiles and
  /// peer-fetched reports — every report that proves a winner for a key.
  void recordTransferWinner(const std::string &Key,
                            const KernelReport &Report);

  /// Where a miss publishes its outcome: the single-flight winner's cache
  /// ticket, or — for Bypass, which never touches the cache — the job's
  /// private promise (Private is non-null exactly for Bypass).
  struct MissSink {
    KernelCache::ComputeTicket Ticket;
    std::shared_ptr<std::promise<KernelReport>> Private;
  };

  /// The one resolve behind every entry point, under \p Key (already
  /// derived from \p Request). Handles Refresh and Bypass, classifies the
  /// request as hit, join, or miss under one cache_resolve span, and
  /// counts it in SessionStats. A hit fires \p Finish on this thread.
  /// \p Inline (blocking callers) waits out a join on the entry's future
  /// and runs a miss here; otherwise a join registers a continuation the
  /// winner drains and a miss is submitted to the pool — no pool thread
  /// ever blocks on a join. \p Finish may be null (future-only callers);
  /// \p FreshCounter, when non-null, is incremented iff the job runs a
  /// fresh compile itself — the race-free accounting behind compile()'s
  /// ComputedHere and compileModel's FreshCompiles.
  CompileJob dispatch(const CompileRequest &Request, std::string Key,
                      JobCallback Finish, std::atomic<size_t> *FreshCounter,
                      bool Inline);

  /// The one miss body: peer probe (Default policy only), else codegen
  /// seeded from the transfer index; then the transfer-index update,
  /// publish into \p Sink (fulfill or fail), the compile observer (fresh
  /// cache-backed compiles only), \p Finish, and the cold histogram.
  /// Never throws: a failure is published to the job's future. Every span
  /// it opens — compile, parented to \p Parent, and its children — is
  /// closed when it returns.
  void runMiss(const CompileRequest &Request, const std::string &Key,
               MissSink &Sink, const JobCallback &Finish,
               std::atomic<size_t> *FreshCounter,
               const obs::SpanContext &Parent, double T0);

  /// Marks one async job finished: decrements InFlight and, when it was
  /// the last one, wakes quiesce() — exact notification, no polling.
  void jobFinished();

  /// Snapshot copies of the fleet hooks (cheap: one mutex hop per cold
  /// compile; warm hits never get here).
  ColdMissFetcher missFetcher() const {
    std::lock_guard<std::mutex> Lock(HooksMu);
    return MissFetcher;
  }
  CompileObserver compileObserver() const {
    std::lock_guard<std::mutex> Lock(HooksMu);
    return Observer;
  }

public:
  explicit CompilerSession(SessionConfig Config = {});
  ~CompilerSession();

  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  /// The process-wide session every engine uses unless given its own
  /// (returned by value: a reference would race with resetShared).
  static std::shared_ptr<CompilerSession> shared();

  /// Test-only hook: replaces the process-wide session with a fresh one so
  /// tests that mutate the shared cache don't order-depend on each other.
  /// Engines constructed earlier keep their (old) session alive; new
  /// default-constructed engines pick up the replacement.
  static std::shared_ptr<CompilerSession> resetShared(SessionConfig Config = {});

  KernelCache &cache() { return Cache; }
  ThreadPool &pool() { return *Pool; }
  const SessionConfig &config() const { return Config; }

  /// Async compile tasks currently submitted or running — the session's
  /// queue depth (a stats() field of the compile server).
  size_t inFlightJobs() const { return InFlight.load(); }

  /// Blocks until every submitted async compile has finished, helping
  /// drain the pool from the calling thread, then parking on an untimed
  /// wait the final continuation wakes exactly (no timed polling when
  /// idle). Jobs submitted *while* quiescing are waited for too; the
  /// caller is responsible for stopping new submissions first
  /// (graceful-shutdown order: stop intake, then quiesce, then persist).
  void quiesce();

  /// Resolve counters; see SessionStats.
  SessionStats sessionStats() const {
    SessionStats S;
    S.ContinuationJoins = ContinuationJoinsCount.load();
    S.InlineReadyHits = InlineReadyHitsCount.load();
    S.FreshDispatches = FreshDispatchesCount.load();
    S.TransferSeeds = TransferSeedsCount.load();
    return S;
  }

  /// Submit-to-resolve latency distributions, split by resolution kind;
  /// the server's `metrics` message serves these as the
  /// unit_compile_{cold,warm,join}_seconds families.
  struct LatencySnapshots {
    obs::HistogramSnapshot Cold, Warm, Join;
  };
  LatencySnapshots latencySnapshots() const {
    return {ColdLatencyHist.snapshot(), WarmLatencyHist.snapshot(),
            JoinLatencyHist.snapshot()};
  }

  //===--------------------------------------------------------------------===//
  // Fleet hooks
  //===--------------------------------------------------------------------===//

  /// Installs \p Fetch as the cold-miss fetcher. The single-flight winner
  /// of a cold Default-policy compile calls it (on its own thread — a
  /// blocking network probe is fine) before invoking the tuner; a
  /// returned report fulfills the entry as if it had been cached all
  /// along, so every joined waiter resolves and "computed here" stays
  /// false. Refresh compiles skip it by design — Refresh means "tune
  /// *here*, now". The compile server wires PeerManager::fetchMissing in
  /// here; pass nullptr to uninstall.
  void setColdMissFetcher(ColdMissFetcher Fetch) {
    std::lock_guard<std::mutex> Lock(HooksMu);
    MissFetcher = std::move(Fetch);
  }

  /// Installs \p Notify to observe every successful fresh compile (the
  /// single-flight winner, after the cache entry is fulfilled). Hits,
  /// joins, and peer-fetched entries never fire it — so announcing
  /// observed reports to peers cannot echo. Runs on the compiling
  /// thread; keep it non-blocking (PeerManager::announce just enqueues).
  void setCompileObserver(CompileObserver Notify) {
    std::lock_guard<std::mutex> Lock(HooksMu);
    Observer = std::move(Notify);
  }

  //===--------------------------------------------------------------------===//
  // The unified compile surface
  //===--------------------------------------------------------------------===//

  /// Compiles one request, honoring its cache policy and tuning budget.
  /// A miss compiles on the calling thread; a join of another caller's
  /// in-flight compile waits for it. \p ComputedHere, when non-null,
  /// reports whether this call ran a fresh compile (true) or was served
  /// by the cache — a ready entry or a single-flight join of a concurrent
  /// compile (false). Race-free, unlike probing the cache before
  /// compiling; the server's "cached" response flag and compiled-layer
  /// accounting ride on it.
  KernelReport compile(const CompileRequest &Request,
                       bool *ComputedHere = nullptr);

  /// Submits one request to the session pool and returns immediately. A
  /// ready or in-flight cache entry is joined without a pool round-trip.
  /// CompileJob::get() rethrows any exception the backend raised.
  CompileJob compileAsync(CompileRequest Request);

  /// compileAsync plus a completion hook: \p OnDone fires exactly once
  /// when the job resolves, including for cache hits and single-flight
  /// joins of another caller's in-flight compile. No variant ever parks a
  /// pool thread on a join — hits resolve inline and joins ride the
  /// winner's completion (see SessionStats) — so pending callbacks cost a
  /// list slot, not a worker. This is what lets an event-driven host —
  /// the compile server's streaming mode — push results as they land
  /// while keeping thousands of tickets in flight over a small pool.
  CompileJob compileAsyncThen(CompileRequest Request, JobCallback OnDone);

  /// Submits a batch in request order; the returned jobs are in the same
  /// order.
  std::vector<CompileJob> compileAllAsync(std::vector<CompileRequest> Requests);

  /// Compiles every conv layer of \p M by submitting all distinct shapes
  /// async and then joining ("submit all, then join") when the config
  /// allows shape parallelism; sequential otherwise. Per-layer reports
  /// are byte-identical between the two modes. \p TargetId resolves
  /// through the process-wide TargetRegistry.
  ModelCompileResult compileModel(const Model &M, const std::string &TargetId,
                                  const CompileOptions &Options = {});
  ModelCompileResult compileModel(const Model &M, const TargetBackend &Backend,
                                  const CompileOptions &Options = {});

  //===--------------------------------------------------------------------===//
  // Cache persistence
  //===--------------------------------------------------------------------===//

  /// Fingerprint the session's cache files are versioned under: a format
  /// tag plus every registered backend's cache salt (target id + spec
  /// hash, which folds in machine parameters, quantization scheme, and
  /// intrinsic descriptions) — so a file written under different machine
  /// models, a different spec revision, or a different format revision is
  /// rejected on load.
  static std::string persistenceFingerprint();

  /// Serializes the surviving ready cache entries to \p Path. Returns the
  /// number of entries written, or std::nullopt on I/O failure.
  std::optional<size_t> saveCache(const std::string &Path) const;

  /// Merges a saveCache() file into this session's cache; stale,
  /// corrupted, or cross-machine files load zero entries.
  KernelCache::LoadResult loadCache(const std::string &Path);
};

} // namespace unit

#endif // UNIT_RUNTIME_COMPILERSESSION_H
