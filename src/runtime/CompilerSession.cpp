//===- runtime/CompilerSession.cpp -----------------------------------------===//

#include "runtime/CompilerSession.h"

#include "core/Isomorphism.h"
#include "obs/Trace.h"
#include "support/Time.h"
#include "tuner/TuningSpace.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

using namespace unit;

CompilerSession::CompilerSession(SessionConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Cache(Config.CacheCapacity, Config.CacheCapacityBytes),
      Pool(std::make_unique<ThreadPool>(Config.Threads)) {
  if (Config.CacheTTLSeconds > 0 || Config.CacheClock)
    Cache.setTTL(Config.CacheTTLSeconds, Config.CacheClock);
}

CompilerSession::~CompilerSession() = default;

namespace {

std::mutex &sharedSessionMutex() {
  static std::mutex Mu;
  return Mu;
}

std::shared_ptr<CompilerSession> &sharedSessionSlot() {
  static std::shared_ptr<CompilerSession> Session =
      std::make_shared<CompilerSession>();
  return Session;
}

/// Non-owning handle for borrowed-backend entry points (compileModel with
/// a const reference joins every job before returning, so the borrow is
/// always outlived).
TargetBackendRef borrow(const TargetBackend &Backend) {
  return TargetBackendRef(&Backend, [](const TargetBackend *) {});
}

} // namespace

std::shared_ptr<CompilerSession> CompilerSession::shared() {
  // By value, copied under the lock: a reference to the slot would escape
  // the critical section and race with resetShared()'s assignment.
  std::lock_guard<std::mutex> Lock(sharedSessionMutex());
  return sharedSessionSlot();
}

std::shared_ptr<CompilerSession>
CompilerSession::resetShared(SessionConfig Config) {
  auto Fresh = std::make_shared<CompilerSession>(Config);
  std::lock_guard<std::mutex> Lock(sharedSessionMutex());
  sharedSessionSlot() = Fresh;
  return Fresh;
}

//===----------------------------------------------------------------------===//
// Transfer tuning (docs/TUNING.md)
//===----------------------------------------------------------------------===//

namespace {

/// Splits a cache key at its `target|spechash|kind|` prefix. Returns
/// false for keys without three '|' separators (no backend produces
/// those, but a malformed key must never seed anything).
bool splitTransferKey(const std::string &Key, std::string &Group,
                      std::string &Body) {
  size_t Pos = 0;
  for (int Sep = 0; Sep < 3; ++Sep) {
    Pos = Key.find('|', Pos);
    if (Pos == std::string::npos)
      return false;
    ++Pos;
  }
  Group = Key.substr(0, Pos);
  Body = Key.substr(Pos);
  return true;
}

/// Per-group entry cap: the index is an accelerator, not a cache — a
/// runaway key population must not grow it without bound.
constexpr size_t TransferGroupCap = 512;

} // namespace

int CompilerSession::transferSeedFor(const std::string &Key) {
  std::string Group, Body;
  if (!splitTransferKey(Key, Group, Body))
    return -1;
  // A quarter-ish of the serialization may differ and still count as
  // "near": generous, because a wrong-but-in-range seed only costs one
  // extra scored candidate — it can never change the winner.
  size_t Cutoff = std::max<size_t>(8, Body.size() / 10);
  std::lock_guard<std::mutex> Lock(TransferMu);
  auto It = TransferIndex.find(Group);
  if (It == TransferIndex.end())
    return -1;
  size_t BestDistance = Cutoff + 1;
  int BestSeed = -1;
  for (const auto &[NeighborBody, Winner] : It->second) {
    size_t D = structuralDistance(Body, NeighborBody, Cutoff);
    if (D < BestDistance) { // Strict: ties keep the first in body order.
      BestDistance = D;
      BestSeed = Winner;
    }
  }
  return BestDistance <= Cutoff ? BestSeed : -1;
}

void CompilerSession::recordTransferWinner(const std::string &Key,
                                           const KernelReport &Report) {
  if (Report.BestCandidateIndex < 0)
    return; // Fallback report — no candidate space to seed from.
  std::string Group, Body;
  if (!splitTransferKey(Key, Group, Body))
    return;
  std::lock_guard<std::mutex> Lock(TransferMu);
  std::map<std::string, int> &G = TransferIndex[Group];
  if (G.size() >= TransferGroupCap && !G.count(Body))
    return;
  G[Body] = Report.BestCandidateIndex;
}

CompileOptions CompilerSession::optionsWithSeed(const CompileOptions &Base,
                                                const std::string &Key) {
  CompileOptions Opts = Base;
  if (Opts.SeedCandidate < 0) {
    int Seed = transferSeedFor(Key);
    if (Seed >= 0) {
      Opts.SeedCandidate = Seed;
      TransferSeedsCount.fetch_add(1);
    }
  }
  return Opts;
}

//===----------------------------------------------------------------------===//
// The unified surface: one resolve, one miss body
//===----------------------------------------------------------------------===//

KernelReport CompilerSession::compile(const CompileRequest &Request,
                                      bool *ComputedHere) {
  std::atomic<size_t> Fresh{0};
  CompileJob Job = dispatch(Request, Request.cacheKey(), nullptr, &Fresh,
                            /*Inline=*/true);
  if (ComputedHere)
    *ComputedHere = Fresh.load() != 0;
  return Job.get();
}

CompileJob CompilerSession::compileAsync(CompileRequest Request) {
  return dispatch(Request, Request.cacheKey(), nullptr, nullptr,
                  /*Inline=*/false);
}

CompileJob CompilerSession::compileAsyncThen(CompileRequest Request,
                                             JobCallback OnDone) {
  return dispatch(Request, Request.cacheKey(), std::move(OnDone), nullptr,
                  /*Inline=*/false);
}

void CompilerSession::jobFinished() {
  // Pair the decrement with the quiesce cv so a waiter parked on an
  // empty queue (job running on a worker, or a continuation pending on
  // another thread's compile) wakes promptly — and exactly once, when
  // the count actually reaches zero.
  if (InFlight.fetch_sub(1) == 1) {
    { std::lock_guard<std::mutex> Lock(QuiesceMu); }
    QuiesceCv.notify_all();
  }
}

CompileJob CompilerSession::dispatch(const CompileRequest &Request,
                                     std::string Key, JobCallback Finish,
                                     std::atomic<size_t> *FreshCounter,
                                     bool Inline) {
  double T0 = steadyNowSeconds();
  // Count an async job before resolving: a registered continuation may
  // fire (and decrement) the instant the cache lock is released.
  if (!Inline)
    InFlight.fetch_add(1);
  KernelCache::ResolveKind Kind;
  std::shared_future<KernelReport> Fut;
  MissSink Sink;
  obs::SpanContext ResolveCtx;
  {
    // One span covers the resolve decision and closes before any miss
    // body opens; its context is what the compile span and join
    // continuations parent to — the cross-thread links of the request
    // tree.
    obs::Span Resolve("cache_resolve");
    ResolveCtx = Resolve.context();
    if (Request.Options.Policy == CachePolicy::Bypass) {
      // Never touches the cache: a private promise backs the job.
      Sink.Private = std::make_shared<std::promise<KernelReport>>();
      Fut = Sink.Private->get_future().share();
      Kind = KernelCache::ResolveKind::MustCompute;
    } else {
      if (Request.Options.Policy == CachePolicy::Refresh)
        // Ready entries are dropped and recompiled; an in-flight compile
        // is left alone (it is fresh enough, and erasing it would break
        // the single-flight invariant its winner relies on).
        Cache.eraseReady(Key);
      // An async join registers a continuation the winner's drain fires,
      // parented to this span; no thread blocks waiting for it. A
      // blocking join registers nothing and waits on the future below.
      KernelCache::Waiter Continuation;
      if (!Inline)
        Continuation = [this, Finish, ResolveCtx,
                        T0](const KernelReport *Report,
                            std::exception_ptr Error) {
          // The span closes before jobFinished(): the decrement to zero
          // releases stop()'s quiesce() wait, after which the trace
          // recorder is torn down (its destructor waits out open spans).
          {
            obs::Span Resume("join_resume", ResolveCtx);
            if (Finish)
              Finish(Report, Error, /*Computed=*/false);
            JoinLatencyHist.record(steadyNowSeconds() - T0);
          }
          if (Finish)
            jobFinished();
        };
      Kind = Cache.resolveThen(Key, std::move(Continuation), &Fut,
                               &Sink.Ticket);
    }
    switch (Kind) {
    case KernelCache::ResolveKind::Ready:
      InlineReadyHitsCount.fetch_add(1);
      Resolve.annotate("outcome", "hit");
      break;
    case KernelCache::ResolveKind::Joined:
      ContinuationJoinsCount.fetch_add(1);
      Resolve.annotate("outcome", "join");
      break;
    case KernelCache::ResolveKind::MustCompute:
      FreshDispatchesCount.fetch_add(1);
      Resolve.annotate("outcome", Sink.Private ? "bypass" : "miss");
      break;
    }
  }

  switch (Kind) {
  case KernelCache::ResolveKind::Ready:
    // Warm hit: resolves on the calling thread — a whole warm model's
    // worth of requests costs zero pool tasks.
    if (Finish)
      Finish(&Fut.get(), nullptr, /*Computed=*/false);
    WarmLatencyHist.record(steadyNowSeconds() - T0);
    if (!Inline)
      jobFinished();
    break;
  case KernelCache::ResolveKind::Joined:
    if (Inline) {
      Fut.wait(); // get() rethrows the winner's failure to the caller.
      JoinLatencyHist.record(steadyNowSeconds() - T0);
    } else if (!Finish) {
      jobFinished(); // Future-only join: nothing left pending here.
    }
    break;
  case KernelCache::ResolveKind::MustCompute:
    if (Inline) {
      // The caller's own thread does the work: no pool hop on the path
      // every blocking miss (and every peer-served fetch) takes.
      runMiss(Request, Key, Sink, Finish, FreshCounter, ResolveCtx, T0);
    } else {
      Pool->submit([this, Request, Key, Sink = std::move(Sink),
                    Finish = std::move(Finish), FreshCounter, ResolveCtx,
                    T0]() mutable {
        // runMiss closes every span it opens before returning, so none
        // outlives the jobFinished() below (see the continuation above).
        runMiss(Request, Key, Sink, Finish, FreshCounter, ResolveCtx, T0);
        jobFinished();
      });
    }
    break;
  }
  return CompileJob(std::move(Key), std::move(Fut));
}

void CompilerSession::runMiss(const CompileRequest &Request,
                              const std::string &Key, MissSink &Sink,
                              const JobCallback &Finish,
                              std::atomic<size_t> *FreshCounter,
                              const obs::SpanContext &Parent, double T0) {
  obs::Span CompileSpan("compile", Parent);
  std::optional<KernelReport> Report;
  std::exception_ptr Error;
  bool Computed = false;
  try {
    // The fleet first: a same-fingerprint peer that already tuned this
    // key hands the report over in milliseconds. A peer-served report
    // publishes like a local one — every joined waiter resolves — but
    // Computed stays false, FreshCounter is untouched, and the observer
    // never fires (no echo back to peers). Refresh skips the probe (it
    // asked for a fresh local tune), and Bypass never consults it.
    if (Request.Options.Policy == CachePolicy::Default)
      if (ColdMissFetcher Fetch = missFetcher()) {
        obs::Span PeerFetch("peer_fetch");
        Report = Fetch(Key);
        PeerFetch.annotate("hit", Report ? 1 : 0);
      }
    if (!Report) {
      obs::Span Codegen("codegen");
      Report = Request.Work.compileWith(*Request.Backend, tuningPool(),
                                        optionsWithSeed(Request.Options, Key));
      Computed = true;
    }
  } catch (...) {
    Error = std::current_exception();
  }
  if (Report) {
    // Counted before publishing: a caller joining this job reads the
    // count as soon as the report is visible.
    if (Computed && FreshCounter)
      FreshCounter->fetch_add(1);
    recordTransferWinner(Key, *Report);
    if (Sink.Private) {
      Sink.Private->set_value(*Report);
    } else {
      {
        obs::Span Fulfill("fulfill");
        Cache.fulfill(Key, Sink.Ticket, *Report);
      }
      if (Computed)
        if (CompileObserver Notify = compileObserver())
          Notify(Key, *Report);
    }
  } else if (Sink.Private) {
    Sink.Private->set_exception(Error);
  } else {
    // fail() evicts the entry before publishing, so the key stays
    // retryable instead of poisoned.
    Cache.fail(Key, Sink.Ticket, Error);
  }
  if (Finish)
    Finish(Report ? &*Report : nullptr, Error, Computed);
  // Every miss is the cold path, a peer-served one included.
  ColdLatencyHist.record(steadyNowSeconds() - T0);
}

void CompilerSession::quiesce() {
  // Help drain queued work from the calling thread first.
  while (InFlight.load() != 0 && Pool->runOne()) {
  }
  // Whatever remains is running on workers or pending as continuations of
  // someone else's compile. Park untimed: every finishing job runs
  // jobFinished(), whose decrement-to-zero is published under QuiesceMu
  // before the notify — exact wakeup, no timed polling.
  std::unique_lock<std::mutex> Lock(QuiesceMu);
  QuiesceCv.wait(Lock, [this] { return InFlight.load() == 0; });
}

std::vector<CompileJob>
CompilerSession::compileAllAsync(std::vector<CompileRequest> Requests) {
  std::vector<CompileJob> Jobs;
  Jobs.reserve(Requests.size());
  for (CompileRequest &R : Requests)
    Jobs.push_back(compileAsync(std::move(R)));
  return Jobs;
}

ModelCompileResult CompilerSession::compileModel(const Model &M,
                                                 const std::string &TargetId,
                                                 const CompileOptions &Options) {
  return compileModel(M, *TargetRegistry::instance().get(TargetId), Options);
}

ModelCompileResult
CompilerSession::compileModel(const Model &M, const TargetBackend &Backend,
                              const CompileOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  ModelCompileResult Result;
  TargetBackendRef Borrowed = borrow(Backend);

  // Canonical key per layer; isomorphic layers (and layers compiled by a
  // previous model on the same backend) collapse onto one cache entry.
  std::vector<std::string> Keys;
  Keys.reserve(M.Convs.size());
  std::unordered_map<std::string, size_t> FirstLayerOf;
  std::vector<size_t> DistinctLayers; ///< Index of each key's first layer.
  for (size_t I = 0; I < M.Convs.size(); ++I) {
    Keys.push_back(
        CompileRequest(Workload::conv2d(M.Convs[I]), Borrowed, Options)
            .cacheKey());
    if (FirstLayerOf.emplace(Keys.back(), I).second)
      DistinctLayers.push_back(I);
  }
  Result.DistinctShapes = DistinctLayers.size();

  // Only entries that existed before this call count as hits; intra-model
  // duplicates of a cold shape are deduplicated work, not cache hits. A
  // refreshing compile is about to drop those entries (and a bypassing
  // one ignores them), so both report zero.
  if (Options.Policy == CachePolicy::Default)
    for (const std::string &Key : Keys)
      if (Cache.contains(Key))
        ++Result.CacheHitLayers;

  // Compile every distinct shape into a local key -> report map — cache
  // policy (including Bypass) is handled per request. Holding the
  // reports locally keeps the per-layer fan-out independent of the
  // cache, so LRU caps smaller than the model and concurrent clear()s
  // can never force a mid-collection re-tune.
  std::unordered_map<std::string, KernelReport> Reports;
  Reports.reserve(DistinctLayers.size());
  std::atomic<size_t> FreshCompiles{0};
  // Submit all, then join: with shape parallelism, distinct shapes tune
  // concurrently on the pool and this thread helps drain pending tasks
  // while joining, so a small pool still tunes caller+workers wide.
  // Without it, each shape compiles inline, in layer order.
  bool Inline = !Config.ParallelShapes || DistinctLayers.size() <= 1;
  std::vector<CompileJob> Jobs;
  Jobs.reserve(DistinctLayers.size());
  for (size_t LayerIndex : DistinctLayers)
    Jobs.push_back(
        dispatch(CompileRequest(Workload::conv2d(M.Convs[LayerIndex]),
                                Borrowed, Options),
                 Keys[LayerIndex], nullptr, &FreshCompiles, Inline));
  // Join *every* job before any rethrow: in-flight tasks hold a
  // non-owning reference to the caller's backend, so unwinding while
  // they still run would dangle it.
  std::exception_ptr FirstFailure;
  for (size_t Slot = 0; Slot < Jobs.size(); ++Slot) {
    while (!Jobs[Slot].ready() && Pool->runOne()) {
    }
    try {
      Reports.emplace(Keys[DistinctLayers[Slot]], Jobs[Slot].get());
    } catch (...) {
      if (!FirstFailure)
        FirstFailure = std::current_exception();
    }
  }
  if (FirstFailure)
    std::rethrow_exception(FirstFailure);
  Result.FreshCompiles = FreshCompiles.load();

  Result.Layers.reserve(M.Convs.size());
  for (const std::string &Key : Keys)
    Result.Layers.push_back(Reports.at(Key));

  Result.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}

//===----------------------------------------------------------------------===//
// Cache persistence
//===----------------------------------------------------------------------===//

std::string CompilerSession::persistenceFingerprint() {
  std::vector<std::string> Salts;
  for (const TargetBackendRef &B : TargetRegistry::instance().all())
    Salts.push_back(B->cacheSalt());
  std::sort(Salts.begin(), Salts.end());
  // Persisted reports depend on the tuner's candidate spaces as much as
  // on machine parameters, so the space sizes are folded in — a build
  // that widens either space rejects older files. The "-v1" tag must be
  // bumped by hand when the cost model or search semantics change in a
  // way the space sizes don't reflect.
  std::string Fp = "unit-kernel-cache-fp-v1|cpu-space:" +
                   std::to_string(defaultCpuTuningPairs().size()) +
                   "|gpu-space:" +
                   std::to_string(defaultGpuTuningConfigs().size());
  for (const std::string &Salt : Salts)
    Fp += ";" + Salt;
  return Fp;
}

std::optional<size_t>
CompilerSession::saveCache(const std::string &Path) const {
  return Cache.saveFile(Path, persistenceFingerprint());
}

KernelCache::LoadResult CompilerSession::loadCache(const std::string &Path) {
  return Cache.loadFile(Path, persistenceFingerprint());
}
