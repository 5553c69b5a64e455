//===- perfbench/gen/Workloads.cpp -----------------------------------------===//
//
// Every workload is closed-loop: a caller sends its next request only
// after the previous reply. The generator uses at most two connections
// and at most four threads of its own; daemons run a pool of
// min(nproc, 4) threads.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Layers.h"

#include "models/ModelZoo.h"
#include "runtime/CompilerSession.h"
#include "runtime/Workload.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "tuner/Tuner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

using namespace unit;

namespace perfbench {

namespace {

/// In-process session pool: the session default (one per core). Daemon
/// pools get one thread per CPU they are pinned to (at most 4).
unsigned poolThreads(const RunConfig &C) {
  if (!C.DaemonCpus.empty())
    return static_cast<unsigned>(C.DaemonCpus.size());
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

/// Times of one measured window of a workload.
struct Phase {
  std::vector<double> LatMs;
  uint64_t Ops = 0;
  double WallS = 0, GenCpuS = 0, DaemonCpuS = 0;
};

std::map<std::string, double> endToEnd(const Phase &P) {
  double Ops = static_cast<double>(std::max<uint64_t>(P.Ops, 1));
  return {{"op_ms.p50", quantile(P.LatMs, 0.50)},
          {"op_ms.p90", quantile(P.LatMs, 0.90)},
          {"ops_per_s", P.WallS > 0 ? static_cast<double>(P.Ops) / P.WallS : 0},
          {"cpu_ms_per_op", (P.GenCpuS + P.DaemonCpuS) * 1e3 / Ops}};
}

/// Adds the window \p From to \p To: a measurement taken in parts.
void append(Phase &To, const Phase &From) {
  To.LatMs.insert(To.LatMs.end(), From.LatMs.begin(), From.LatMs.end());
  To.Ops += From.Ops;
  To.WallS += From.WallS;
  To.GenCpuS += From.GenCpuS;
  To.DaemonCpuS += From.DaemonCpuS;
}

void addEndToEnd(Result &R, double SetupS, double PeakMb, const Phase &P) {
  std::map<std::string, double> V = endToEnd(P);
  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", PeakMb, "MB");
  R.add("op_ms.p50", V["op_ms.p50"], "ms");
  R.add("op_ms.p90", V["op_ms.p90"], "ms");
  R.add("ops_per_s", V["ops_per_s"], "1/s");
  R.add("cpu_ms_per_op", V["cpu_ms_per_op"], "ms");
}

std::map<std::string, double> overhead(const Phase &Traced,
                                       const Phase &Untraced) {
  std::map<std::string, double> T = endToEnd(Traced), U = endToEnd(Untraced);
  std::map<std::string, double> Out;
  for (const auto &[Name, V] : T)
    Out[Name] = U[Name] > 0 ? V / U[Name] : 0;
  return Out;
}

template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(Rng.uniform(
                            0, static_cast<int64_t>(I) - 1))]);
}

const KernelReport *golden(const RunConfig &C, const std::string &Target,
                           const std::string &Model, size_t Layer) {
  auto T = C.Golden.find(Target);
  if (T == C.Golden.end())
    return nullptr;
  auto M = T->second.find(Model);
  if (M == T->second.end() || Layer >= M->second.size())
    return nullptr;
  return &M->second[Layer];
}

/// True when \p Got equals the golden report of (\p Target, \p Model,
/// \p Layer); a mismatch is noted in \p R.
bool matchesGolden(Result &R, const RunConfig &C, const std::string &Target,
                   const std::string &Model, size_t Layer,
                   const KernelReport &Got) {
  const KernelReport *Want = golden(C, Target, Model, Layer);
  if (Want && sameReport(*Want, Got))
    return true;
  if (R.Notes.size() < 8)
    R.Notes.push_back(formatStr("golden mismatch: %s %s layer %zu",
                                Target.c_str(), Model.c_str(), Layer));
  return false;
}

/// The interpreter cross-check over a seeded sample of \p Layers, one
/// attempted op per layer.
void interpSample(Result &R, const std::vector<ConvLayer> &Layers,
                  const std::string &Target, size_t Count, SplitMix64 &Rng) {
  std::vector<ConvLayer> Pool;
  for (const ConvLayer &L : Layers)
    if (!L.Depthwise)
      Pool.push_back(L);
  shuffle(Pool, Rng);
  for (size_t I = 0; I < std::min(Count, Pool.size()); ++I) {
    std::string Why;
    bool Ok = interpCheck(Pool[I], Target, Rng.next(), Why);
    R.check(Ok, Why);
  }
}

/// Key pairs for the structural-distance timing: each of \p Probe against
/// a seeded sample of \p Index, as the session's transfer scan pairs them.
std::vector<std::pair<std::string, std::string>>
keyPairs(const std::vector<std::string> &Probe,
         const std::vector<std::string> &Index, SplitMix64 &Rng) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (size_t I = 0; I < 400 && !Probe.empty() && !Index.empty(); ++I)
    Out.push_back(
        {Probe[static_cast<size_t>(Rng.uniform(
             0, static_cast<int64_t>(Probe.size()) - 1))],
         Index[static_cast<size_t>(
             Rng.uniform(0, static_cast<int64_t>(Index.size()) - 1))]});
  return Out;
}

std::vector<std::string> keysOf(const std::vector<ConvLayer> &Layers) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  std::vector<std::string> Out;
  for (const ConvLayer &L : Layers)
    Out.push_back(Workload::conv2d(L).cacheKey(*X86));
  return Out;
}

/// Pipeline, structural-distance and JSON timings over a workload's own
/// shapes (capped at 24 so the traced run stays short).
void timeLayers(LayerReport &L, std::vector<ConvLayer> Shapes,
                const std::vector<ConvLayer> &IndexShapes,
                const std::vector<KernelReport> &Reports, SplitMix64 &Rng) {
  shuffle(Shapes, Rng);
  if (Shapes.size() > 24)
    Shapes.resize(24);
  L.Pipeline = timePipeline(Shapes);
  L.StructuralDistanceUs = timeStructuralDistanceUs(
      keyPairs(keysOf(Shapes), keysOf(IndexShapes), Rng));
  timeJson(Shapes, Reports, L.JsonParseUs, L.JsonDumpUs);
}

//===----------------------------------------------------------------------===//
// Daemon plumbing
//===----------------------------------------------------------------------===//

/// A ready-to-serve persisted cache of the nine zoo models on x86 — what
/// a long-lived daemon restarts from.
std::string writeZooCache(const RunConfig &C) {
  CompilerSession Session;
  for (const Model &M : paperModels())
    Session.compileModel(M, "x86");
  std::string Path = C.WorkDir + "/zoo.kc";
  Session.saveCache(Path);
  return Path;
}

bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  Out << In.rdbuf();
  return In.good() && Out.good();
}

struct DaemonOptions {
  std::string Name;
  bool Traced = false;
  std::string ZooCache; ///< Copied to a private file and loaded, if set.
  std::vector<std::string> Extra;
};

/// Starts \p D and returns its start-to-ready seconds (spawn, cache load,
/// first hello answered), or a negative value on failure. Each start
/// loads a private copy of the zoo cache, so a daemon never sees what an
/// earlier one persisted.
double startDaemon(Daemon &D, const RunConfig &C, const DaemonOptions &O) {
  std::string Socket = C.WorkDir + "/" + O.Name + ".sock";
  std::vector<std::string> Args = {"--socket", Socket, "--threads",
                                   std::to_string(poolThreads(C)),
                                   "--persist-interval", "0"};
  if (!O.Traced)
    Args.push_back("--no-trace");
  if (!O.ZooCache.empty()) {
    std::string Private = C.WorkDir + "/" + O.Name + ".kc";
    if (!copyFile(O.ZooCache, Private))
      return -1;
    Args.push_back("--cache");
    Args.push_back(Private);
  }
  Args.insert(Args.end(), O.Extra.begin(), O.Extra.end());
  double T0 = nowSeconds();
  if (!D.start(C.ServeExe, Args, Socket, C.DaemonCpus))
    return -1;
  return nowSeconds() - T0;
}

std::optional<Json> controlRequest(const std::string &Socket,
                                   const char *Type) {
  Conn C;
  if (!C.connect(Socket))
    return std::nullopt;
  return C.request(message(Type));
}

double field(const std::optional<Json> &J, const char *Section,
             const char *Key) {
  if (!J)
    return 0;
  const Json *S = Section ? J->get(Section) : &*J;
  return S ? S->num(Key) : 0;
}

/// Mean of a metrics-reply histogram family, microseconds.
double histMeanUs(const std::optional<Json> &Metrics, const char *Family) {
  const Json *H = Metrics ? Metrics->get("histograms") : nullptr;
  const Json *F = H ? H->get(Family) : nullptr;
  if (!F || F->num("count") <= 0)
    return 0;
  return F->num("sum") / F->num("count") * 1e6;
}

/// Starts the daemon set \p O into \p Out, stopping whatever \p Out held,
/// and stores the start-to-ready time summed over the set in \p Seconds.
/// \p Link adjusts a later daemon's options once the first is up.
using Daemons = std::vector<std::unique_ptr<Daemon>>;
using LinkFn = std::function<void(std::vector<DaemonOptions> &, const Daemon &)>;

bool startSet(const RunConfig &C, Daemons &Out,
              std::vector<DaemonOptions> O, const LinkFn &Link,
              double *Seconds = nullptr) {
  Out.clear();
  double Total = 0;
  for (size_t I = 0; I < O.size(); ++I) {
    if (I > 0 && Link)
      Link(O, *Out[0]);
    Out.push_back(std::make_unique<Daemon>());
    double S = startDaemon(*Out.back(), C, O[I]);
    if (S < 0)
      return false;
    Total += S;
  }
  if (Seconds)
    *Seconds = Total;
  return true;
}

double daemonCpu(const std::vector<std::unique_ptr<Daemon>> &Ds) {
  double S = 0;
  for (const auto &D : Ds)
    S += processCpuSeconds(D->pid());
  return S;
}

/// Peak resident set of the system under test: the daemons (the
/// generator's own buffers grow with the sample count, so it is left out).
double peakRss(const std::vector<std::unique_ptr<Daemon>> &Ds) {
  double Mb = 0;
  for (const auto &D : Ds)
    Mb += peakRssMb(D->pid());
  return Mb;
}

/// A resnet-50 layer cycle for warm hits, starting at a seeded offset.
struct WarmCycle {
  Model R50 = makeResnet50();
  size_t Next;
  explicit WarmCycle(SplitMix64 &Rng)
      : Next(static_cast<size_t>(Rng.uniform(0, 1000))) {}
  size_t take() { return Next++ % R50.Convs.size(); }
};

/// One blocking warm hit on \p Conn: returns the RTT in microseconds, or
/// a negative value after recording a failed op.
double warmHit(const RunConfig &C, Conn &Link, WarmCycle &Cycle,
               std::atomic<uint64_t> &Failed) {
  size_t I = Cycle.take();
  Json Msg = compileMessage("compile", "x86", Cycle.R50.Convs[I]);
  double T0 = nowSeconds();
  std::optional<Json> Reply = Link.request(Msg);
  double Us = (nowSeconds() - T0) * 1e6;
  std::optional<KernelReport> Got = Reply ? reportOf(*Reply) : std::nullopt;
  const KernelReport *Want = golden(C, "x86", Cycle.R50.Name, I);
  if (!Got || !Want || !sameReport(*Got, *Want) ||
      !Reply->boolean("cached")) {
    Failed.fetch_add(1);
    return -1;
  }
  return Us;
}

/// How a daemon workload plugs into runDaemons().
struct DaemonWorkload {
  std::vector<DaemonOptions> Set; ///< Started in order.
  LinkFn Link;
  /// Untimed preparation of a freshly started set.
  std::function<void(Daemons &)> Prepare;
  /// One measured window: closed-loop load until \p Budget seconds have
  /// passed, or, when \p Capped, a fixed small op count that keeps every
  /// daemon trace ring from wrapping. Fills the phase's latencies, ops and
  /// wall time; runDaemons() adds the CPU times.
  std::function<void(Daemons &, Phase &, double Budget, bool Capped)> Measure;
  size_t StatsDaemon = 0; ///< Whose stats and metrics feed the split.
  /// Read peak RSS after Prepare rather than after the untraced window.
  bool RssAfterPrepare = false;
};

/// What runDaemons() measured.
struct DaemonRun {
  double SetupS = 0, PeakMb = 0;
  Phase Untraced, Capped, Traced;
};

/// The procedure every daemon workload shares. Untraced runs measure a
/// window of --seconds on --no-trace daemons, in five parts. Set-up is the
/// median start-to-ready time (spawn, cache load, first hello answered)
/// of the measured set and of spare copies of it, started and stopped
/// again before each part and after the last: a start takes a few
/// milliseconds and the host's speed moves from second to second, so the
/// samples are spread over the window rather than taken in one burst.
/// The first spare start after a part is not counted: it read up to twice
/// the others.
/// Traced runs measure half a window there, then start a tracing set and
/// measure a capped window, whose spans and counter deltas give the layer
/// split, and half a window more, whose ratio to the untraced half is the
/// tracing overhead.
bool runDaemons(Result &R, const RunConfig &C, DaemonWorkload &W,
                DaemonRun &Out, LayerReport &L) {
  Daemons Ds;
  std::vector<double> Starts(1);
  if (!startSet(C, Ds, W.Set, W.Link, &Starts[0])) {
    R.fail("daemon failed to start");
    return false;
  }
  std::vector<DaemonOptions> Spare = W.Set;
  for (DaemonOptions &O : Spare)
    O.Name += "-spare";
  auto SampleStarts = [&] {
    for (int I = 0; I < 4; ++I) {
      Daemons Set;
      double S = 0;
      if (!startSet(C, Set, Spare, W.Link, &S)) {
        R.fail("spare daemon failed to start");
        return false;
      }
      if (I > 0)
        Starts.push_back(S);
    }
    return true;
  };

  auto Measure = [&](Daemons &Set, Phase &P, double Budget, bool Capped) {
    double Cpu0 = processCpuSeconds(::getpid()), DCpu0 = daemonCpu(Set);
    W.Measure(Set, P, Budget, Capped);
    P.GenCpuS = processCpuSeconds(::getpid()) - Cpu0;
    P.DaemonCpuS = daemonCpu(Set) - DCpu0;
  };
  W.Prepare(Ds);
  if (W.RssAfterPrepare)
    Out.PeakMb = peakRss(Ds);
  const int Parts = 5;
  double Window = C.Trace ? C.Seconds / 2 : C.Seconds;
  for (int I = 0; I < Parts; ++I) {
    if (!SampleStarts())
      return false;
    Phase Part;
    Measure(Ds, Part, Window / Parts, false);
    append(Out.Untraced, Part);
  }
  if (!SampleStarts())
    return false;
  Out.SetupS = median(Starts);
  if (!W.RssAfterPrepare)
    Out.PeakMb = peakRss(Ds);
  if (!C.Trace)
    return true;

  std::vector<DaemonOptions> Traced = W.Set;
  for (DaemonOptions &O : Traced) {
    O.Traced = true;
    O.Name += "-traced";
  }
  if (!startSet(C, Ds, Traced, W.Link)) {
    R.fail("traced daemon failed to start");
    return false;
  }
  W.Prepare(Ds);
  const std::string &Socket = Ds[W.StatsDaemon]->socket();
  std::optional<Json> S0 = controlRequest(Socket, "stats");
  uint64_t FromUs = static_cast<uint64_t>(nowSeconds() * 1e6);
  Measure(Ds, Out.Capped, 0, true);
  std::optional<Json> S1 = controlRequest(Socket, "stats");
  for (const auto &D : Ds) {
    std::optional<Json> Dump = controlRequest(D->socket(), "dump_trace");
    if (!Dump) {
      R.fail("dump_trace failed");
      continue;
    }
    // Counted over the whole dump: a ring that filled may have dropped
    // spans, which fails the run rather than reporting a partial split.
    TraceSummary S = summarize(spansOf(*Dump), FromUs);
    if (S.MaxEventsPerThread >= defaultTraceSlots())
      R.fail("a daemon trace ring filled; spans may have been dropped");
    merge(L.Trace, S);
  }
  Measure(Ds, Out.Traced, C.Seconds / 2, false);
  std::optional<Json> Metrics = controlRequest(Socket, "metrics");

  auto Delta = [&](const char *Section, const char *Key) {
    return field(S1, Section, Key) - field(S0, Section, Key);
  };
  L.Ops = static_cast<double>(std::max<uint64_t>(Out.Capped.Ops, 1));
  L.TunerInvocations = Delta(nullptr, "tuner_invocations") / L.Ops;
  double Scored = Delta("tuner", "candidates_scored");
  double Pruned = Delta("tuner", "pruned_candidates");
  L.ScoredShare = Scored + Pruned > 0 ? Scored / (Scored + Pruned) : 0;
  L.TransferSeeds = Delta("tuner", "transfer_seeds") / L.Ops;
  double Hits = Delta("cache", "hits"), Misses = Delta("cache", "misses");
  L.CacheHitShare = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  L.CacheEvictions = Delta("cache", "evictions") / L.Ops;
  L.FetchHits = Delta("fabric", "fetch_hits");
  L.FrameUs = histMeanUs(Metrics, "unit_frame_seconds");
  L.PeerFetchRttUs = histMeanUs(Metrics, "unit_peer_fetch_seconds");
  L.WarmResolveUs = histMeanUs(Metrics, "unit_compile_warm_seconds");
  L.ClientRttUs = mean(Out.Traced.LatMs) * 1e3;
  L.GeneratorCpuS = Out.Traced.GenCpuS;
  L.DaemonCpuS = Out.Traced.DaemonCpuS;
  L.Overhead = overhead(Out.Traced, Out.Untraced);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// zoo-cold
//===----------------------------------------------------------------------===//

Result runZooCold(const RunConfig &C, Json &Params) {
  Result R;
  SplitMix64 Rng(C.Seed);

  // Set-up: what a cold process does before its first tune — build the
  // nine model graphs, start a session, and derive the cache key of every
  // zoo layer on a freshly materialized backend per target (backends
  // memoize keys, so the registry's own would answer from the memo after
  // the first pass). One sample takes about 10 ms and the host's speed
  // moves from second to second, so three are taken here and three after
  // every untraced pass, outside the pass timing; setup_s is their median.
  SessionConfig Cfg;
  Cfg.Threads = poolThreads(C);
  std::vector<double> SetupS;
  auto SampleSetUp = [&] {
    for (int I = 0; I < 3; ++I) {
      double T0 = nowSeconds();
      std::vector<Model> Models = paperModels();
      CompilerSession Session(Cfg);
      for (const std::string &T : zooTargets()) {
        TargetSpec Spec = TargetRegistry::instance().specFor(T);
        std::unique_ptr<TargetBackend> Fresh;
        if (Spec.Engine == TargetSpec::EngineKind::CpuDot)
          Fresh = std::make_unique<CpuBackend>(Spec);
        else
          Fresh = std::make_unique<GpuBackend>(Spec);
        for (const Model &M : Models)
          for (const ConvLayer &L : M.Convs)
            Workload::conv2d(L).cacheKey(*Fresh);
      }
      SetupS.push_back(nowSeconds() - T0);
    }
  };
  SampleSetUp();
  std::vector<Model> Models = paperModels();
  std::map<std::string, size_t> Distinct;
  size_t X86Tunable = 0;
  for (const std::string &T : zooTargets()) {
    std::vector<ZooKernel> Ks = distinctZooKernels(T);
    Distinct[T] = Ks.size();
    if (T == "x86")
      for (const ZooKernel &K : Ks)
        if (const KernelReport *G = golden(C, T, K.Model, K.LayerIndex))
          X86Tunable += G->BestCandidateIndex >= 0;
  }

  // One pass: every target in registry order, each on a fresh session,
  // every model in paper order. The order is fixed on purpose: it decides
  // which winners seed later searches through the transfer index, and so
  // each model's latency; a seeded order made op_ms.p50 depend on the
  // seed. The last pass's reports are kept for the sequential comparison.
  std::map<std::string, std::map<std::string, std::vector<KernelReport>>> Last;
  std::vector<uint64_t> X86Invocations;
  uint64_t Hits = 0, Misses = 0, Evictions = 0, Seeds = 0;
  auto RunPass = [&](Phase &P) {
    for (const std::string &T : zooTargets()) {
      CompilerSession Session(Cfg);
      uint64_t Inv0 = tunerInvocations();
      size_t Fresh = 0;
      for (const Model &M : Models) {
        double T0 = nowSeconds();
        ModelCompileResult MR;
        {
          obs::Span Root("model_compile");
          MR = Session.compileModel(M, T);
        }
        P.LatMs.push_back((nowSeconds() - T0) * 1e3);
        ++P.Ops;
        ++R.Attempted;
        bool Ok = MR.Layers.size() == M.Convs.size();
        for (size_t L = 0; L < MR.Layers.size(); ++L)
          Ok &= matchesGolden(R, C, T, M.Name, L, MR.Layers[L]);
        R.Failed += !Ok;
        Fresh += MR.FreshCompiles;
        Last[T][M.Name] = MR.Layers;
      }
      if (Fresh != Distinct[T])
        R.fail(formatStr("%s: %zu fresh kernels, %zu distinct keys",
                         T.c_str(), Fresh, Distinct[T]));
      if (T == "x86")
        X86Invocations.push_back(tunerInvocations() - Inv0);
      KernelCache::CacheStats S = Session.cache().stats();
      Hits += S.Hits;
      Misses += S.Misses;
      Evictions += S.Evictions;
      Seeds += Session.sessionStats().TransferSeeds;
    }
  };
  auto RunPhase = [&](Phase &P, double Budget, int MinPasses,
                      bool SetUpSamples) {
    double Start = nowSeconds();
    int Passes = 0;
    while (Passes < MinPasses || nowSeconds() - Start < Budget) {
      double T0 = nowSeconds(), Cpu0 = processCpuSeconds(::getpid());
      RunPass(P);
      P.WallS += nowSeconds() - T0;
      P.GenCpuS += processCpuSeconds(::getpid()) - Cpu0;
      ++Passes;
      if (SetUpSamples)
        SampleSetUp();
    }
    return Passes;
  };

  Phase Untraced;
  int Passes =
      RunPhase(Untraced, C.Trace ? C.Seconds / 2 : C.Seconds, 1, true);

  // Invariants: identical x86 tuner work every pass, and exactly one
  // search per tunable distinct key.
  for (uint64_t Inv : X86Invocations)
    if (Inv != X86Invocations.front() || Inv != X86Tunable)
      R.fail(formatStr("x86 pass ran %llu tuner invocations, expected %zu",
                       static_cast<unsigned long long>(Inv), X86Tunable));

  // Parallel == sequential byte identity on one seeded target.
  const std::string SeqTarget =
      zooTargets()[C.Seed % zooTargets().size()];
  {
    SessionConfig SeqCfg;
    SeqCfg.ParallelShapes = false;
    SeqCfg.ParallelCandidates = false;
    CompilerSession Seq(SeqCfg);
    for (const Model &M : Models) {
      ModelCompileResult MR = Seq.compileModel(M, SeqTarget);
      const std::vector<KernelReport> &Par = Last[SeqTarget][M.Name];
      bool Same = MR.Layers.size() == Par.size();
      for (size_t L = 0; Same && L < Par.size(); ++L)
        Same = sameReport(MR.Layers[L], Par[L]);
      R.check(Same, SeqTarget + " " + M.Name + ": sequential != parallel");
    }
  }

  // Interpreter cross-check, two seeded layers per CPU target.
  std::vector<ConvLayer> ZooLayers;
  for (const ZooKernel &K : distinctZooKernels("x86"))
    ZooLayers.push_back(K.Layer);
  for (const std::string &T : zooTargets())
    if (T != "nvgpu")
      interpSample(R, ZooLayers, T, 2, Rng);

  Params.set("targets", static_cast<int64_t>(zooTargets().size()));
  Params.set("models", static_cast<int64_t>(Models.size()));
  Params.set("passes", Passes);
  Params.set("pool_threads", static_cast<int64_t>(poolThreads(C)));
  Params.set("x86_distinct_kernels", static_cast<int64_t>(Distinct["x86"]));
  Params.set("x86_tuner_invocations_per_pass",
             static_cast<int64_t>(X86Invocations.front()));
  Params.set("sequential_check_target", SeqTarget);
  double GeoLog = 0;
  size_t Pairs = 0;
  for (const auto &[T, ByModel] : Last)
    for (const auto &[M, Layers] : ByModel) {
      double Sum = 0;
      for (const KernelReport &K : Layers)
        Sum += K.Seconds;
      GeoLog += std::log(Sum * 1e3);
      ++Pairs;
    }
  Params.set("model_latency_geomean_ms", std::exp(GeoLog / Pairs));

  if (!C.Trace) {
    addEndToEnd(R, median(SetupS), peakRssMb(::getpid()), Untraced);
    return R;
  }

  // Traced phase: the same number of passes with an in-process recorder
  // sized so no ring wraps.
  uint64_t Scored0 = tunerCandidatesScored(), Pruned0 = tunerPrunedCandidates();
  Hits = Misses = Evictions = Seeds = 0;
  X86Invocations.clear();
  Phase Traced;
  auto Recorder = std::make_unique<obs::TraceRecorder>(16u << 20);
  obs::setActiveRecorder(Recorder.get());
  RunPhase(Traced, 0, Passes, false);
  obs::clearActiveRecorder(Recorder.get());
  LayerReport L;
  L.Trace = summarize(spansOf(Recorder->snapshot()));
  if (L.Trace.MaxEventsPerThread >= Recorder->slotsPerThread())
    R.fail("trace ring filled; spans may have been dropped");
  L.Ops = static_cast<double>(Traced.Ops);
  L.TunerInvocations = static_cast<double>(X86Invocations.front());
  double Scored = static_cast<double>(tunerCandidatesScored() - Scored0);
  double Pruned = static_cast<double>(tunerPrunedCandidates() - Pruned0);
  L.ScoredShare = Scored + Pruned > 0 ? Scored / (Scored + Pruned) : 0;
  L.TransferSeeds = static_cast<double>(Seeds) / L.Ops;
  L.CacheHitShare = Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
  L.CacheEvictions = static_cast<double>(Evictions) / L.Ops;
  L.GeneratorCpuS = Traced.GenCpuS;
  L.Overhead = overhead(Traced, Untraced);
  std::vector<KernelReport> Reports;
  for (const auto &[M, Layers] : Last["x86"])
    Reports.insert(Reports.end(), Layers.begin(), Layers.end());
  timeLayers(L, ZooLayers, ZooLayers, Reports, Rng);
  addLayerMetrics(R, L);
  return R;
}

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

namespace {

/// Seeded x86 conv shapes near the zoo's: a zoo layer with its spatial
/// extent moved by up to 4 and its channels by up to two blocks, kept
/// only when its cache key is new (not a zoo key, not generated before).
std::vector<ConvLayer> novelShapes(SplitMix64 &Rng, size_t Count) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  std::vector<ConvLayer> Base;
  std::set<std::string> Seen;
  for (const ZooKernel &K : distinctZooKernels("x86")) {
    Seen.insert(K.Key);
    if (!K.Layer.Depthwise)
      Base.push_back(K.Layer);
  }
  std::vector<ConvLayer> Out;
  while (Out.size() < Count) {
    ConvLayer L = Base[static_cast<size_t>(
        Rng.uniform(0, static_cast<int64_t>(Base.size()) - 1))];
    if (L.InH > 1) {
      int64_t Min = std::max(L.KH, L.KW);
      L.InH = std::max(Min, L.InH + Rng.uniform(-4, 4));
      L.InW = std::max(Min, L.InW + Rng.uniform(-4, 4));
    }
    L.InC = std::max<int64_t>(4, L.InC + 8 * Rng.uniform(-2, 2));
    L.OutC = std::max<int64_t>(16, L.OutC + 16 * Rng.uniform(-2, 2));
    L.Name = formatStr("novel.%zu", Out.size());
    if (Seen.insert(Workload::conv2d(L).cacheKey(*X86)).second)
      Out.push_back(L);
  }
  return Out;
}

/// Streams Shapes[Next...] over compile_async with \p Window tickets in
/// flight until \p Deadline, \p Cap results, or the shapes run out,
/// timing submit -> result notification into \p P (when given). Results
/// land in \p Reports by shape index. False on a transport failure.
bool streamCompiles(Result &R, Conn &Link, const std::vector<ConvLayer> &Shapes,
                    size_t &Next, size_t Window, double Deadline, size_t Cap,
                    Phase *P, std::map<size_t, KernelReport> &Reports) {
  struct Pending {
    double T0;
    size_t Shape;
  };
  std::map<int64_t, Pending> ById, ByTicket;
  size_t Submitted = 0;
  auto Submit = [&]() {
    Json Msg = compileMessage("compile_async", "x86", Shapes[Next]);
    ById[Msg.integer("id")] = {nowSeconds(), Next++};
    ++Submitted;
    return Link.send(Msg);
  };
  auto More = [&](double Now) {
    return Now < Deadline && Submitted < Cap && Next < Shapes.size();
  };
  for (size_t I = 0; I < Window && More(nowSeconds()); ++I)
    if (!Submit())
      return false;
  while (!ById.empty() || !ByTicket.empty()) {
    std::optional<Json> F = Link.recv();
    if (!F)
      return false;
    std::string Type = F->str("type");
    if (Type == "submitted") {
      auto It = ById.find(F->integer("id"));
      if (It == ById.end())
        return false;
      ByTicket[F->integer("ticket")] = It->second;
      ById.erase(It);
      continue;
    }
    auto It = ByTicket.find(F->integer("ticket", -1));
    if (Type != "result" || It == ByTicket.end())
      return false;
    double Now = nowSeconds();
    std::optional<KernelReport> Got = reportOf(*F);
    R.check(Got.has_value(), "stream compile failed: " + F->str("error"));
    if (Got)
      Reports[It->second.Shape] = *Got;
    if (P) {
      P->LatMs.push_back((Now - It->second.T0) * 1e3);
      ++P->Ops;
    }
    ByTicket.erase(It);
    if (More(Now) && !Submit())
      return false;
  }
  return true;
}

} // namespace

Result runServeMixed(const RunConfig &C, Json &Params) {
  Result R;
  SplitMix64 Rng(C.Seed);
  const size_t FillCount = 512, Window = 2;
  const size_t StreamCap = 60, WarmCap = 500; // Capped (traced) window.
  std::string Zoo = writeZooCache(C);
  std::vector<ConvLayer> All = novelShapes(Rng, FillCount + 2500);
  std::vector<ConvLayer> Fill(All.begin(), All.begin() + FillCount);
  std::vector<ConvLayer> Stream(All.begin() + FillCount, All.end());
  std::map<size_t, KernelReport> FillReports, StreamReports;
  std::vector<double> WarmUs; // Untraced window only.
  int Prepared = 0;           // 1 while the untraced daemon serves.
  size_t Next = 0;            // Stream shapes are never reused on a daemon.

  DaemonWorkload W;
  W.Set = {{"mixed", false, Zoo, {}}};
  // Each novel compile leaves about 1 KB resident (its cache entry and
  // memoized keys), so the peak after a timed window grows with the
  // window's compile count and a faster compile path would read as a
  // memory regression. Read it after the fill instead: a fixed 512.
  W.RssAfterPrepare = true;
  // Fill the x86 conv transfer group to its 512-entry cap first.
  W.Prepare = [&](Daemons &Ds) {
    ++Prepared;
    Conn Link;
    size_t FillNext = 0;
    if (!Link.connect(Ds[0]->socket()) ||
        !streamCompiles(R, Link, Fill, FillNext, 16, 1e300, SIZE_MAX, nullptr,
                        FillReports))
      R.fail("transfer fill failed");
    for (const auto &[I, Rep] : FillReports)
      if (Rep.BestCandidateIndex < 0)
        R.fail("a fill shape did not tune; the group would stay short");
    Next = 0;
  };
  W.Measure = [&](Daemons &Ds, Phase &P, double Budget, bool Capped) {
    Conn Stream1, Warm2;
    if (!Stream1.connect(Ds[0]->socket()) || !Warm2.connect(Ds[0]->socket())) {
      R.fail("connect failed");
      return;
    }
    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> WarmFailed{0};
    std::vector<double> Us;
    WarmCycle Cycle(Rng);
    std::optional<Json> S0 = controlRequest(Ds[0]->socket(), "stats");
    double Start = nowSeconds();
    std::thread Warm([&] {
      for (size_t N = 0; N < (Capped ? WarmCap : SIZE_MAX) && !Stop.load();
           ++N) {
        double V = warmHit(C, Warm2, Cycle, WarmFailed);
        if (V >= 0)
          Us.push_back(V);
      }
    });
    if (!streamCompiles(R, Stream1, Stream, Next, Window,
                        Capped ? 1e300 : Start + Budget,
                        Capped ? StreamCap : SIZE_MAX, &P, StreamReports))
      R.fail("stream connection failed");
    P.WallS = nowSeconds() - Start;
    Stop.store(true);
    Warm.join();
    std::optional<Json> S1 = controlRequest(Ds[0]->socket(), "stats");
    R.Attempted += Us.size() + WarmFailed.load();
    R.Failed += WarmFailed.load();
    if (Prepared == 1)
      WarmUs.insert(WarmUs.end(), Us.begin(), Us.end());
    // Each streamed shape is novel: exactly one search apiece, and the
    // warm hits none.
    if (field(S1, nullptr, "tuner_invocations") -
            field(S0, nullptr, "tuner_invocations") !=
        static_cast<double>(P.Ops))
      R.fail("a streamed novel shape did not run exactly one search");
  };

  DaemonRun Run;
  LayerReport L;
  if (!runDaemons(R, C, W, Run, L))
    return R;

  // Every served report must equal an independent in-process compile of
  // the same shape (no cache, no transfer seed).
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  auto CheckAgainstLocal = [&](const std::vector<ConvLayer> &Shapes,
                               const std::map<size_t, KernelReport> &Got) {
    for (const auto &[I, Rep] : Got)
      R.check(sameReport(Rep, Workload::conv2d(Shapes[I])
                                  .compileWith(*X86, nullptr,
                                               CompileOptions())),
              "served report differs from a local compile: " +
                  Shapes[I].Name);
  };
  CheckAgainstLocal(Fill, FillReports);
  CheckAgainstLocal(Stream, StreamReports);
  interpSample(R, Stream, "x86", 4, Rng);

  Params.set("fill_shapes", static_cast<int64_t>(FillCount));
  Params.set("window", static_cast<int64_t>(Window));
  Params.set("warm_model", "resnet-50");
  Params.set("pool_threads", static_cast<int64_t>(poolThreads(C)));
  Params.set("stream_compiles", static_cast<int64_t>(Run.Untraced.Ops));
  Params.set("warm_requests", static_cast<int64_t>(WarmUs.size()));
  if (!C.Trace) {
    addEndToEnd(R, Run.SetupS, Run.PeakMb, Run.Untraced);
    return R;
  }
  L.WarmRttP50Us = quantile(WarmUs, 0.50);
  L.WarmRttP99Us = quantile(WarmUs, 0.99);
  L.ClientRttUs = mean(WarmUs);
  std::vector<KernelReport> Reports;
  std::vector<ConvLayer> Streamed;
  for (const auto &[I, Rep] : StreamReports) {
    Reports.push_back(Rep);
    Streamed.push_back(Stream[I]);
  }
  timeLayers(L, Streamed, Fill, Reports, Rng);
  addLayerMetrics(R, L);
  return R;
}

//===----------------------------------------------------------------------===//
// warm-rpc
//===----------------------------------------------------------------------===//

Result runWarmRpc(const RunConfig &C, Json &Params) {
  Result R;
  SplitMix64 Rng(C.Seed);
  std::string Zoo = writeZooCache(C);
  const size_t Clients = 2, CapPerClient = 400;

  DaemonWorkload W;
  W.Set = {{"warm", false, Zoo, {}}};
  W.Prepare = [](Daemons &) {};
  W.Measure = [&](Daemons &Ds, Phase &P, double Budget, bool Capped) {
    std::vector<std::vector<double>> Us(Clients);
    std::atomic<uint64_t> Failed{0};
    std::vector<std::unique_ptr<WarmCycle>> Cycles;
    std::vector<std::unique_ptr<Conn>> Links;
    for (size_t I = 0; I < Clients; ++I) {
      Cycles.push_back(std::make_unique<WarmCycle>(Rng));
      Links.push_back(std::make_unique<Conn>());
      if (!Links.back()->connect(Ds[0]->socket())) {
        R.fail("connect failed");
        return;
      }
    }
    std::optional<Json> S0 = controlRequest(Ds[0]->socket(), "stats");
    double Start = nowSeconds(), Deadline = Start + Budget;
    auto Client = [&](size_t I) {
      for (size_t N = 0; Capped ? N < CapPerClient : nowSeconds() < Deadline;
           ++N) {
        double V = warmHit(C, *Links[I], *Cycles[I], Failed);
        if (V >= 0)
          Us[I].push_back(V);
      }
    };
    std::thread Second(Client, 1);
    Client(0);
    Second.join();
    P.WallS = nowSeconds() - Start;
    std::optional<Json> S1 = controlRequest(Ds[0]->socket(), "stats");
    for (const std::vector<double> &V : Us)
      for (double X : V)
        P.LatMs.push_back(X / 1e3);
    P.Ops = P.LatMs.size() + Failed.load();
    R.Attempted += P.Ops;
    R.Failed += Failed.load();
    // Every request was a cached hit: no search, no miss.
    if (field(S1, nullptr, "tuner_invocations") !=
            field(S0, nullptr, "tuner_invocations") ||
        field(S1, "cache", "misses") != field(S0, "cache", "misses"))
      R.fail("warm-rpc tuned or missed: every request must be a hit");
  };

  DaemonRun Run;
  LayerReport L;
  if (!runDaemons(R, C, W, Run, L))
    return R;
  Model R50 = makeResnet50();
  interpSample(R, R50.Convs, "x86", 2, Rng);

  Params.set("connections", static_cast<int64_t>(Clients));
  Params.set("model", "resnet-50");
  Params.set("pool_threads", static_cast<int64_t>(poolThreads(C)));
  Params.set("requests", static_cast<int64_t>(Run.Untraced.Ops));
  if (!C.Trace) {
    addEndToEnd(R, Run.SetupS, Run.PeakMb, Run.Untraced);
    return R;
  }
  L.WarmRttP50Us = quantile(Run.Untraced.LatMs, 0.50) * 1e3;
  L.WarmRttP99Us = quantile(Run.Untraced.LatMs, 0.99) * 1e3;
  std::vector<KernelReport> Reports;
  for (size_t I = 0; I < R50.Convs.size(); ++I)
    if (const KernelReport *G = golden(C, "x86", R50.Name, I))
      Reports.push_back(*G);
  timeLayers(L, R50.Convs, R50.Convs, Reports, Rng);
  addLayerMetrics(R, L);
  return R;
}

//===----------------------------------------------------------------------===//
// fleet-fetch
//===----------------------------------------------------------------------===//

Result runFleetFetch(const RunConfig &C, Json &Params) {
  Result R;
  SplitMix64 Rng(C.Seed);
  std::string Zoo = writeZooCache(C);
  const size_t Capacity = 32, Cap = 250;

  // The distinct tunable x86 keys, in a fixed seeded order: with an LRU
  // of 32 and >100 keys cycled, every request misses on B.
  std::vector<ZooKernel> Keys;
  for (const ZooKernel &K : distinctZooKernels("x86"))
    if (const KernelReport *G = golden(C, "x86", K.Model, K.LayerIndex))
      if (G->BestCandidateIndex >= 0)
        Keys.push_back(K);
  shuffle(Keys, Rng);

  std::string Secret = C.WorkDir + "/secret";
  {
    std::ofstream Out(Secret);
    Out << formatStr("perfbench-%016llx\n",
                     static_cast<unsigned long long>(Rng.next()));
  }
  DaemonWorkload W;
  W.Set = {{"fleet-a", false, Zoo,
            {"--listen-tcp", "127.0.0.1:0", "--secret-file", Secret}},
           {"fleet-b", false, "",
            {"--secret-file", Secret, "--cache-capacity",
             std::to_string(Capacity)}}};
  W.StatsDaemon = 1;
  // B peers to the port A was given.
  W.Link = [](std::vector<DaemonOptions> &O, const Daemon &First) {
    std::optional<Json> S = controlRequest(First.socket(), "stats");
    O[1].Extra.push_back("--peer");
    O[1].Extra.push_back(formatStr(
        "127.0.0.1:%lld",
        static_cast<long long>(field(S, "fabric", "tcp_port"))));
  };

  size_t Next = 0;
  uint64_t Failed = 0;
  auto Fetch = [&](Conn &ToB, std::vector<double> *Us) {
    const ZooKernel &K = Keys[Next++ % Keys.size()];
    Json Msg = compileMessage("compile", "x86", K.Layer);
    double T0 = nowSeconds();
    std::optional<Json> Reply = ToB.request(Msg);
    double V = (nowSeconds() - T0) * 1e6;
    std::optional<KernelReport> Got = Reply ? reportOf(*Reply) : std::nullopt;
    const KernelReport *Want = golden(C, "x86", K.Model, K.LayerIndex);
    if (!Got || !Want || !sameReport(*Got, *Want))
      ++Failed;
    else if (Us)
      Us->push_back(V);
  };
  // Warm-up: one untimed cycle opens the peer link and runs B's bulk
  // warm-sync, after which every request is a targeted fetch.
  W.Prepare = [&](Daemons &Ds) {
    Conn ToB;
    if (!ToB.connect(Ds[1]->socket())) {
      R.fail("connect failed");
      return;
    }
    Next = 0;
    for (size_t N = 0; N < Keys.size(); ++N)
      Fetch(ToB, nullptr);
    R.Attempted += Keys.size();
  };
  W.Measure = [&](Daemons &Ds, Phase &P, double Budget, bool Capped) {
    Conn ToB;
    if (!ToB.connect(Ds[1]->socket())) {
      R.fail("connect failed");
      return;
    }
    std::optional<Json> S0 = controlRequest(Ds[1]->socket(), "stats");
    std::vector<double> Us;
    uint64_t FailedBefore = Failed;
    double Start = nowSeconds(), Deadline = Start + Budget;
    for (size_t N = 0; Capped ? N < Cap : nowSeconds() < Deadline; ++N)
      Fetch(ToB, &Us);
    P.WallS = nowSeconds() - Start;
    std::optional<Json> S1 = controlRequest(Ds[1]->socket(), "stats");
    for (double V : Us)
      P.LatMs.push_back(V / 1e3);
    P.Ops = Us.size() + (Failed - FailedBefore);
    R.Attempted += P.Ops;
    // B never tunes, and every request is a B miss served by a peer
    // fetch hit.
    auto Delta = [&](const char *Section, const char *Key) {
      return field(S1, Section, Key) - field(S0, Section, Key);
    };
    if (Delta(nullptr, "tuner_invocations") != 0)
      R.fail("fleet-fetch: B ran the tuner");
    if (Delta("cache", "misses") != static_cast<double>(P.Ops) ||
        Delta("fabric", "fetch_hits") != Delta("cache", "misses"))
      R.fail("fleet-fetch: a B request was not a miss served by a peer "
             "fetch hit");
  };

  DaemonRun Run;
  LayerReport L;
  if (!runDaemons(R, C, W, Run, L))
    return R;
  R.Failed += Failed;
  std::vector<ConvLayer> KeyLayers;
  for (const ZooKernel &K : Keys)
    KeyLayers.push_back(K.Layer);
  interpSample(R, KeyLayers, "x86", 2, Rng);

  Params.set("distinct_keys", static_cast<int64_t>(Keys.size()));
  Params.set("b_cache_capacity", static_cast<int64_t>(Capacity));
  Params.set("pool_threads", static_cast<int64_t>(poolThreads(C)));
  Params.set("requests", static_cast<int64_t>(Run.Untraced.Ops));
  if (!C.Trace) {
    addEndToEnd(R, Run.SetupS, Run.PeakMb, Run.Untraced);
    return R;
  }
  std::vector<KernelReport> Reports;
  for (const ZooKernel &K : Keys)
    Reports.push_back(*golden(C, "x86", K.Model, K.LayerIndex));
  timeLayers(L, KeyLayers, KeyLayers, Reports, Rng);
  addLayerMetrics(R, L);
  return R;
}

} // namespace perfbench
