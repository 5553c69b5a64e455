//===- perfbench/gen/Layers.cpp --------------------------------------------===//

#include "Layers.h"

#include "core/Inspector.h"
#include "core/Isomorphism.h"
#include "core/Pipeline.h"
#include "graph/Layout.h"
#include "interp/Interp.h"
#include "perf/CostModel.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"
#include "tuner/TuningSpace.h"

#include <algorithm>
#include <cstring>
#include <memory>

using namespace unit;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Span trees
//===----------------------------------------------------------------------===//

std::vector<SpanRec> spansOf(const std::vector<obs::TraceEvent> &Events) {
  std::vector<SpanRec> Out;
  for (const obs::TraceEvent &E : Events)
    Out.push_back({std::string(E.Name, strnlen(E.Name, sizeof(E.Name))),
                   E.SpanId, E.ParentId, E.StartMicros, E.DurationMicros,
                   E.ThreadTag});
  return Out;
}

std::vector<SpanRec> spansOf(const Json &DumpTraceReply) {
  std::vector<SpanRec> Out;
  const Json *Trace = DumpTraceReply.get("trace");
  const Json *List = Trace ? Trace->get("traceEvents") : nullptr;
  if (!List)
    return Out;
  for (const Json &E : List->items()) {
    const Json *Args = E.get("args");
    SpanRec S;
    S.Name = E.str("name");
    S.Id = static_cast<uint64_t>(Args ? Args->integer("span") : 0);
    S.Parent = static_cast<uint64_t>(Args ? Args->integer("parent") : 0);
    S.StartUs = static_cast<uint64_t>(E.integer("ts"));
    S.DurUs = static_cast<uint64_t>(E.integer("dur"));
    S.Tid = static_cast<uint32_t>(E.integer("tid"));
    Out.push_back(std::move(S));
  }
  return Out;
}

namespace {

/// The src/ module a span's code lives in. Spans the generator records
/// around its own calls belong to "generator".
std::string layerOf(const std::string &Span) {
  if (Span == "request" || Span == "admission" ||
      Span == "notification_write")
    return "server";
  if (Span == "tuner_search")
    return "tuner";
  if (Span == "peer_fetch")
    return "fabric";
  if (Span == "cache_resolve" || Span == "compile" || Span == "codegen" ||
      Span == "fulfill" || Span == "join_resume")
    return "runtime";
  return "generator";
}

uint64_t overlap(const SpanRec &Parent, const SpanRec &Child) {
  uint64_t Lo = std::max(Parent.StartUs, Child.StartUs);
  uint64_t Hi = std::min(Parent.StartUs + Parent.DurUs,
                         Child.StartUs + Child.DurUs);
  return Hi > Lo ? Hi - Lo : 0;
}

} // namespace

TraceSummary summarize(const std::vector<SpanRec> &Spans, uint64_t FromUs) {
  TraceSummary S;
  std::map<uint64_t, const SpanRec *> ById;
  std::map<uint64_t, std::vector<const SpanRec *>> Children;
  std::map<uint32_t, size_t> PerThread;
  for (const SpanRec &Sp : Spans) {
    ById[Sp.Id] = &Sp;
    Children[Sp.Parent].push_back(&Sp);
    S.MaxEventsPerThread = std::max(S.MaxEventsPerThread, ++PerThread[Sp.Tid]);
  }
  for (const SpanRec &Sp : Spans) {
    if (Sp.StartUs < FromUs)
      continue;
    ++S.Events;
    S.DurUs[Sp.Name].push_back(static_cast<double>(Sp.DurUs));
    // Self time: the part of the span's interval no child covers
    // (children on other threads that start after the parent closed,
    // such as a pool task under its cache_resolve, cover nothing).
    uint64_t Covered = 0, SearchUs = 0;
    for (const SpanRec *C : Children[Sp.Id]) {
      Covered += overlap(Sp, *C);
      if (C->Name == "tuner_search")
        SearchUs += C->DurUs;
    }
    S.LayerSelfUs[layerOf(Sp.Name)] +=
        static_cast<double>(Sp.DurUs - std::min(Covered, Sp.DurUs));
    if (Sp.Name == "codegen")
      S.CodegenSelfUs.push_back(
          static_cast<double>(Sp.DurUs - std::min(SearchUs, Sp.DurUs)));
    if (Sp.Name == "compile") {
      auto It = ById.find(Sp.Parent);
      if (It != ById.end() && It->second->Name == "cache_resolve") {
        uint64_t ResolvedAt = It->second->StartUs + It->second->DurUs;
        S.DispatchWaitUs.push_back(
            Sp.StartUs > ResolvedAt
                ? static_cast<double>(Sp.StartUs - ResolvedAt)
                : 0.0);
      }
    }
  }
  return S;
}

void merge(TraceSummary &Into, const TraceSummary &From) {
  for (const auto &[Name, Durs] : From.DurUs)
    Into.DurUs[Name].insert(Into.DurUs[Name].end(), Durs.begin(), Durs.end());
  Into.CodegenSelfUs.insert(Into.CodegenSelfUs.end(),
                            From.CodegenSelfUs.begin(),
                            From.CodegenSelfUs.end());
  Into.DispatchWaitUs.insert(Into.DispatchWaitUs.end(),
                             From.DispatchWaitUs.begin(),
                             From.DispatchWaitUs.end());
  for (const auto &[Layer, Us] : From.LayerSelfUs)
    Into.LayerSelfUs[Layer] += Us;
  Into.Events += From.Events;
  Into.MaxEventsPerThread =
      std::max(Into.MaxEventsPerThread, From.MaxEventsPerThread);
}

size_t defaultTraceSlots() {
  static const size_t Slots = obs::TraceRecorder().slotsPerThread();
  return Slots;
}

//===----------------------------------------------------------------------===//
// Direct timings
//===----------------------------------------------------------------------===//

namespace {

const CpuBackend &x86Backend() {
  static TargetBackendRef Ref = TargetRegistry::instance().get("x86");
  return dynamic_cast<const CpuBackend &>(*Ref);
}

LaidOutOp buildOp(const ConvLayer &L, const TargetBackend &B) {
  const QuantScheme &S = B.scheme();
  return buildDirectConvOp(L, S.Activation, S.Weight, S.Accumulator,
                           S.LaneMultiple, S.ReduceMultiple);
}

double usSince(double T0) { return (nowSeconds() - T0) * 1e6; }

} // namespace

PipelineTimings timePipeline(const std::vector<ConvLayer> &Layers) {
  const CpuBackend &B = x86Backend();
  std::vector<TensorIntrinsicRef> Intrs = B.intrinsics();
  std::vector<CpuTuningPair> Pairs = defaultCpuTuningPairs();
  std::vector<double> Build, Key, Inspect, Price, Winner;
  for (const ConvLayer &L : Layers) {
    if (L.Depthwise)
      continue; // Priced as SIMD directly; no op is built.
    double T0 = nowSeconds();
    LaidOutOp Laid = buildOp(L, B);
    Build.push_back(usSince(T0));
    T0 = nowSeconds();
    std::string K = canonicalComputeKey(*Laid.Op);
    Key.push_back(usSince(T0));
    std::optional<MatchResult> Match;
    for (const TensorIntrinsicRef &I : Intrs) {
      T0 = nowSeconds();
      std::optional<MatchResult> M = inspect(Laid.Op, I);
      Inspect.push_back(usSince(T0));
      if (M && !Match)
        Match = std::move(M);
    }
    if (!Match)
      continue;
    size_t Best = 0;
    double BestSeconds = 0;
    for (size_t P = 0; P < Pairs.size(); ++P) {
      T0 = nowSeconds();
      TensorizePlan Plan = buildCpuPlan(Laid.Op, *Match, Pairs[P]);
      double Seconds = cpuLatencySeconds(analyzeTensorized(Plan), B.machine());
      Price.push_back(usSince(T0));
      if (P == 0 || Seconds < BestSeconds) {
        Best = P;
        BestSeconds = Seconds;
      }
    }
    T0 = nowSeconds();
    TensorizePlan Plan = buildCpuPlan(Laid.Op, *Match, Pairs[Best]);
    StmtRef Ir = lowerPlan(Plan);
    Winner.push_back(usSince(T0));
  }
  PipelineTimings T;
  T.BuildOpUs = median(Build);
  T.CanonicalKeyUs = median(Key);
  T.InspectUs = median(Inspect);
  T.PriceCandidateUs = median(Price);
  T.WinnerIrUs = median(Winner);
  return T;
}

double timeStructuralDistanceUs(
    const std::vector<std::pair<std::string, std::string>> &Pairs) {
  if (Pairs.empty())
    return 0;
  // The session compares key bodies (after `target|spechash|kind|`).
  auto Body = [](const std::string &Key) {
    size_t Pos = 0;
    for (int Sep = 0; Sep < 3 && Pos != std::string::npos; ++Sep) {
      Pos = Key.find('|', Pos);
      if (Pos != std::string::npos)
        ++Pos;
    }
    return Pos == std::string::npos ? Key : Key.substr(Pos);
  };
  std::vector<std::pair<std::string, std::string>> Bodies;
  for (const auto &[A, B] : Pairs)
    Bodies.push_back({Body(A), Body(B)});
  volatile size_t Sink = 0; // Keeps the calls from being optimized out.
  double T0 = nowSeconds();
  for (const auto &[A, B] : Bodies)
    Sink = Sink + structuralDistance(A, B, std::max<size_t>(8, A.size() / 10));
  return usSince(T0) / static_cast<double>(Bodies.size());
}

void timeJson(const std::vector<ConvLayer> &Layers,
              const std::vector<KernelReport> &Reports, double &ParseUs,
              double &DumpUs) {
  std::vector<Json> Frames;
  for (const ConvLayer &L : Layers)
    Frames.push_back(compileMessage("compile_async", "x86", L));
  for (size_t I = 0; I < Reports.size(); ++I)
    Frames.push_back(makeResultNotification(I + 1, false, Reports[I]));
  std::vector<std::string> Text;
  double T0 = nowSeconds();
  for (const Json &F : Frames)
    Text.push_back(F.dump());
  DumpUs = Frames.empty() ? 0 : usSince(T0) / static_cast<double>(Frames.size());
  size_t Parsed = 0;
  T0 = nowSeconds();
  for (const std::string &T : Text)
    Parsed += Json::parse(T).has_value();
  ParseUs = Text.empty() ? 0 : usSince(T0) / static_cast<double>(Text.size());
  if (Parsed != Text.size())
    ParseUs = 0;
}

//===----------------------------------------------------------------------===//
// Interpreter cross-check
//===----------------------------------------------------------------------===//

bool interpCheck(const ConvLayer &Layer, const std::string &Target,
                 uint64_t Seed, std::string &Why) {
  TargetBackendRef Ref = TargetRegistry::instance().get(Target);
  const auto *B = dynamic_cast<const CpuBackend *>(Ref.get());
  if (!B || Layer.Depthwise)
    return true;
  // Scaled down so the interpreter runs it in milliseconds; the kernel
  // structure (kernel size, stride, padding, blocking) is kept.
  ConvLayer S = Layer;
  S.InC = std::min<int64_t>(S.InC, 8);
  S.OutC = std::min<int64_t>(S.OutC, 16);
  int64_t Spatial = std::max(S.KH, S.KW) + S.Stride;
  S.InH = std::min(S.InH, Spatial);
  S.InW = std::min(S.InW, Spatial);
  LaidOutOp Laid = buildOp(S, *B);
  std::optional<MatchResult> Match;
  for (const TensorIntrinsicRef &I : B->intrinsics())
    if ((Match = inspect(Laid.Op, I)))
      break;
  if (!Match)
    return true;
  TunedKernel Tuned = tuneCpu(Laid.Op, *Match, B->machine(), nullptr,
                              TunerOptions());
  StmtRef Ir = lowerPlan(Tuned.Plan);

  SplitMix64 Rng(Seed);
  std::vector<std::unique_ptr<Buffer>> Inputs;
  Interp Run;
  std::vector<std::pair<TensorRef, Buffer *>> RefBindings;
  for (const TensorRef &T : Laid.Op->inputs()) {
    Inputs.push_back(std::make_unique<Buffer>(T));
    Inputs.back()->fillRandom(Rng, 7);
    Run.bind(T, Inputs.back().get());
    RefBindings.push_back({T, Inputs.back().get()});
  }
  Buffer Out(Laid.Op->output()), RefOut(Laid.Op->output());
  Run.bind(Laid.Op->output(), &Out);
  RefBindings.push_back({Laid.Op->output(), &RefOut});
  Run.run(Ir);
  runComputeOpReference(Laid.Op, RefBindings);
  for (int64_t I = 0; I < Out.size(); ++I)
    if (Out.getInt(I) != RefOut.getInt(I)) {
      Why = formatStr("interp mismatch on %s (%s, %s) at output %lld",
                      Target.c_str(), Layer.Name.c_str(),
                      Match->Intrinsic->name().c_str(),
                      static_cast<long long>(I));
      return false;
    }
  return true;
}

//===----------------------------------------------------------------------===//
// Metric emission
//===----------------------------------------------------------------------===//

void addLayerMetrics(Result &R, const LayerReport &L) {
  const TraceSummary &T = L.Trace;
  auto SpanMean = [&](const char *Name) {
    auto It = T.DurUs.find(Name);
    return It == T.DurUs.end() ? 0.0 : mean(It->second);
  };
  auto PerOp = [&](double V) { return L.Ops > 0 ? V / L.Ops : 0.0; };
  R.add("graph.build_op_us", L.Pipeline.BuildOpUs, "us");
  R.add("core.canonical_key_us", L.Pipeline.CanonicalKeyUs, "us");
  R.add("core.inspect_us", L.Pipeline.InspectUs, "us");
  R.add("core.structural_distance_us", L.StructuralDistanceUs, "us");
  R.add("core.winner_ir_us", L.Pipeline.WinnerIrUs, "us");
  R.add("perf.price_candidate_us", L.Pipeline.PriceCandidateUs, "us");
  R.add("tuner.search_ms", SpanMean("tuner_search") / 1e3, "ms");
  R.add("tuner.invocations", L.TunerInvocations, "count");
  R.add("tuner.scored_share", L.ScoredShare, "ratio");
  R.add("tuner.transfer_seeds", L.TransferSeeds, "count");
  R.add("runtime.codegen_self_ms", mean(T.CodegenSelfUs) / 1e3, "ms");
  R.add("runtime.dispatch_wait_us", mean(T.DispatchWaitUs), "us");
  R.add("runtime.cache_resolve_us", SpanMean("cache_resolve"), "us");
  R.add("runtime.warm_resolve_us", L.WarmResolveUs, "us");
  R.add("runtime.cache_hit_share", L.CacheHitShare, "ratio");
  R.add("runtime.cache_evictions", L.CacheEvictions, "count");
  R.add("server.frame_us", L.FrameUs, "us");
  R.add("server.transport_us",
        L.ClientRttUs > 0 ? std::max(0.0, L.ClientRttUs - L.FrameUs) : 0.0,
        "us");
  R.add("server.json_parse_us", L.JsonParseUs, "us");
  R.add("server.json_dump_us", L.JsonDumpUs, "us");
  R.add("server.notification_write_us", SpanMean("notification_write"), "us");
  R.add("server.warm_rtt_us.p50", L.WarmRttP50Us, "us");
  R.add("server.warm_rtt_us.p99", L.WarmRttP99Us, "us");
  R.add("fabric.peer_fetch_us", SpanMean("peer_fetch"), "us");
  R.add("fabric.peer_fetch_rtt_us", L.PeerFetchRttUs, "us");
  R.add("fabric.fetch_hits", L.FetchHits, "count");
  for (const char *Layer : {"generator", "server", "runtime", "tuner",
                            "fabric"}) {
    auto It = T.LayerSelfUs.find(Layer);
    R.add(std::string("self_us_per_op.") + Layer,
          PerOp(It == T.LayerSelfUs.end() ? 0.0 : It->second), "us");
  }
  for (const char *Metric : {"op_ms.p50", "op_ms.p90", "ops_per_s",
                             "cpu_ms_per_op"}) {
    auto It = L.Overhead.find(Metric);
    R.add(std::string("obs.trace_overhead.") + Metric,
          It == L.Overhead.end() ? 0.0 : It->second, "x");
  }
  R.add("obs.trace_spans", static_cast<double>(T.Events), "count");
  R.add("proc.cpu_s.generator", L.GeneratorCpuS, "s");
  R.add("proc.cpu_s.daemons", L.DaemonCpuS, "s");
}

} // namespace perfbench
