//===- perfbench/gen/Layers.h - Per-layer measurement -----------*- C++ -*-===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// The traced run's layer split, measured from outside src/: direct timing
// of each layer's public functions on the workload's own shapes, span
// trees read back from a TraceRecorder or a daemon's dump_trace, and the
// interpreter cross-check of tensorized winners.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Util.h"

#include "obs/Trace.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span, whichever process recorded it.
struct SpanRec {
  std::string Name;
  uint64_t Id = 0, Parent = 0;
  uint64_t StartUs = 0, DurUs = 0;
  uint32_t Tid = 0;
};

std::vector<SpanRec> spansOf(const std::vector<unit::obs::TraceEvent> &Events);
/// Spans of a dump_trace reply ({"trace": {"traceEvents": [...]}}).
std::vector<SpanRec> spansOf(const Json &DumpTraceReply);

/// What a span tree says about where the time went.
struct TraceSummary {
  std::map<std::string, std::vector<double>> DurUs; ///< By span name.
  std::vector<double> CodegenSelfUs;  ///< codegen minus tuner_search.
  std::vector<double> DispatchWaitUs; ///< cache_resolve end -> compile start.
  std::map<std::string, double> LayerSelfUs; ///< Summed self time by layer.
  size_t Events = 0;
  size_t MaxEventsPerThread = 0;
};

/// Summarizes the spans that started at or after \p FromUs (recorder
/// clock); MaxEventsPerThread counts every span.
TraceSummary summarize(const std::vector<SpanRec> &Spans, uint64_t FromUs = 0);
/// Merges \p From into \p Into (several daemons, one layer split).
void merge(TraceSummary &Into, const TraceSummary &From);

/// Ring slots per thread of a recorder with the daemons' default byte
/// budget; a thread that filled its ring may have dropped spans.
size_t defaultTraceSlots();

/// Direct timings of the compile pipeline's public functions over
/// \p Layers on the x86 backend, in microseconds per call.
struct PipelineTimings {
  double BuildOpUs = 0, CanonicalKeyUs = 0, InspectUs = 0;
  double PriceCandidateUs = 0, WinnerIrUs = 0;
};
PipelineTimings timePipeline(const std::vector<unit::ConvLayer> &Layers);

/// structuralDistance per call over \p Pairs of cache keys, at the
/// session's transfer cutoff (max(8, body length / 10)).
double timeStructuralDistanceUs(
    const std::vector<std::pair<std::string, std::string>> &Pairs);

/// Json::parse and Json::dump per frame over the request and result
/// frames of \p Layers / \p Reports.
void timeJson(const std::vector<unit::ConvLayer> &Layers,
              const std::vector<unit::KernelReport> &Reports,
              double &ParseUs, double &DumpUs);

/// Interpreter cross-check: scales \p Layer down, tunes it on CPU target
/// \p Target, lowers the winning plan, runs it in src/interp and compares
/// with runComputeOpReference on the same seeded inputs. Returns false
/// (with \p Why) on a mismatch; layers that do not tensorize pass.
bool interpCheck(const unit::ConvLayer &Layer, const std::string &Target,
                 uint64_t Seed, std::string &Why);

/// Adds the per-layer metrics every traced run prints, from whatever the
/// workload measured; layers a workload leaves idle read 0.
struct LayerReport {
  PipelineTimings Pipeline;
  double StructuralDistanceUs = 0;
  double JsonParseUs = 0, JsonDumpUs = 0;
  TraceSummary Trace;
  double Ops = 0;                  ///< Operations the split covers.
  double TunerInvocations = 0;     ///< Per op (zoo-cold: per x86 pass).
  double ScoredShare = 0;
  double TransferSeeds = 0;        ///< Per op.
  double CacheHitShare = 0;
  double CacheEvictions = 0;       ///< Per op.
  double FrameUs = 0;              ///< Server frame histogram mean.
  double ClientRttUs = 0;          ///< Mean client RTT of framed requests.
  double WarmResolveUs = 0;        ///< unit_compile_warm_seconds mean.
  double WarmRttP50Us = 0, WarmRttP99Us = 0;
  double PeerFetchRttUs = 0;       ///< unit_peer_fetch_seconds mean.
  double FetchHits = 0;
  double GeneratorCpuS = 0, DaemonCpuS = 0;
  std::map<std::string, double> Overhead; ///< e2e metric -> traced/untraced.
};
void addLayerMetrics(Result &R, const LayerReport &L);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
