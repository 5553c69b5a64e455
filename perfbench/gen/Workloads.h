//===- perfbench/gen/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Util.h"

#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeExe; ///< unit_serve binary.
  std::string WorkDir;  ///< Sockets, cache files, secret (created by run.py).
  GoldenTable Golden;
  std::vector<int> GenCpus, DaemonCpus; ///< Placement; empty = unpinned.
};

/// Runs one workload. Untraced runs add every end-to-end metric; traced
/// runs add every per-layer metric. \p Params receives the workload's
/// parameters for the run stamp.
Result runZooCold(const RunConfig &C, Json &Params);
Result runServeMixed(const RunConfig &C, Json &Params);
Result runWarmRpc(const RunConfig &C, Json &Params);
Result runFleetFetch(const RunConfig &C, Json &Params);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
