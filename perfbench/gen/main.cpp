//===- perfbench/gen/main.cpp - The benchmark's load generator -------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//   perfbench_gen --workload NAME --seed N --seconds S --trace 0|1
//                 --serve PATH --golden DIR --work DIR
//   perfbench_gen --write-goldens DIR
//
// Prints a run stamp line, then (last) one JSON result line. perfbench/
// run.py builds this binary and is the command to use; see its README.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Build.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char **argv) {
  RunConfig C;
  std::string GoldenDir, WriteGoldens;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
      return 2;
    }
    const char *V = argv[++I];
    if (Arg == "--workload")
      C.Workload = V;
    else if (Arg == "--seed")
      C.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      C.Seconds = std::atof(V);
    else if (Arg == "--trace")
      C.Trace = std::atoi(V) != 0;
    else if (Arg == "--serve")
      C.ServeExe = V;
    else if (Arg == "--golden")
      GoldenDir = V;
    else if (Arg == "--work")
      C.WorkDir = V;
    else if (Arg == "--write-goldens")
      WriteGoldens = V;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return 2;
    }
  }
  std::string Err;
  if (!WriteGoldens.empty()) {
    if (!writeGoldens(WriteGoldens, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    return 0;
  }
  if (!loadGoldens(GoldenDir, C.Golden, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (C.Seconds <= 0 || C.WorkDir.empty() || C.ServeExe.empty()) {
    std::fprintf(stderr, "error: --seconds, --work and --serve are required\n");
    return 2;
  }

  // Daemon workloads pin the generator to CPUs 0-1 and the daemons to
  // CPUs 2-3: unpinned, request/reply ping-pong between vCPUs that idle
  // in between is bimodal on small VMs (up to 2.5x apart run to run).
  if (C.Workload != "zoo-cold" && std::thread::hardware_concurrency() >= 4) {
    C.GenCpus = {0, 1};
    C.DaemonCpus = {2, 3};
  }
  pinTo(C.GenCpus);
  // And keeps those CPUs from halting between requests: waking a halted
  // vCPU on a busy host put whole runs 2-4x slower (fleet-fetch read
  // 4.4k-12k requests/s across ten runs without this, 11.3k-12.8k with).
  std::vector<int> SpinCpus = C.GenCpus;
  SpinCpus.insert(SpinCpus.end(), C.DaemonCpus.begin(), C.DaemonCpus.end());
  IdleSpinner Spin(SpinCpus);
  Json Params = Json::object();
  Result R;
  if (C.Workload == "zoo-cold")
    R = runZooCold(C, Params);
  else if (C.Workload == "serve-mixed")
    R = runServeMixed(C, Params);
  else if (C.Workload == "warm-rpc")
    R = runWarmRpc(C, Params);
  else if (C.Workload == "fleet-fetch")
    R = runFleetFetch(C, Params);
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 C.Workload.c_str());
    return 2;
  }
  for (const std::string &Note : R.Notes)
    std::fprintf(stderr, "check failed: %s\n", Note.c_str());

  Json Stamp = Json::object();
  Stamp.set("build", unit::obs::buildString());
  Stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  Stamp.set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  Stamp.set("workload", C.Workload);
  Stamp.set("seed", static_cast<int64_t>(C.Seed));
  Stamp.set("seconds", C.Seconds);
  Stamp.set("trace", C.Trace);
  auto CpuList = [](const std::vector<int> &Cpus) {
    Json J = Json::array();
    for (int Cpu : Cpus)
      J.push(static_cast<int64_t>(Cpu));
    return J;
  };
  Stamp.set("generator_cpus", CpuList(C.GenCpus));
  Stamp.set("daemon_cpus", CpuList(C.DaemonCpus));
  Stamp.set("params", std::move(Params));
  std::printf("stamp %s\n%s\n", Stamp.dump().c_str(), R.line().c_str());
  return 0;
}
