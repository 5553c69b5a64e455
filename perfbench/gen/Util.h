//===- perfbench/gen/Util.h - Load-generator plumbing -----------*- C++ -*-===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Shared pieces of the benchmark's load generator: sample statistics,
// /proc readers, daemon processes, a raw-frame client, the metric sink,
// and the golden KernelReport tables.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include "graph/Graph.h"
#include "runtime/KernelCache.h"
#include "server/Protocol.h"

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using unit::Json;

//===----------------------------------------------------------------------===//
// Statistics and clocks
//===----------------------------------------------------------------------===//

double nowSeconds();

/// Quantile \p Q of \p Values: the Harrell-Davis estimate up to 20000
/// samples, the linear-interpolated order statistic above; 0 when empty.
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);
double mean(const std::vector<double> &Values);

/// user+sys CPU seconds of process \p Pid (all threads), from
/// /proc/<pid>/stat; 0 when unreadable.
double processCpuSeconds(pid_t Pid);
/// Peak resident set (VmHWM) of \p Pid in MiB; 0 when unreadable.
double peakRssMb(pid_t Pid);

/// Restricts the calling thread (and threads it creates later) to
/// \p Cpus; no-op when empty.
void pinTo(const std::vector<int> &Cpus);

//===----------------------------------------------------------------------===//
// Daemons
//===----------------------------------------------------------------------===//

/// One unit_serve process. The destructor stops it: a shutdown request,
/// then SIGKILL if it has not exited within a few seconds, and always a
/// waitpid, so no child outlives the generator.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns \p Exe with \p Args and waits until a hello on \p Socket is
  /// answered (the server loads its cache before it accepts). Returns
  /// false on spawn failure or a 30 s timeout.
  bool start(const std::string &Exe, const std::vector<std::string> &Args,
             const std::string &Socket, const std::vector<int> &Cpus = {});
  /// Graceful stop (shutdown message), then SIGKILL after 5 s; reaps.
  void stop();

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  pid_t Pid = -1;
  std::string Socket;
};

/// A child process holding one SCHED_IDLE busy-loop thread per CPU in
/// \p Cpus, so those CPUs never halt between requests; any runnable
/// thread preempts a SCHED_IDLE one at once. Stopped (and reaped) by the
/// destructor.
class IdleSpinner {
public:
  explicit IdleSpinner(const std::vector<int> &Cpus);
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner &) = delete;
  IdleSpinner &operator=(const IdleSpinner &) = delete;

private:
  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// Raw-frame client
//===----------------------------------------------------------------------===//

/// A blocking Unix-socket connection speaking the length-prefixed frame
/// protocol directly, so the generator timestamps every frame on the
/// thread that reads it and runs no hidden reader thread.
class Conn {
public:
  Conn() = default;
  ~Conn();
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool connect(const std::string &Socket);
  bool send(const Json &Msg);
  /// Next frame, parsed; nullopt on EOF, I/O or parse error.
  std::optional<Json> recv();
  /// send + recv; nullopt on failure or an "error" reply.
  std::optional<Json> request(const Json &Msg);

private:
  int Fd = -1;
};

/// {"type": Type, "id": N} — the shape of every control request.
Json message(const char *Type);
/// A compile / compile_async request for \p Layer on \p Target.
Json compileMessage(const char *Type, const std::string &Target,
                    const unit::ConvLayer &Layer);
/// Decodes the report of a "result" frame; nullopt on a malformed frame.
std::optional<unit::KernelReport> reportOf(const Json &Frame);

/// Byte identity of two reports: every field, Seconds bitwise.
bool sameReport(const unit::KernelReport &A, const unit::KernelReport &B);

//===----------------------------------------------------------------------===//
// Metric sink
//===----------------------------------------------------------------------===//

/// Metrics of one run, in insertion order, plus the op accounting the
/// result line carries.
struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool InvariantsHold = true;
  std::vector<std::string> Notes; ///< Why an op or invariant failed.

  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Records one attempted operation that failed, and why.
  void fail(const std::string &Why);
  /// Records one attempted operation; a failure when \p Ok is false.
  void check(bool Ok, const std::string &Why) {
    if (Ok)
      ++Attempted;
    else
      fail(Why);
  }
  /// The final stdout line: {"correct","attempted","failed","metrics"}.
  std::string line() const;
};

//===----------------------------------------------------------------------===//
// Zoo tables and goldens
//===----------------------------------------------------------------------===//

/// The builtin targets zoo-cold compiles on, in registry order.
const std::vector<std::string> &zooTargets();

/// One distinct kernel of the zoo on one target: its cache key and the
/// first layer that produces it.
struct ZooKernel {
  std::string Key;
  unit::ConvLayer Layer;
  std::string Model;
  size_t LayerIndex = 0;
};

/// Distinct cache keys of every paperModels() layer on \p Target, in
/// first-appearance order (model order, then layer order).
std::vector<ZooKernel> distinctZooKernels(const std::string &Target);

/// Golden reports: Golden[target][model][layer index].
using GoldenTable =
    std::map<std::string, std::map<std::string, std::vector<unit::KernelReport>>>;

/// Loads <Dir>/<target>.txt for every zoo target; false + \p Err when a
/// file is missing or malformed.
bool loadGoldens(const std::string &Dir, GoldenTable &Out, std::string &Err);
/// Writes one <Dir>/<target>.txt per target from a sequential compile of
/// the whole zoo (the reference mode: no shape or candidate parallelism).
bool writeGoldens(const std::string &Dir, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
