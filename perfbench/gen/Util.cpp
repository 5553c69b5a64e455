//===- perfbench/gen/Util.cpp ----------------------------------------------===//

#include "Util.h"

#include "models/ModelZoo.h"
#include "runtime/CompilerSession.h"
#include "runtime/Workload.h"
#include "support/StringUtils.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace unit;

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), valid for X < (A + 1) / (A + B + 2).
double betaFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  double C = 1, D = 1 - (A + B) * X / (A + 1);
  D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M < 10000; ++M) {
    double M2 = 2.0 * M;
    double Aa = M * (B - M) * X / ((A + M2 - 1) * (A + M2));
    D = 1 + Aa * D;
    C = 1 + Aa / C;
    D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
    C = std::fabs(C) < Tiny ? Tiny : C;
    H *= D * C;
    Aa = -(A + M) * (A + B + M) * X / ((A + M2) * (A + M2 + 1));
    D = 1 + Aa * D;
    C = 1 + Aa / C;
    D = 1 / (std::fabs(D) < Tiny ? Tiny : D);
    C = std::fabs(C) < Tiny ? Tiny : C;
    double Step = D * C;
    H *= Step;
    if (std::fabs(Step - 1) < 1e-12)
      break;
  }
  return H;
}

/// Regularized incomplete beta I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  if (X < (A + 1) / (A + B + 2))
    return std::exp(LogFront) * betaFraction(A, B, X) / A;
  return 1 - std::exp(LogFront) * betaFraction(B, A, 1 - X) / B;
}

} // namespace

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  if (N <= 20000) {
    // Harrell-Davis: a Beta-weighted mean of every order statistic. A
    // workload whose ops form a fixed mixture (45 model/target pairs on
    // zoo-cold) has gaps between neighbouring order statistics; a single
    // order statistic would jump across a gap from run to run.
    double A = (static_cast<double>(N) + 1) * Q;
    double B = (static_cast<double>(N) + 1) * (1 - Q);
    double Sum = 0, Prev = 0;
    for (size_t I = 1; I <= N; ++I) {
      double Cdf = incompleteBeta(A, B, static_cast<double>(I) / N);
      Sum += (Cdf - Prev) * Values[I - 1];
      Prev = Cdf;
    }
    return Sum;
  }
  double Pos = Q * static_cast<double>(N - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, N - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double processCpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
  size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Rest(Text.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 1; I <= 13 && (Rest >> Field); ++I) {
    if (I == 12)
      UTime = std::stoull(Field);
    if (I == 13)
      STime = std::stoull(Field);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // Reported in kB.
  return 0;
}

void pinTo(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

bool Daemon::start(const std::string &Exe,
                   const std::vector<std::string> &Args,
                   const std::string &SocketPath,
                   const std::vector<int> &Cpus) {
  Socket = SocketPath;
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Exe.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  Pid = ::fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // The daemon's stdout goes to our stderr: the generator's stdout ends
    // with the result line and nothing else may interleave with it.
    ::dup2(2, 1);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL); // Never outlive the generator.
    pinTo(Cpus);
    ::execv(Exe.c_str(), Argv.data());
    ::_exit(127);
  }
  double Deadline = nowSeconds() + 30;
  while (nowSeconds() < Deadline) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1; // Exited before serving.
      return false;
    }
    Conn C;
    if (C.connect(Socket) && C.request(message("hello")))
      return true;
    // Fine-grained: a start takes a few milliseconds, and setup_s is
    // built from it.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop();
  return false;
}

void Daemon::stop() {
  if (Pid <= 0)
    return;
  {
    Conn C;
    if (C.connect(Socket))
      C.request(message("shutdown"));
  }
  double Deadline = nowSeconds() + 5;
  int Status = 0;
  while (::waitpid(Pid, &Status, WNOHANG) == 0) {
    if (nowSeconds() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Pid = -1;
}

IdleSpinner::IdleSpinner(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  Pid = ::fork();
  if (Pid != 0)
    return;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<std::thread> Threads;
  for (int Cpu : Cpus)
    Threads.emplace_back([Cpu] {
      pinTo({Cpu});
      sched_param Param{};
      ::sched_setscheduler(0, SCHED_IDLE, &Param);
      for (;;)
        __builtin_ia32_pause();
    });
  for (std::thread &T : Threads)
    T.join(); // Never returns: the parent ends this process with SIGKILL.
  ::_exit(0);
}

IdleSpinner::~IdleSpinner() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
}

//===----------------------------------------------------------------------===//
// Conn
//===----------------------------------------------------------------------===//

Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Conn::connect(const std::string &Socket) {
  sockaddr_un Addr;
  if (!makeUnixSocketAddr(Socket, Addr, nullptr))
    return false;
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool Conn::send(const Json &Msg) { return Fd >= 0 && writeFrame(Fd, Msg.dump()); }

std::optional<Json> Conn::recv() {
  std::string Payload;
  if (Fd < 0 || readFrame(Fd, Payload) != FrameStatus::Ok)
    return std::nullopt;
  return Json::parse(Payload);
}

std::optional<Json> Conn::request(const Json &Msg) {
  if (!send(Msg))
    return std::nullopt;
  std::optional<Json> Reply = recv();
  if (!Reply || Reply->str("type") == "error")
    return std::nullopt;
  return Reply;
}

Json message(const char *Type) {
  static std::atomic<int64_t> NextId{1};
  Json J = Json::object();
  J.set("type", Type);
  J.set("id", NextId.fetch_add(1));
  return J;
}

Json compileMessage(const char *Type, const std::string &Target,
                    const ConvLayer &Layer) {
  Json J = message(Type);
  J.set("target", Target);
  J.set("workload", toJson(Layer));
  J.set("options", toJson(CompileOptions()));
  return J;
}

std::optional<KernelReport> reportOf(const Json &Frame) {
  const Json *R = Frame.get("report");
  KernelReport Report;
  std::string Err;
  if (!R || !kernelReportFromJson(*R, Report, Err))
    return std::nullopt;
  return Report;
}

bool sameReport(const KernelReport &A, const KernelReport &B) {
  return std::memcmp(&A.Seconds, &B.Seconds, sizeof(double)) == 0 &&
         A.Tensorized == B.Tensorized &&
         A.BestCandidateIndex == B.BestCandidateIndex &&
         A.CandidatesTried == B.CandidatesTried &&
         A.IntrinsicName == B.IntrinsicName;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics.push_back({Name, {std::isfinite(Value) ? Value : 0.0, Unit}});
}

void Result::fail(const std::string &Why) {
  ++Attempted;
  ++Failed;
  InvariantsHold = false;
  Notes.push_back(Why);
}

std::string Result::line() const {
  std::string Out = formatStr(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      InvariantsHold && Failed == 0 ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += formatStr("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     I ? ", " : "", Metrics[I].first.c_str(),
                     Metrics[I].second.first, Metrics[I].second.second.c_str());
  return Out + "}}";
}

//===----------------------------------------------------------------------===//
// Zoo tables and goldens
//===----------------------------------------------------------------------===//

const std::vector<std::string> &zooTargets() {
  static const std::vector<std::string> Targets = {"x86", "arm", "x86-amx",
                                                   "arm-sve", "nvgpu"};
  return Targets;
}

std::vector<ZooKernel> distinctZooKernels(const std::string &Target) {
  TargetBackendRef Backend = TargetRegistry::instance().get(Target);
  std::vector<ZooKernel> Out;
  std::set<std::string> Seen;
  for (const Model &M : paperModels())
    for (size_t I = 0; I < M.Convs.size(); ++I) {
      std::string Key = Workload::conv2d(M.Convs[I]).cacheKey(*Backend);
      if (Seen.insert(Key).second)
        Out.push_back({Key, M.Convs[I], M.Name, I});
    }
  return Out;
}

namespace {

std::string goldenPath(const std::string &Dir, const std::string &Target) {
  return Dir + "/" + Target + ".txt";
}

} // namespace

bool loadGoldens(const std::string &Dir, GoldenTable &Out,
                 std::string &Err) {
  for (const std::string &Target : zooTargets()) {
    std::ifstream In(goldenPath(Dir, Target));
    if (!In) {
      Err = "missing golden file " + goldenPath(Dir, Target);
      return false;
    }
    std::string Line;
    size_t LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.empty() || Line[0] == '#')
        continue;
      std::istringstream Fields(Line);
      std::string Model, Seconds, Intrinsic;
      size_t Index = 0;
      int Tensorized = 0;
      KernelReport R;
      if (!(Fields >> Model >> Index >> Seconds >> Tensorized >>
            R.BestCandidateIndex >> R.CandidatesTried >> Intrinsic)) {
        Err = formatStr("%s:%zu: malformed", goldenPath(Dir, Target).c_str(),
                        LineNo);
        return false;
      }
      R.Seconds = std::strtod(Seconds.c_str(), nullptr);
      R.Tensorized = Tensorized != 0;
      R.IntrinsicName = Intrinsic == "-" ? "" : Intrinsic;
      std::vector<KernelReport> &Layers = Out[Target][Model];
      if (Index != Layers.size()) {
        Err = formatStr("%s:%zu: layer index out of order",
                        goldenPath(Dir, Target).c_str(), LineNo);
        return false;
      }
      Layers.push_back(R);
    }
  }
  return true;
}

bool writeGoldens(const std::string &Dir, std::string &Err) {
  SessionConfig Cfg;
  Cfg.ParallelShapes = false;
  Cfg.ParallelCandidates = false;
  for (const std::string &Target : zooTargets()) {
    CompilerSession Session(Cfg);
    std::FILE *F = std::fopen(goldenPath(Dir, Target).c_str(), "w");
    if (!F) {
      Err = "cannot write " + goldenPath(Dir, Target);
      return false;
    }
    std::fprintf(F, "# model layer seconds(hex) tensorized best tried "
                    "intrinsic -- python3 perfbench/run.py --write-goldens\n");
    for (const Model &M : paperModels()) {
      ModelCompileResult R = Session.compileModel(M, Target);
      for (size_t I = 0; I < R.Layers.size(); ++I) {
        const KernelReport &K = R.Layers[I];
        std::fprintf(F, "%s %zu %a %d %d %d %s\n", M.Name.c_str(), I,
                     K.Seconds, K.Tensorized ? 1 : 0, K.BestCandidateIndex,
                     K.CandidatesTried,
                     K.IntrinsicName.empty() ? "-" : K.IntrinsicName.c_str());
      }
    }
    std::fclose(F);
  }
  return true;
}

} // namespace perfbench
