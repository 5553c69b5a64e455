//===- server/CompileServer.cpp --------------------------------------------===//

#include "server/CompileServer.h"

#include "fabric/Handshake.h"
#include "obs/Build.h"
#include "runtime/CompileRequest.h"
#include "runtime/Workload.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"

#include "support/Time.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

/// Shown in stats detail: enough of a canonical structural key to
/// recognize the kernel without shipping (or copying under the cache
/// mutex) the whole serialization.
constexpr size_t MaxShownKeyBytes = 72;

/// Distinct named stats buckets a daemon keeps before folding new names
/// into "(overflow)" (names are caller-controlled wire input).
constexpr size_t MaxClientBuckets = 1024;

/// Concurrent connections the daemon serves. One thread + one fd each;
/// without a cap, stalled peers pin them until fd exhaustion makes even
/// the shutdown message unreachable. Excess connections are accepted
/// and immediately closed (the client sees EOF).
constexpr size_t MaxConnections = 256;

/// One line per compile slower than the operator's --slow-compile-ms
/// threshold: enough of a digest to find the request in a trace dump
/// without grepping for it. Ticket 0 marks the blocking compile path.
void logSlowCompile(double ThresholdMillis, double Seconds,
                    const std::string &Client, uint64_t Ticket,
                    const char *Kind, const KernelReport *Report) {
  double Millis = Seconds * 1e3;
  if (ThresholdMillis <= 0 || Millis < ThresholdMillis)
    return;
  std::fprintf(stderr,
               "unit slow-compile: %.1f ms client=%s ticket=%llu kind=%s "
               "candidates=%d intrinsic=%s\n",
               Millis, Client.c_str(),
               static_cast<unsigned long long>(Ticket), Kind,
               Report ? Report->CandidatesTried : -1,
               Report && !Report->IntrinsicName.empty()
                   ? Report->IntrinsicName.c_str()
                   : "(none)");
}

} // namespace

CompileServer::CompileServer(ServerConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Session(Config.Session
                  ? Config.Session
                  : std::make_shared<CompilerSession>(Config.SessionCfg)) {}

CompileServer::~CompileServer() { stop(); }

bool CompileServer::start(std::string *Err) {
  // Releases every resource this call acquired; flock drops with the fd.
  auto FailMsg = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    if (TcpListenFd >= 0) {
      ::close(TcpListenFd);
      TcpListenFd = -1;
      BoundTcpPort = 0;
    }
    if (LockFd >= 0) {
      ::close(LockFd);
      LockFd = -1;
    }
    PeerMgr.reset();
    return false;
  };
  auto Fail = [&](const std::string &Msg) {
    return FailMsg(Msg + " (" + std::strerror(errno) + ")");
  };

  if (Running.load()) {
    if (Err)
      *Err = "server already running";
    return false;
  }
  sockaddr_un Addr;
  if (!makeUnixSocketAddr(Config.SocketPath, Addr, Err))
    return false;

  // Claim the path first: a lifetime flock on "<path>.lock" is the
  // authoritative ownership of the socket name. Without it, two daemons
  // racing a *stale* socket can both pass the liveness probe below,
  // and the loser's unlink orphans the winner's freshly bound socket.
  LockFd = ::open((Config.SocketPath + ".lock").c_str(),
                  O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (LockFd < 0)
    return Fail("open(" + Config.SocketPath + ".lock) failed");
  if (::flock(LockFd, LOCK_EX | LOCK_NB) != 0)
    return FailMsg("another server owns " + Config.SocketPath +
                   " (lock held on its .lock file)");

  // Replace a *stale socket* only: anything else at the path (a mistyped
  // --socket pointing at a real file) must never be deleted, and if
  // something answers on the path a daemon is alive there — silently
  // unlinking its socket would orphan it (reachable by nobody, still
  // holding the cache). With the lock held this is belt-and-braces plus
  // a clearer error message.
  struct stat PathStat;
  if (::lstat(Config.SocketPath.c_str(), &PathStat) == 0) {
    if (!S_ISSOCK(PathStat.st_mode))
      return FailMsg(Config.SocketPath + " exists and is not a socket");
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe >= 0) {
      bool Alive = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                             sizeof(Addr)) == 0;
      ::close(Probe);
      if (Alive)
        return FailMsg("a server is already listening on " +
                       Config.SocketPath);
    }
    ::unlink(Config.SocketPath.c_str()); // Stale (nothing answered).
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket() failed");
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind(" + Config.SocketPath + ") failed");
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen() failed");

  // The fabric's TCP side: an unauthenticated TCP listener would expose
  // the whole compile surface (including shutdown and cache pushes) to
  // the network, so a secret is mandatory with either TCP feature.
  if ((!Config.TcpListen.empty() || !Config.Peers.empty()) &&
      Config.Secret.empty())
    return FailMsg("--listen-tcp/--peer require a shared secret "
                   "(ServerConfig::Secret / --secret-file)");
  if (!Config.TcpListen.empty()) {
    std::string ParseErr;
    std::optional<Endpoint> Listen = parseEndpoint(Config.TcpListen, &ParseErr);
    if (!Listen)
      return FailMsg("bad --listen-tcp endpoint: " + ParseErr);
    TcpListenFd = listenTcp(*Listen, &ParseErr);
    if (TcpListenFd < 0)
      return FailMsg("listen-tcp " + Config.TcpListen + ": " + ParseErr);
    BoundTcpPort = boundTcpPort(TcpListenFd);
  }
  if (!Config.Peers.empty()) {
    PeerManagerConfig PeerCfg;
    for (const std::string &Text : Config.Peers) {
      std::string ParseErr;
      std::optional<Endpoint> Ep = parseEndpoint(Text, &ParseErr);
      if (!Ep)
        return FailMsg("bad --peer endpoint '" + Text + "': " + ParseErr);
      PeerCfg.Peers.push_back(std::move(*Ep));
    }
    PeerCfg.Secret = Config.Secret;
    PeerCfg.Fingerprint = peerFingerprint();
    if (Config.MaxPeerExchangeBytes > 0)
      PeerCfg.MaxExchangeBytes = Config.MaxPeerExchangeBytes;
    PeerCfg.Cache = &Session->cache();
    PeerMgr = std::make_unique<PeerManager>(std::move(PeerCfg));
  }

  if (!Config.CacheFile.empty()) {
    // Sweep temp files a crashed predecessor orphaned, then warm up.
    KernelCache::removeStaleSaves(Config.CacheFile);
    CacheLoad = Session->loadCache(Config.CacheFile); // Missing file: no-op.
  }

  StartSeconds = steadyNowSeconds();
  Stopping.store(false);
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = false;
  }
  // Install the trace recorder before any thread can compile: spans
  // opened on pool workers and peer threads find it through the
  // process-wide pointer (one branch when tracing is off).
  if (Config.TraceEnabled) {
    Trace = std::make_unique<obs::TraceRecorder>(Config.TraceBytesPerThread);
    obs::setActiveRecorder(Trace.get());
  }
  Running.store(true);
  // Wire the session into the fleet before any connection can compile:
  // cold winners probe peers before tuning, fresh tunes are announced.
  if (PeerMgr) {
    PeerManager *Mgr = PeerMgr.get();
    Session->setColdMissFetcher(
        [Mgr](const std::string &Key) { return Mgr->fetchMissing(Key); });
    Session->setCompileObserver(
        [Mgr](const std::string &Key, const KernelReport &Report) {
          Mgr->announce(Key, Report);
        });
    PeerMgr->start();
  }
  AcceptThread = std::thread([this] { acceptLoop(ListenFd, false); });
  if (TcpListenFd >= 0)
    TcpAcceptThread =
        std::thread([this] { acceptLoop(TcpListenFd, /*RequireAuth=*/true); });
  if (!Config.CacheFile.empty() && Config.PersistIntervalSeconds > 0)
    PersistThread = std::thread([this] { persistLoop(); });
  return true;
}

void CompileServer::stop() {
  // Late callers (e.g. a destructor racing an explicit stop()) block
  // here until the in-progress teardown completes, then no-op.
  std::lock_guard<std::mutex> StopLock(StopMu);
  if (!Running.exchange(false))
    return;
  Stopping.store(true);

  // 1. Stop intake: wake the blocked accept() and join the accept loop.
  //    (shutdown() on a listening socket waking accept() is a Linux
  //    behavior — the platform this repo builds and tests on.) The
  //    socket path is unlinked immediately, while the name still
  //    belongs to this daemon: deferring it past the (potentially long)
  //    connection drain would race a replacement daemon that correctly
  //    judged the silent socket stale and bound its own at this path.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (TcpListenFd >= 0)
    ::shutdown(TcpListenFd, SHUT_RDWR);
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (TcpAcceptThread.joinable())
    TcpAcceptThread.join();
  ::close(ListenFd);
  ListenFd = -1;
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
    BoundTcpPort = 0;
  }
  ::unlink(Config.SocketPath.c_str());

  // 2. Unblock idle connections (threads parked in readFrame see EOF);
  //    a thread mid-request keeps its write side and delivers its
  //    response before noticing Stopping. Connection fds stay open until
  //    their threads are joined (only the reaper above and this function
  //    ever close them — and the reaper cannot run concurrently with
  //    this, the accept loop is already joined), so shutdown() can never
  //    hit a recycled descriptor.
  std::vector<std::unique_ptr<Connection>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const auto &Conn : Connections)
      if (!Conn->Done.load())
        ::shutdown(Conn->Fd, SHUT_RD);
    ToJoin.swap(Connections);
  }
  for (const auto &Conn : ToJoin) {
    if (Conn->Thread.joinable())
      Conn->Thread.join();
    ::close(Conn->Fd);
  }

  // 3. Drain async jobs still in the session pool (prefetches etc.).
  Session->quiesce();

  // With no compiles left running, unhook the session from the fleet and
  // retire the peer links. Hook removal must precede PeerMgr teardown:
  // the session may outlive this server (tests share sessions), and a
  // dangling fetcher would call into freed memory on its next cold miss.
  if (PeerMgr) {
    Session->setColdMissFetcher(nullptr);
    Session->setCompileObserver(nullptr);
    PeerMgr->stop();
    PeerMgr.reset();
  }

  // Every span-producing thread is quiesced; uninstall the recorder
  // (CAS-guarded — a second server in this process may have replaced it)
  // and flush the requested trace dump before the recorder dies.
  if (Trace) {
    obs::clearActiveRecorder(Trace.get());
    if (!Config.TraceOutFile.empty()) {
      std::string Dump = chromeTraceJson(Trace->snapshot()).dump();
      FILE *Out = std::fopen(Config.TraceOutFile.c_str(), "w");
      if (!Out || std::fwrite(Dump.data(), 1, Dump.size(), Out) != Dump.size())
        std::fprintf(stderr,
                     "unit CompileServer: trace dump to %s failed\n",
                     Config.TraceOutFile.c_str());
      if (Out)
        std::fclose(Out);
    }
    Trace.reset();
  }

  // 4. Stop the persist thread, then take the final consistent save. A
  //    failed shutdown save means a cold restart the operator expects to
  //    be warm — say so.
  requestShutdown();
  if (PersistThread.joinable())
    PersistThread.join();
  if (!Config.CacheFile.empty()) {
    std::lock_guard<std::mutex> Lock(SaveMu);
    if (!Session->saveCache(Config.CacheFile))
      std::fprintf(stderr,
                   "unit CompileServer: final cache save to %s failed; "
                   "the next start will be cold\n",
                   Config.CacheFile.c_str());
  }

  // 5. Only now release the path claim (the .lock file itself stays —
  //    unlinking it would reopen the takeover race for a waiter already
  //    holding an open fd to it). Held through the final save so a
  //    replacement daemon cannot sweep our in-flight save temp or load
  //    the cache file before the last snapshot lands; a successor
  //    start()ing earlier fails fast with "another server owns" and its
  //    supervisor retries.
  if (LockFd >= 0) {
    ::close(LockFd);
    LockFd = -1;
  }
}

void CompileServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = true;
  }
  ShutdownCv.notify_all();
}

void CompileServer::waitForShutdownRequest(
    const volatile std::sig_atomic_t *InterruptFlag) {
  std::unique_lock<std::mutex> Lock(ShutdownMu);
  while (!ShutdownRequested && !Stopping.load() &&
         !(InterruptFlag && *InterruptFlag))
    ShutdownCv.wait_for(Lock, std::chrono::milliseconds(100));
}

CompileServer::Totals CompileServer::totals() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return Lifetime;
}

//===----------------------------------------------------------------------===//
// Accept / connection loops
//===----------------------------------------------------------------------===//

void CompileServer::acceptLoop(int ListenerFd, bool RequireAuth) {
  while (!Stopping.load()) {
    int Fd = ::accept(ListenerFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping.load())
        break; // stop() shut the listener down.
      // Transient errors must not end the loop: the listener would stay
      // open (so replacement daemons refuse to start) while nobody
      // serves the backlog. ECONNABORTED = client gone mid-handshake;
      // EMFILE/ENFILE = fd exhaustion, back off and let connections
      // close before retrying.
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Reap before retrying: waiting for the next *successful*
        // accept to reap would deadlock — it is exactly the finished
        // connections' still-open fds keeping accept() at EMFILE.
        reapFinishedConnections();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      // Genuinely broken listener: a daemon that silently stops
      // accepting while Running would hang its owner's
      // waitForShutdownRequest() forever, reachable by nobody. Make the
      // failure loud and self-terminating.
      std::fprintf(stderr,
                   "unit CompileServer: accept() failed (%s); requesting "
                   "shutdown\n",
                   std::strerror(errno));
      requestShutdown();
      break;
    }
    // Bound response writes: a client that stops reading while a large
    // response is mid-write must not pin this connection's thread —
    // stop() joins every handler, so an unbounded write would turn one
    // stalled client into a daemon that cannot shut down.
    timeval SendTimeout;
    SendTimeout.tv_sec = 30;
    SendTimeout.tv_usec = 0;
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    // Reap finished connections so a long-lived daemon doesn't
    // accumulate joined-out threads (or their fds).
    reapFinishedConnections();
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      if (Connections.size() >= MaxConnections) {
        ::close(Fd);
        continue;
      }
    }
    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Conn->NeedsAuth = RequireAuth;
    Conn->ClientName = "(anonymous)";
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Lifetime.Connections;
    }
    Connection *Raw = Conn.get();
    Raw->Thread = std::thread([this, Raw] { serveConnection(*Raw); });
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.push_back(std::move(Conn));
  }
}

void CompileServer::reapFinishedConnections() {
  std::lock_guard<std::mutex> Lock(ConnMu);
  for (auto It = Connections.begin(); It != Connections.end();) {
    if ((*It)->Done.load()) {
      if ((*It)->Thread.joinable())
        (*It)->Thread.join();
      ::close((*It)->Fd);
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void CompileServer::serveConnection(Connection &Conn) {
  // TCP connections earn their first request frame: challenge, proof,
  // auth_ok — or an error frame and EOF. The secret itself never crosses
  // the wire (fabric/Handshake.h).
  if (Conn.NeedsAuth && !runAuthChallenge(Conn.Fd, Config.Secret)) {
    AuthFailures.fetch_add(1);
    ::shutdown(Conn.Fd, SHUT_RDWR);
    Conn.Done.store(true);
    return;
  }
  Conn.Authed = true;
  std::string Payload;
  while (!Stopping.load()) {
    FrameStatus Status = readFrame(Conn.Fd, Payload);
    if (Status != FrameStatus::Ok)
      break;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Lifetime.Requests;
    }
    // Root span of the request tree: opened before dispatch so every
    // handler span (admission, cache_resolve, ...) parents under it, and
    // scoped to the iteration so the announce write is covered too.
    double FrameT0 = steadyNowSeconds();
    obs::Span ReqSpan("request");
    bool CloseAfter = false;
    uint64_t AnnounceTicketId = 0;
    Json Response;
    std::string ParseErr;
    std::optional<Json> Request = Json::parse(Payload, &ParseErr);
    if (Request) {
      ReqSpan.annotate("type", Request->str("type").c_str());
      // Exception barrier: compiles can throw (user-registered backends,
      // bad_alloc under memory pressure — KernelCache deliberately
      // propagates them so the key stays retryable). One request's
      // failure must become one error response, never std::terminate
      // for the whole shared daemon.
      try {
        Response = handleRequest(Conn, *Request, CloseAfter, AnnounceTicketId);
      } catch (const std::exception &E) {
        Response = errorResponse(*Request,
                                 std::string("compile failed: ") + E.what());
      } catch (...) {
        Response = errorResponse(*Request, "compile failed: unknown error");
      }
    } else {
      Response = errorResponse(Json(), "malformed JSON: " + ParseErr);
    }
    std::string Dump = Response.dump();
    if (Dump.size() > MaxFrameBytes) {
      // A silently dropped connection reads as a crashed daemon; tell
      // the client its request produced an unshippable response
      // instead. Built minimal on purpose: echoing the request id here
      // could make the fallback itself oversize (ids are arbitrary
      // client JSON).
      if (Response.str("type") != "error") {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Lifetime.Errors;
      }
      Json TooBig = Json::object();
      TooBig.set("type", "error");
      TooBig.set("message", "response exceeds the frame limit; request "
                            "less at once (split the model, or drop "
                            "'detail')");
      Dump = TooBig.dump();
    }
    if (!writeToConnection(Conn, Dump))
      break;
    // Read-to-reply-written: what a synchronous client actually waited.
    FrameLatencyHist.record(steadyNowSeconds() - FrameT0);
    // Only after the submitted reply is on the wire may this ticket's
    // notification go out — the client must learn the ticket number
    // before the result that carries it.
    if (AnnounceTicketId != 0)
      announceTicket(Conn, AnnounceTicketId);
    if (CloseAfter)
      break;
  }
  // Drain streaming work before retiring: completion callbacks hold a
  // reference to this Connection, so it must outlive the last of them —
  // and this wait is also what delivers (or, with the peer gone, cleanly
  // discards) every pending ticket on shutdown: the read side may be
  // closed, but the write side stays up until the table is empty, so a
  // pipelined client never hangs on a vanished ticket.
  {
    std::unique_lock<std::mutex> Lock(Conn.TicketMu);
    Conn.TicketCv.wait(Lock, [&Conn] { return Conn.UnresolvedJobs == 0; });
    Conn.Tickets.clear();
  }
  // Tell the peer we are done *now* (EOF on its next read): the fd is
  // close()d only by whoever joins this thread (the accept loop's
  // reaper or stop() — closing here would race stop()'s shutdown() on a
  // recycled descriptor number), and that join can be arbitrarily far
  // away on an idle daemon. A double shutdown() from a racing stop() is
  // harmless.
  ::shutdown(Conn.Fd, SHUT_RDWR);
  Conn.Done.store(true);
}

bool CompileServer::writeToConnection(Connection &Conn,
                                      const std::string &Payload) {
  std::lock_guard<std::mutex> Lock(Conn.WriteMu);
  return writeFrame(Conn.Fd, Payload);
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

Json CompileServer::errorResponse(const Json &Request,
                                  const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Lifetime.Errors;
  }
  Json J = Json::object();
  J.set("type", "error");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("message", Message);
  return J;
}

Json CompileServer::handleRequest(Connection &Conn, const Json &Request,
                                  bool &CloseAfter, uint64_t &AnnounceTicket) {
  const std::string Type = Request.str("type");
  if (Type == "hello")
    return handleHello(Conn, Request);
  if (Type == "compile")
    return handleCompile(Conn, Request);
  if (Type == "compile_async")
    return handleCompileAsync(Conn, Request, AnnounceTicket);
  if (Type == "cancel")
    return handleCancel(Conn, Request);
  if (Type == "poll")
    return handlePoll(Conn, Request);
  if (Type == "compile_model")
    return handleCompileModel(Conn, Request);
  if (Type == "list_targets")
    return handleListTargets(Request);
  if (Type == "register_target")
    return handleRegisterTarget(Conn, Request);
  if (Type == "stats")
    return handleStats(Request);
  if (Type == "metrics")
    return handleMetrics(Request);
  if (Type == "dump_trace")
    return handleDumpTrace(Request);
  if (Type == "save_cache")
    return handleSaveCache(Request);
  if (Type == "fetch_cache")
    return handleFetchCache(Request);
  if (Type == "push_cache")
    return handlePushCache(Request);
  if (Type == "shutdown") {
    CloseAfter = true;
    requestShutdown();
    Json J = Json::object();
    J.set("type", "bye");
    if (const Json *Id = Request.get("id"))
      J.set("id", *Id);
    return J;
  }
  return errorResponse(Request, "unknown request type '" + Type + "'");
}

Json CompileServer::handleHello(Connection &Conn, const Json &Request) {
  std::string Name = Request.str("client");
  if (!Name.empty())
    Conn.ClientName = Name;
  int Cap = static_cast<int>(Request.integer("max_candidates", 0));
  bool BudgetRejected = false;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    // A budget stored in the shared overflow bucket would be silently
    // ignored (effectiveBudget looks up the real name) — fail loudly
    // instead of quietly dropping the client's admission contract.
    // (errorResponse takes StatsMu itself, so only flag it here.)
    bool WouldFold = Clients.find(Conn.ClientName) == Clients.end() &&
                     Clients.size() >= MaxClientBuckets;
    if (Cap > 0 && WouldFold) {
      BudgetRejected = true;
    } else {
      ClientStats &C = clientSlotLocked(Conn.ClientName);
      // Every hello (re)sets the cap: omitting the budget clears any
      // previously registered one, so a reconnecting client is never
      // silently stuck with a stale clamp under its name.
      C.MaxCandidatesCap = Cap > 0 ? Cap : 0;
      ++C.Requests;
    }
  }
  if (BudgetRejected)
    return errorResponse(Request,
                         "too many distinct client names to register a "
                         "per-client budget; reuse an existing name");
  Json J = Json::object();
  J.set("type", "welcome");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("server", "unit_serve");
  J.set("protocol", ProtocolVersion);
  // Capability flag, not a version bump: the streaming message family is
  // an addition, and additions are advertised, not versioned.
  J.set("streaming", true);
  // Same shape for the observability family: `metrics` and `dump_trace`
  // are additive messages, advertised rather than versioned.
  J.set("metrics", true);
  // Advertise the per-connection ticket budget so clients size their
  // pipelines from the wire instead of hardcoding the server's constant.
  J.set("max_pending_tickets",
        static_cast<int64_t>(MaxPendingTicketsPerConnection));
  J.set("fingerprint", CompilerSession::persistenceFingerprint());
  if (Config.MaxCandidatesCap > 0)
    J.set("server_max_candidates", Config.MaxCandidatesCap);
  return J;
}

CompileServer::ClientStats &
CompileServer::clientSlotLocked(const std::string &ClientName) {
  auto It = Clients.find(ClientName);
  if (It != Clients.end())
    return It->second;
  if (Clients.size() >= MaxClientBuckets)
    return Clients["(overflow)"];
  return Clients[ClientName];
}

int CompileServer::effectiveBudget(const std::string &ClientName,
                                   int Requested) const {
  int Effective = Requested;
  auto Tighten = [&Effective](int Cap) {
    if (Cap > 0 && (Effective <= 0 || Effective > Cap))
      Effective = Cap;
  };
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    auto It = Clients.find(ClientName);
    if (It != Clients.end())
      Tighten(It->second.MaxCandidatesCap);
  }
  Tighten(Config.MaxCandidatesCap);
  return Effective;
}

void CompileServer::accountCompile(Connection &Conn, uint64_t Ticket,
                                   double Seconds, CachePolicy Policy,
                                   const KernelReport *Report,
                                   bool Computed) {
  // Dirty-flag for the persist thread — only compiles that actually
  // inserted into the cache count (Bypass computes but writes nothing).
  if (Computed && Policy != CachePolicy::Bypass)
    CompilesSinceSave.fetch_add(1);
  logSlowCompile(Config.SlowCompileMillis, Seconds, Conn.ClientName, Ticket,
                 !Report ? "error" : (Computed ? "cold" : "warm"), Report);
  recordServed(Conn, Seconds, /*Layers=*/1,
               /*FromCache=*/(Report && !Computed) ? 1 : 0,
               /*FreshKernels=*/Computed ? 1 : 0, /*IsCompile=*/true);
}

void CompileServer::recordServed(Connection &Conn, double Seconds,
                                 uint64_t Layers, uint64_t FromCache,
                                 uint64_t FreshKernels, bool IsCompile) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ClientStats &C = clientSlotLocked(Conn.ClientName);
  ++C.Requests;
  if (IsCompile) {
    ++C.CompileRequests;
    C.LayersRequested += Layers;
    C.LayersFromCache += FromCache;
    Lifetime.CompiledKernels += FreshKernels;
  }
  C.TotalSeconds += Seconds;
  C.MaxSeconds = std::max(C.MaxSeconds, Seconds);
}

bool CompileServer::parseCompileRequest(Connection &Conn, const Json &Request,
                                        std::optional<CompileRequest> &Out,
                                        Json &ErrorReply) {
  // Targets resolve through the registry, not a protocol-level name
  // table: a backend registered at runtime is immediately addressable.
  const std::string TargetId = Request.str("target", "x86");
  TargetBackendRef Target = TargetRegistry::instance().lookup(TargetId);
  auto Fail = [&](const std::string &Message) {
    ErrorReply = errorResponse(Request, Message);
    return false;
  };
  if (!Target)
    return Fail("unknown target '" + TargetId + "'");
  const Json *WorkloadJson = Request.get("workload");
  if (!WorkloadJson || !WorkloadJson->isObject())
    return Fail("missing 'workload' object");

  CompileOptions Options = optionsFromJson(Request.get("options"));
  Options.MaxCandidates =
      effectiveBudget(Conn.ClientName, Options.MaxCandidates);

  std::string WireErr;
  std::optional<Workload> Work;
  const std::string Kind = WorkloadJson->str("kind", "conv2d");
  if (Kind == "conv2d") {
    ConvLayer L;
    if (!convLayerFromJson(*WorkloadJson, L, WireErr))
      return Fail(WireErr);
    Work = Workload::conv2d(std::move(L));
  } else if (Kind == "dense") {
    int64_t In = 0, OutDim = 0;
    if (!readIntField(*WorkloadJson, "in", 0, In, WireErr) ||
        !readIntField(*WorkloadJson, "out", 0, OutDim, WireErr))
      return Fail(WireErr);
    if (In <= 0 || OutDim <= 0 || In > MaxWorkloadDim ||
        OutDim > MaxWorkloadDim)
      return Fail("dense requires positive 'in' and 'out' within the "
                  "supported maximum");
    Work = Workload::dense(WorkloadJson->str("name", "dense"), In, OutDim);
  } else if (Kind == "conv3d") {
    // Routing conv3d to a backend without the hook would fatal-error the
    // daemon, so gate on the backend's declared capability — new
    // registered backends are picked up without touching the server.
    if (!Target->supportsConv3d())
      return Fail("conv3d is not supported on " + TargetId);
    Conv3dLayer L;
    if (!conv3dLayerFromJson(*WorkloadJson, L, WireErr))
      return Fail(WireErr);
    Work = Workload::conv3d(std::move(L));
  } else {
    return Fail("unknown workload kind '" + Kind + "'");
  }
  Out.emplace(std::move(*Work), std::move(Target), Options);
  return true;
}

Json CompileServer::handleCompile(Connection &Conn, const Json &Request) {
  std::optional<CompileRequest> Compile;
  Json ErrorReply;
  if (!parseCompileRequest(Conn, Request, Compile, ErrorReply))
    return ErrorReply;

  // "Cached" means this request triggered no fresh compile: served by a
  // ready entry or a single-flight join of a concurrent client's
  // compile. The signal comes from the compile call itself (race-free,
  // unlike probing the cache first) — so racing clients on one cold key
  // account exactly one compiled layer between them.
  double T0 = steadyNowSeconds();
  bool Computed = false;
  KernelReport Report;
  try {
    Report = Session->compile(*Compile, &Computed);
  } catch (...) {
    // Accounted like a failed compile_async ticket; serveConnection's
    // barrier answers the "compile failed: ..." error frame.
    accountCompile(Conn, /*Ticket=*/0, steadyNowSeconds() - T0,
                   Compile->Options.Policy, /*Report=*/nullptr,
                   /*Computed=*/false);
    throw;
  }
  accountCompile(Conn, /*Ticket=*/0, steadyNowSeconds() - T0,
                 Compile->Options.Policy, &Report, Computed);

  Json J = Json::object();
  J.set("type", "result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("cached", !Computed);
  J.set("report", toJson(Report));
  return J;
}

Json CompileServer::handleCompileAsync(Connection &Conn, const Json &Request,
                                       uint64_t &AnnounceTicket) {
  // Parse + ticket issue + session submit; the dispatch's cache_resolve
  // span parents here, and the pool-side compile span links back through
  // the context the session captures at submit.
  obs::Span Adm("admission");
  std::optional<CompileRequest> Compile;
  Json ErrorReply;
  if (!parseCompileRequest(Conn, Request, Compile, ErrorReply))
    return ErrorReply;

  uint64_t Ticket = 0;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    if (Conn.Tickets.size() < MaxPendingTicketsPerConnection) {
      Ticket = Conn.NextTicket++;
      Conn.Tickets.emplace(Ticket, TicketState{});
      ++Conn.UnresolvedJobs;
    }
  }
  if (Ticket == 0)
    return errorResponse(Request,
                         "too many pending tickets on this connection (max " +
                             std::to_string(MaxPendingTicketsPerConnection) +
                             "); wait for results or cancel some");
  TicketsIssued.fetch_add(1);
  Adm.annotate("ticket", Ticket);

  // The callback may fire before this handler returns (a warm hit is a
  // near-immediate pool task); delivery still waits for the announce
  // below, so the wire order is always submitted-then-result.
  double T0 = steadyNowSeconds();
  CachePolicy Policy = Compile->Options.Policy;
  Session->compileAsyncThen(
      std::move(*Compile),
      [this, &Conn, Ticket, T0, Policy](const KernelReport *Report,
                                        std::exception_ptr Error,
                                        bool Computed) {
        finishTicket(Conn, Ticket, T0, Policy, Report, Error, Computed);
      });

  Json J = Json::object();
  J.set("type", "submitted");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("ticket", Ticket);
  AnnounceTicket = Ticket;
  return J;
}

void CompileServer::finishTicket(Connection &Conn, uint64_t Ticket,
                                 double SubmitSeconds, CachePolicy Policy,
                                 const KernelReport *Report,
                                 std::exception_ptr Error, bool Computed) {
  std::string Payload;
  if (Report) {
    Payload = makeResultNotification(Ticket, /*Cached=*/!Computed, *Report)
                  .dump();
  } else {
    std::string Message = "compile failed: unknown error";
    if (Error) {
      try {
        std::rethrow_exception(Error);
      } catch (const std::exception &E) {
        Message = std::string("compile failed: ") + E.what();
      } catch (...) {
      }
    }
    Payload = makeErrorNotification(Ticket, Message).dump();
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Lifetime.Errors;
  }

  // The work happened whether or not anyone still wants the answer, so
  // the accounting is unconditional; only delivery is gated on the
  // ticket's fate.
  accountCompile(Conn, Ticket, steadyNowSeconds() - SubmitSeconds, Policy,
                 Report, Computed);

  bool Deliver = false;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    auto It = Conn.Tickets.find(Ticket);
    if (It != Conn.Tickets.end()) {
      if (It->second.Announced) {
        Conn.Tickets.erase(It);
        Deliver = true;
      } else {
        // Resolved before the submitted reply went out: park the frame;
        // announceTicket flushes it. (Cancelled tickets are already out
        // of the table — their result is simply dropped.)
        It->second.Deferred = std::move(Payload);
      }
    }
  }
  if (Deliver) {
    // Counted before the write: a client holding the pushed result must
    // never read a stats snapshot that has not counted it yet. (A failed
    // write — peer gone — still counts as a push.)
    NotificationsDelivered.fetch_add(1);
    obs::Span Write("notification_write");
    Write.annotate("ticket", Ticket);
    writeToConnection(Conn, Payload);
  }

  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    --Conn.UnresolvedJobs;
    // Notify while still holding TicketMu: the moment the drain can see
    // zero it may retire the Connection, so an unlocked notify here
    // would touch a freed condition variable.
    Conn.TicketCv.notify_all();
  }
}

void CompileServer::announceTicket(Connection &Conn, uint64_t Ticket) {
  std::string Payload;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    auto It = Conn.Tickets.find(Ticket);
    if (It == Conn.Tickets.end())
      return; // Cancelled between reply and announce (defensive).
    if (It->second.Deferred.empty()) {
      It->second.Announced = true; // Job still running; callback delivers.
      return;
    }
    Payload = std::move(It->second.Deferred);
    Conn.Tickets.erase(It);
  }
  NotificationsDelivered.fetch_add(1); // Before the write; see finishTicket.
  obs::Span Write("notification_write");
  Write.annotate("ticket", Ticket);
  writeToConnection(Conn, Payload);
}

Json CompileServer::handleCancel(Connection &Conn, const Json &Request) {
  uint64_t Ticket = static_cast<uint64_t>(Request.integer("ticket", 0));
  if (Ticket == 0)
    return errorResponse(Request, "cancel requires a positive 'ticket'");
  bool Known = false, WasPending = false;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    Known = Ticket < Conn.NextTicket;
    WasPending = Conn.Tickets.erase(Ticket) > 0;
  }
  if (!Known)
    return errorResponse(Request, "unknown ticket " + std::to_string(Ticket) +
                                      " (never issued on this connection)");
  if (WasPending)
    TicketsCancelled.fetch_add(1);
  // Cancellation is delivery-only: the session job (and the shared cache
  // entry other clients may be joining) runs to completion regardless —
  // a cancel can never corrupt or evict single-flight state.
  Json J = Json::object();
  J.set("type", "cancelled");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("ticket", Ticket);
  J.set("was_pending", WasPending);
  return J;
}

Json CompileServer::handlePoll(Connection &Conn, const Json &Request) {
  uint64_t Ticket = static_cast<uint64_t>(Request.integer("ticket", 0));
  if (Ticket == 0)
    return errorResponse(Request, "poll requires a positive 'ticket'");
  bool Known = false, Pending = false;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    Known = Ticket < Conn.NextTicket;
    Pending = Conn.Tickets.count(Ticket) != 0;
  }
  if (!Known)
    return errorResponse(Request, "unknown ticket " + std::to_string(Ticket) +
                                      " (never issued on this connection)");
  Json J = Json::object();
  J.set("type", "ticket_status");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("ticket", Ticket);
  // "resolved" covers delivered, failed-and-delivered, and cancelled —
  // the table only distinguishes pending from gone.
  J.set("state", Pending ? "pending" : "resolved");
  return J;
}

Json CompileServer::handleCompileModel(Connection &Conn, const Json &Request) {
  const std::string TargetId = Request.str("target", "x86");
  TargetBackendRef Target = TargetRegistry::instance().lookup(TargetId);
  if (!Target)
    return errorResponse(Request, "unknown target '" + TargetId + "'");
  const Json *ModelJson = Request.get("model");
  if (!ModelJson)
    return errorResponse(Request, "missing 'model' object");
  Model M;
  std::string WireErr;
  if (!modelFromJson(*ModelJson, M, WireErr))
    return errorResponse(Request, WireErr);

  CompileOptions Options = optionsFromJson(Request.get("options"));
  Options.MaxCandidates =
      effectiveBudget(Conn.ClientName, Options.MaxCandidates);

  double T0 = steadyNowSeconds();
  ModelCompileResult Result;
  try {
    Result = Session->compileModel(M, *Target, Options);
  } catch (...) {
    // Layers compiled before the failing one are already in the cache;
    // a conservative dirty tick keeps the persist thread from skipping
    // them if the daemon later dies ungracefully.
    if (Options.Policy != CachePolicy::Bypass)
      CompilesSinceSave.fetch_add(1);
    throw; // serveConnection's barrier turns this into an error reply.
  }
  double Seconds = steadyNowSeconds() - T0;
  // Dirty-flag for the persist thread: only kernels this call actually
  // compiled changed the cache (race-free FreshCompiles, not the probed
  // hit count — and Bypass writes nothing).
  if (Options.Policy != CachePolicy::Bypass && Result.FreshCompiles > 0)
    CompilesSinceSave.fetch_add(1);
  logSlowCompile(Config.SlowCompileMillis, Seconds, Conn.ClientName,
                 /*Ticket=*/0,
                 Result.FreshCompiles > 0 ? "model" : "model-warm",
                 /*Report=*/nullptr);
  recordServed(Conn, Seconds, Result.Layers.size(), Result.CacheHitLayers,
               /*FreshKernels=*/Result.FreshCompiles, /*IsCompile=*/true);

  Json Layers = Json::array();
  for (const KernelReport &R : Result.Layers)
    Layers.push(toJson(R));
  Json J = Json::object();
  J.set("type", "model_result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("model", M.Name);
  J.set("layers", std::move(Layers));
  J.set("distinct_shapes", Result.DistinctShapes);
  J.set("cache_hit_layers", Result.CacheHitLayers);
  J.set("wall_seconds", Result.WallSeconds);
  return J;
}

Json CompileServer::handleListTargets(const Json &Request) {
  // The registry snapshot *is* the response: backends registered after
  // the daemon started (in-process hosts can do that) appear here with
  // no server change, which is how test_extensibility proves the
  // spec-only integration story over the wire.
  Json Targets = Json::array();
  for (const TargetBackendRef &B : TargetRegistry::instance().all()) {
    Json T = Json::object();
    T.set("id", B->id());
    T.set("description", B->description());
    T.set("conv3d", B->supportsConv3d());
    T.set("spec_hash", B->specHash());
    T.set("source", specSourceName(
                        TargetRegistry::instance().specSourceFor(B->id())));
    Json Intrs = Json::array();
    for (const TensorIntrinsicRef &I : B->intrinsics())
      Intrs.push(I->name());
    T.set("intrinsics", std::move(Intrs));
    Targets.push(std::move(T));
  }
  Json J = Json::object();
  J.set("type", "targets");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("targets", std::move(Targets));
  return J;
}

Json CompileServer::handleRegisterTarget(Connection &Conn,
                                         const Json &Request) {
  // Registering a backend changes what every subsequent compile on this
  // daemon can do — operator action, not client traffic. TCP callers
  // proved the shared secret before their first frame reached dispatch;
  // this re-check makes a future dispatch-path mistake fail closed
  // instead of open.
  if (Conn.NeedsAuth && !Conn.Authed)
    return errorResponse(Request,
                         "register_target requires an authenticated "
                         "connection");
  const Json *SpecDoc = Request.get("spec");
  if (!SpecDoc || !SpecDoc->isObject())
    return errorResponse(Request,
                         "register_target needs a 'spec' object (the "
                         "target-spec JSON document, docs/BACKENDS.md)");
  if (SpecDoc->dump().size() > MaxSpecFileBytes)
    return errorResponse(Request,
                         "register_target spec exceeds the " +
                             std::to_string(MaxSpecFileBytes) +
                             "-byte spec-document limit");
  TargetSpec Spec;
  std::string Err;
  // parseSpec validates everything TargetSpec::validate() would abort
  // on, so wire input can never reach the fatal path; a rejected spec
  // leaves the registry untouched.
  if (!parseSpec(*SpecDoc, Spec, &Err))
    return errorResponse(Request, Err);
  TargetBackendRef Backend =
      TargetRegistry::instance().registerSpec(std::move(Spec),
                                              SpecSource::Wire);
  Json J = Json::object();
  J.set("type", "target_registered");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("target", Backend->id());
  J.set("spec_hash", Backend->specHash());
  J.set("source", specSourceName(SpecSource::Wire));
  return J;
}

Json CompileServer::handleStats(const Json &Request) {
  KernelCache::CacheStats CS = Session->cache().stats();
  Json Cache = Json::object();
  Cache.set("entries", CS.Entries);
  Cache.set("bytes", CS.BytesUsed);
  Cache.set("capacity", Session->cache().capacity());
  Cache.set("hits", CS.Hits);
  Cache.set("misses", CS.Misses);
  Cache.set("evictions", CS.Evictions);

  Json ClientsJson = Json::array();
  Totals Snapshot;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Snapshot = Lifetime;
    for (const auto &KV : Clients) {
      const ClientStats &C = KV.second;
      Json CJ = Json::object();
      CJ.set("client", KV.first);
      CJ.set("requests", C.Requests);
      CJ.set("compile_requests", C.CompileRequests);
      CJ.set("layers_requested", C.LayersRequested);
      CJ.set("layers_from_cache", C.LayersFromCache);
      if (C.MaxCandidatesCap > 0)
        CJ.set("max_candidates", C.MaxCandidatesCap);
      CJ.set("total_seconds", C.TotalSeconds);
      CJ.set("max_seconds", C.MaxSeconds);
      if (C.CompileRequests > 0)
        CJ.set("mean_seconds", C.TotalSeconds / C.CompileRequests);
      ClientsJson.push(std::move(CJ));
    }
  }

  Json J = Json::object();
  J.set("type", "stats_result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("uptime_seconds", steadyNowSeconds() - StartSeconds);
  J.set("build", obs::buildString());
  J.set("pid", static_cast<int64_t>(::getpid()));
  J.set("connections", Snapshot.Connections);
  J.set("requests", Snapshot.Requests);
  J.set("compiled_kernels", Snapshot.CompiledKernels);
  J.set("errors", Snapshot.Errors);
  J.set("tuner_invocations", tunerInvocations());
  J.set("inflight_jobs", Session->inFlightJobs());
  // Resolve counters, blocking and streaming requests alike.
  SessionStats SS = Session->sessionStats();
  // Tuner economics (docs/TUNING.md). The process-wide counters sit next
  // to the session's transfer_seeds so one stats probe answers "is the
  // search actually being cut": pruned_candidates > 0 proves early exit
  // is biting, transfer_seeds > 0 proves warm starts are flowing, and
  // refit_active distinguishes measured machine constants from factory
  // ones. tuner_invocations stays top-level for older dashboards.
  Json Tuner = Json::object();
  Tuner.set("invocations", tunerInvocations());
  Tuner.set("candidates_scored", tunerCandidatesScored());
  Tuner.set("pruned_candidates", tunerPrunedCandidates());
  Tuner.set("transfer_seeds", SS.TransferSeeds);
  Tuner.set("refit_active", machineOverlayActive());
  J.set("tuner", std::move(Tuner));
  Json SessionJson = Json::object();
  SessionJson.set("continuation_joins", SS.ContinuationJoins);
  SessionJson.set("inline_ready_hits", SS.InlineReadyHits);
  SessionJson.set("fresh_dispatches", SS.FreshDispatches);
  J.set("session", std::move(SessionJson));
  // Snapshot order is the consistency guarantee: the later-lifecycle
  // counters (delivered, cancelled) are acquire-read *before* issued.
  // Both only ever grow after an issue, so any interleaving yields
  // delivered <= issued and cancelled <= issued — a monitoring client
  // can never observe a notification for a ticket the same snapshot has
  // not issued yet.
  uint64_t Delivered = NotificationsDelivered.load(std::memory_order_acquire);
  uint64_t Cancelled = TicketsCancelled.load(std::memory_order_acquire);
  uint64_t Issued = TicketsIssued.load(std::memory_order_acquire);
  Json Streaming = Json::object();
  Streaming.set("tickets_issued", Issued);
  Streaming.set("notifications_delivered", Delivered);
  Streaming.set("tickets_cancelled", Cancelled);
  J.set("streaming", std::move(Streaming));
  // Fabric counters are always present (zeros on a Unix-only daemon) so
  // fleet dashboards need no schema probing.
  Json Fabric = Json::object();
  Fabric.set("tcp_listen", Config.TcpListen);
  Fabric.set("tcp_port", static_cast<int64_t>(BoundTcpPort));
  Fabric.set("auth_failures", AuthFailures.load());
  Fabric.set("peers_configured",
             static_cast<uint64_t>(Config.Peers.size()));
  PeerManager::Stats PS = PeerMgr ? PeerMgr->stats() : PeerManager::Stats{};
  Fabric.set("peers_connected", PS.PeersConnected);
  Fabric.set("entries_pushed", PS.EntriesPushed);
  Fabric.set("entries_fetched", PS.EntriesFetched);
  Fabric.set("fetch_hits", PS.FetchHits);
  Fabric.set("fetch_misses", PS.FetchMisses);
  Fabric.set("fetches_served", PeerFetchesServed.load());
  Fabric.set("pushes_served", PeerPushesServed.load());
  Fabric.set("entries_served", PeerEntriesServed.load());
  Fabric.set("entries_accepted", PeerEntriesAccepted.load());
  J.set("fabric", std::move(Fabric));
  J.set("cache", std::move(Cache));
  J.set("clients", std::move(ClientsJson));

  if (Request.boolean("detail", false)) {
    Json Entries = Json::array();
    for (const KernelCache::EntrySize &E :
         Session->cache().entrySizes(MaxShownKeyBytes)) {
      Json EJ = Json::object();
      EJ.set("key", E.Key);
      EJ.set("bytes", E.Bytes);
      EJ.set("ready", E.Ready);
      Entries.push(std::move(EJ));
    }
    J.set("entries", std::move(Entries));
  }
  return J;
}

Json CompileServer::handleSaveCache(const Json &Request) {
  // Wire input is untrusted: an arbitrary client-supplied path would let
  // any connection rename-replace any file the daemon user can write.
  // Saves go to the operator-configured cache file, full stop; a 'path'
  // is accepted only when it matches it.
  std::string Path = Request.str("path", Config.CacheFile);
  if (Config.CacheFile.empty())
    return errorResponse(Request, "the server has no configured cache file");
  if (Path != Config.CacheFile)
    return errorResponse(Request, "save_cache only writes the server's "
                                  "configured cache file");
  // The dirty snapshot is taken under SaveMu so racing savers cannot
  // both subtract the same ticks (an underflow would disable the
  // persist thread's idle short-circuit forever); ticks from compiles
  // finishing during the save still survive it.
  std::optional<size_t> Saved;
  {
    std::lock_guard<std::mutex> Lock(SaveMu);
    uint64_t Dirty = CompilesSinceSave.load();
    Saved = Session->saveCache(Path);
    if (Saved)
      CompilesSinceSave.fetch_sub(Dirty);
  }
  if (!Saved)
    return errorResponse(Request, "could not write '" + Path + "'");
  Json J = Json::object();
  J.set("type", "saved");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("path", Path);
  J.set("entries", *Saved);
  return J;
}

Json CompileServer::handleMetrics(const Json &Request) {
  // One frozen snapshot per family — each is internally consistent
  // (count equals the bucket sum) even while compiles are landing.
  CompilerSession::LatencySnapshots LS = Session->latencySnapshots();
  Json Hists = Json::object();
  Hists.set("unit_compile_cold_seconds", toJson(LS.Cold));
  Hists.set("unit_compile_warm_seconds", toJson(LS.Warm));
  Hists.set("unit_compile_join_seconds", toJson(LS.Join));
  Hists.set("unit_frame_seconds", toJson(FrameLatencyHist.snapshot()));
  Hists.set("unit_peer_fetch_seconds",
            toJson(PeerMgr ? PeerMgr->fetchRtt() : obs::HistogramSnapshot()));
  Hists.set("unit_tuner_candidate_seconds", toJson(tunerCandidateCost()));
  Json J = Json::object();
  J.set("type", "metrics");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("uptime_seconds", steadyNowSeconds() - StartSeconds);
  J.set("build", obs::buildString());
  J.set("histograms", std::move(Hists));
  return J;
}

Json CompileServer::handleDumpTrace(const Json &Request) {
  Json J = Json::object();
  J.set("type", "trace");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("enabled", Trace != nullptr);
  J.set("trace", chromeTraceJson(Trace ? Trace->snapshot()
                                       : std::vector<obs::TraceEvent>()));
  return J;
}

//===----------------------------------------------------------------------===//
// Peer cache exchange (the serving side of fabric/PeerManager.h)
//===----------------------------------------------------------------------===//

std::string CompileServer::peerFingerprint() const {
  return Config.PeerFingerprintOverride.empty()
             ? CompilerSession::persistenceFingerprint()
             : Config.PeerFingerprintOverride;
}

Json CompileServer::handleFetchCache(const Json &Request) {
  PeerFetchesServed.fetch_add(1);
  Json Entries = Json::array();
  size_t Count = 0;
  // Mismatched fingerprints exchange nothing — an empty reply, not an
  // error: reports are only valid between identical machine/tuner/format
  // configurations, and a mixed fleet should degrade to independent
  // daemons, not to a poisoned cache.
  if (Request.str("fingerprint") == peerFingerprint()) {
    std::vector<std::string> Keys;
    bool HasKeys = false;
    if (const Json *KeysJson = Request.get("keys")) {
      HasKeys = KeysJson->isArray();
      if (HasKeys)
        for (const Json &K : KeysJson->items())
          if (K.isString())
            Keys.push_back(K.asString());
    }
    // Targeted fetches (cold-miss probes) are never byte-capped — the
    // caller asked for specific keys; only bulk warm syncs are.
    std::vector<KernelCache::ExportedEntry> Exported =
        Session->cache().exportReady(HasKeys ? 0 : Config.MaxPeerExchangeBytes,
                                     HasKeys ? &Keys : nullptr);
    Count = Exported.size();
    Entries = cacheEntriesToJson(Exported);
  }
  PeerEntriesServed.fetch_add(Count);
  Json J = Json::object();
  J.set("type", "cache_entries");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("fingerprint", peerFingerprint());
  J.set("entries", std::move(Entries));
  return J;
}

Json CompileServer::handlePushCache(const Json &Request) {
  PeerPushesServed.fetch_add(1);
  size_t Accepted = 0;
  if (Request.str("fingerprint") == peerFingerprint()) {
    Accepted = Session->cache().importReady(
        cacheEntriesFromJson(Request.get("entries")));
    // Imported entries are cache content the persist thread has not
    // saved yet — they must survive a crash like locally tuned ones.
    if (Accepted > 0)
      CompilesSinceSave.fetch_add(1);
  }
  PeerEntriesAccepted.fetch_add(Accepted);
  Json J = Json::object();
  J.set("type", "cache_pushed");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("accepted", Accepted);
  return J;
}

//===----------------------------------------------------------------------===//
// Periodic persistence
//===----------------------------------------------------------------------===//

void CompileServer::persistLoop() {
  std::unique_lock<std::mutex> Lock(ShutdownMu);
  auto Interval = std::chrono::duration<double>(Config.PersistIntervalSeconds);
  while (!ShutdownRequested && !Stopping.load()) {
    ShutdownCv.wait_for(Lock, Interval);
    if (ShutdownRequested || Stopping.load())
      break; // stop() takes the final save after joining this thread.
    // With a TTL configured, sweep expired entries on the same cadence —
    // expiry is otherwise lazy, and a long-lived daemon should release
    // dead entries' bytes even for keys nobody asks about again.
    if (Session->cache().ttlSeconds() > 0) {
      Lock.unlock();
      Session->cache().purgeExpired();
      Lock.lock();
      if (ShutdownRequested || Stopping.load())
        break;
    }
    if (CompilesSinceSave.load() == 0)
      continue;
    Lock.unlock();
    {
      // Snapshot under SaveMu (see handleSaveCache), and only a
      // successful save consumes the dirty count — a transient write
      // failure leaves it set, so the next interval retries instead of
      // silently dropping everything since the last good save.
      std::lock_guard<std::mutex> SaveLock(SaveMu);
      uint64_t Dirty = CompilesSinceSave.load();
      if (Dirty != 0 && Session->saveCache(Config.CacheFile))
        CompilesSinceSave.fetch_sub(Dirty);
    }
    Lock.lock();
  }
}
