//===- server/CompileServer.h - Cross-model batch compile daemon ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer over CompilerSession: one daemon accepting many
/// clients on a Unix-domain socket (length-prefixed JSON messages, see
/// docs/SERVER.md), all sharing one session — so isomorphic layers of
/// concurrently submitted models single-flight onto one tuner run, and a
/// model one client already compiled is a pure cache hit for the next.
/// The *session*, not a model, is the unit of deployment.
///
/// Admission control: each compile request carries CompileOptions, and
/// each client may be capped to a per-client tuning budget at hello time; the
/// server clamps every request's MaxCandidates to the client's cap and
/// the server-wide cap, whichever is tighter.
///
/// Streaming: compile_async answers with a ticket immediately and the
/// result is pushed later as a notification, so one connection pipelines
/// many compiles. Each connection keeps a ticket table and a frame-level
/// write mutex that multiplexes notifications (written by session pool
/// workers as jobs resolve, in completion order) with ordinary replies
/// (written by the connection thread). Delivery of a ticket's
/// notification is deferred until its submitted reply has hit the wire,
/// so a client never learns a result before the ticket that names it;
/// cancel drops a pending ticket's delivery (the underlying cache entry,
/// shared with other clients, always completes); poll reports liveness.
///
/// Persistence: when configured with a cache file the server loads it at
/// start (warm restart: zero tuner invocations for known kernels), saves
/// it periodically while compiles are happening, and saves once more on
/// graceful shutdown.
///
/// Shutdown is orderly: stop() (or a client's shutdown message followed
/// by the owner calling stop()) closes the listener, lets every in-flight
/// request finish and deliver its response, quiesces the session's async
/// jobs, persists, and only then returns.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SERVER_COMPILESERVER_H
#define UNIT_SERVER_COMPILESERVER_H

#include "fabric/PeerManager.h"
#include "runtime/CompilerSession.h"
#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace unit {

struct ServerConfig {
  /// Unix-domain socket path the daemon listens on. Required. Kept short
  /// (sun_path is ~100 bytes); an existing stale socket file is replaced.
  std::string SocketPath;

  /// Kernel-cache persistence file; empty disables persistence.
  std::string CacheFile;

  /// Seconds between periodic cache saves (only when compiles happened
  /// since the last save); <= 0 disables the periodic thread — the cache
  /// is then saved only on graceful shutdown.
  double PersistIntervalSeconds = 30.0;

  /// Server-wide tuning-budget cap applied to every request
  /// (<= 0 = unlimited). Per-client caps from hello tighten it further.
  int MaxCandidatesCap = 0;

  /// TCP listen endpoint ("host:port", "[v6addr]:port", or ":port";
  /// port 0 = OS-assigned, discoverable via tcpPort()). Empty = Unix
  /// socket only. Requires a non-empty Secret — every TCP connection is
  /// gated by the shared-secret challenge handshake before its first
  /// request frame.
  std::string TcpListen;

  /// Shared secret for the fabric handshake (fabric/Handshake.h). Never
  /// crosses the wire; required when TcpListen or Peers are set.
  std::string Secret;

  /// Peer daemon endpoints ("host:port") to exchange tuned-kernel cache
  /// entries with (fabric/PeerManager.h). Peers whose persistence
  /// fingerprint differs exchange nothing, by design.
  std::vector<std::string> Peers;

  /// Test hook: the fingerprint announced to / compared against peers
  /// instead of CompilerSession::persistenceFingerprint(). Lets tests
  /// prove the mismatch path without faking a whole divergent target
  /// registry.
  std::string PeerFingerprintOverride;

  /// Byte cap on one bulk peer cache exchange (fetch_cache with no key
  /// list). 0 = the PeerManager default.
  size_t MaxPeerExchangeBytes = 4u << 20;

  /// Compile-lifecycle tracing (docs/OBSERVABILITY.md): when enabled the
  /// server owns a TraceRecorder, installs it process-wide for the span
  /// instrumentation in session/tuner/fabric, and serves `dump_trace`.
  /// Off costs nothing; on costs one ring write per span.
  bool TraceEnabled = true;

  /// Byte budget of each writer thread's trace ring (drop-oldest).
  size_t TraceBytesPerThread = 256 * 1024;

  /// When set, stop() writes the final trace as Chrome trace-event JSON
  /// here (the --trace-out flag) — load it in Perfetto.
  std::string TraceOutFile;

  /// Compiles (blocking or streaming) whose server-side wall time is at
  /// least this many milliseconds get a one-line span digest on stderr;
  /// <= 0 disables the slow log.
  double SlowCompileMillis = 0;

  /// The session to serve. Null = the server constructs a private one
  /// from SessionCfg (the common daemon case; tests pass their own).
  std::shared_ptr<CompilerSession> Session;
  SessionConfig SessionCfg;
};

class CompileServer {
public:
  explicit CompileServer(ServerConfig Config);
  ~CompileServer();

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds + listens + starts the accept loop (and the persist thread
  /// when configured). Loads CacheFile first when present. Returns false
  /// with \p Err filled on socket errors.
  bool start(std::string *Err = nullptr);

  /// Graceful shutdown; idempotent and safe to call concurrently from
  /// any thread that is not a connection handler — late callers block
  /// until the teardown in progress completes (so a destructor racing an
  /// explicit stop() never destroys members still in use). See file
  /// comment for the ordering.
  void stop();

  bool running() const { return Running.load(); }

  /// Blocks until a client sends a shutdown message, stop() runs, or
  /// \p InterruptFlag (when non-null, e.g. wired to SIGINT) becomes
  /// non-zero. The caller still calls stop() afterwards.
  void waitForShutdownRequest(
      const volatile std::sig_atomic_t *InterruptFlag = nullptr);

  CompilerSession &session() { return *Session; }
  const std::string &socketPath() const { return Config.SocketPath; }

  /// The port the TCP listener is bound to (0 when TcpListen is unset).
  /// With "--listen-tcp host:0" this is where the OS-assigned port
  /// becomes known — tests and supervisors read it instead of racing a
  /// log line.
  uint16_t tcpPort() const { return BoundTcpPort; }

  /// Outcome of start()'s CacheFile load — lets the host warn when a
  /// warm-start file was rejected (corrupted, or written under another
  /// machine/tuner fingerprint) instead of starting cold in silence.
  const KernelCache::LoadResult &cacheLoadResult() const { return CacheLoad; }

  /// Lifetime totals (also surfaced through the stats message).
  struct Totals {
    uint64_t Connections = 0;
    uint64_t Requests = 0;
    /// Kernels this server actually compiled (race-free, from the
    /// compile itself): cache hits and single-flight joins of another
    /// client's in-flight compile never count.
    uint64_t CompiledKernels = 0;
    uint64_t Errors = 0; ///< Error responses sent.
  };
  Totals totals() const;

private:
  /// Everything the server tracks about one client name: admission cap
  /// and latency accounting. Kept by name across reconnects.
  struct ClientStats {
    int MaxCandidatesCap = 0; ///< <= 0 = uncapped (beyond the server cap).
    uint64_t Requests = 0;
    uint64_t CompileRequests = 0;
    uint64_t LayersRequested = 0;
    uint64_t LayersFromCache = 0;
    double TotalSeconds = 0; ///< Wall time spent serving this client.
    double MaxSeconds = 0;
  };

  /// One pending (or resolved-but-unannounced) compile_async ticket.
  struct TicketState {
    /// True once the submitted reply naming this ticket has been written.
    /// A job that resolves earlier parks its payload in Deferred instead
    /// of writing — the client must never see a result for a ticket it
    /// has not been told about.
    bool Announced = false;
    /// The notification frame of a job that resolved pre-announce.
    std::string Deferred;
  };

  struct Connection {
    int Fd = -1;
    /// TCP connections must pass the shared-secret challenge before
    /// their first request frame; Unix connections skip it (filesystem
    /// permissions on the socket path are their gate).
    bool NeedsAuth = false;
    /// Set once the challenge succeeds. Handlers that mutate global
    /// state (register_target) re-check NeedsAuth implies Authed as
    /// defense in depth, so a dispatch-path regression fails closed.
    bool Authed = false;
    /// From hello; connections that never introduce themselves share the
    /// "(anonymous)" stats bucket — per-connection names would grow the
    /// Clients map without bound on a daemon serving short connections.
    std::string ClientName;
    std::thread Thread;
    std::atomic<bool> Done{false};

    /// One frame at a time on Fd: the connection thread's replies and the
    /// pool workers' pushed notifications interleave at frame granularity
    /// behind this, never mid-frame.
    std::mutex WriteMu;

    /// Ticket table (guarded by TicketMu). A ticket lives here from
    /// compile_async until its notification is delivered or it is
    /// cancelled; UnresolvedJobs counts completion callbacks not yet
    /// fired (cancelled tickets included — the session job still runs),
    /// and TicketCv wakes the drain that keeps this Connection alive
    /// until the last callback referencing it has finished.
    std::mutex TicketMu;
    std::condition_variable TicketCv;
    uint64_t NextTicket = 1;
    std::map<uint64_t, TicketState> Tickets;
    size_t UnresolvedJobs = 0;
  };

  /// One accept loop per listener: the Unix socket and (when configured)
  /// the TCP listener each run this on their own thread. \p RequireAuth
  /// marks accepted connections for the handshake gate.
  void acceptLoop(int ListenerFd, bool RequireAuth);
  void serveConnection(Connection &Conn);
  void persistLoop();
  /// Joins and closes finished connections. Called from the accept loop
  /// on every new connection *and* on fd exhaustion — finished fds are
  /// closed only here and in stop(), and freeing them is what gets
  /// accept() past EMFILE.
  void reapFinishedConnections();

  /// Sets ShutdownRequested and wakes waitForShutdownRequest() and the
  /// persist thread — the one place the signaling sequence lives.
  void requestShutdown();

  /// Dispatches one request; returns the response message and sets
  /// \p CloseAfter for shutdown and \p AnnounceTicket for compile_async
  /// (the ticket whose deferred notification becomes deliverable once
  /// the response is on the wire). Compile paths may throw (backends and
  /// bad_alloc propagate through the cache by design) — serveConnection
  /// wraps the call in an exception barrier that turns the failure into
  /// an error response instead of terminating the daemon.
  Json handleRequest(Connection &Conn, const Json &Request, bool &CloseAfter,
                     uint64_t &AnnounceTicket);
  Json handleHello(Connection &Conn, const Json &Request);
  Json handleCompile(Connection &Conn, const Json &Request);
  Json handleCompileAsync(Connection &Conn, const Json &Request,
                          uint64_t &AnnounceTicket);
  Json handleCancel(Connection &Conn, const Json &Request);
  Json handlePoll(Connection &Conn, const Json &Request);
  Json handleCompileModel(Connection &Conn, const Json &Request);
  Json handleListTargets(const Json &Request);
  Json handleRegisterTarget(Connection &Conn, const Json &Request);
  Json handleStats(const Json &Request);
  Json handleSaveCache(const Json &Request);
  /// Observability handlers (docs/OBSERVABILITY.md): `metrics` serves
  /// every latency-histogram family; `dump_trace` serves the recorder's
  /// current contents as Chrome trace-event JSON.
  Json handleMetrics(const Json &Request);
  Json handleDumpTrace(const Json &Request);
  /// Peer exchange handlers (docs/SERVER.md, "Fleet"). A fingerprint
  /// mismatch answers with zero entries / zero accepted — an empty
  /// exchange, not an error, so mixed fleets degrade to independence.
  Json handleFetchCache(const Json &Request);
  Json handlePushCache(const Json &Request);

  /// The fingerprint peer exchange is keyed on (the override, or the
  /// session's persistence fingerprint).
  std::string peerFingerprint() const;

  /// Decodes target/workload/options out of a compile or compile_async
  /// request (the shared half of the two handlers). On failure returns
  /// false with \p ErrorReply filled.
  bool parseCompileRequest(Connection &Conn, const Json &Request,
                           std::optional<CompileRequest> &Out,
                           Json &ErrorReply);

  /// Writes one frame to \p Conn under its write mutex. A false return
  /// means the peer is gone; callers drop the frame (the read loop will
  /// notice on its side).
  bool writeToConnection(Connection &Conn, const std::string &Payload);

  /// Marks \p Ticket announced and delivers its notification if the job
  /// already resolved. Called by serveConnection right after writing the
  /// submitted reply.
  void announceTicket(Connection &Conn, uint64_t Ticket);

  /// The completion hook for one streaming job: delivers (or defers) the
  /// notification, does the stats/persistence accounting, and signals the
  /// connection drain. Runs on a session pool worker.
  void finishTicket(Connection &Conn, uint64_t Ticket, double SubmitSeconds,
                    CachePolicy Policy, const KernelReport *Report,
                    std::exception_ptr Error, bool Computed);

  /// Clamps \p Requested through the client's and the server's budget
  /// caps (tightest positive cap wins; <= 0 stays "full space" only when
  /// no cap applies).
  int effectiveBudget(const std::string &ClientName, int Requested) const;

  /// The stats bucket for \p ClientName, bounded: hello names are
  /// caller-controlled, so past MaxClientBuckets distinct names new ones
  /// fold into one "(overflow)" bucket instead of growing the map (and
  /// every stats response) without bound over a daemon's uptime.
  /// StatsMu must be held.
  ClientStats &clientSlotLocked(const std::string &ClientName);

  Json errorResponse(const Json &Request, const std::string &Message);
  /// The accounting every single-kernel compile gets, blocking (\p Ticket
  /// 0) or streaming: the persist thread's dirty flag, the slow-compile
  /// digest, and the client's served-request stats. A null \p Report is a
  /// failed streaming job.
  void accountCompile(Connection &Conn, uint64_t Ticket, double Seconds,
                      CachePolicy Policy, const KernelReport *Report,
                      bool Computed);
  void recordServed(Connection &Conn, double Seconds, uint64_t Layers,
                    uint64_t FromCache, uint64_t FreshKernels,
                    bool IsCompile);

  ServerConfig Config;
  std::shared_ptr<CompilerSession> Session;

  int ListenFd = -1;
  /// TCP side of the fabric (−1 when TcpListen is unset); its own accept
  /// thread feeds the same serveConnection, behind the handshake gate.
  int TcpListenFd = -1;
  uint16_t BoundTcpPort = 0;
  std::thread TcpAcceptThread;
  /// Peer cache exchange (null when no --peer endpoints).
  std::unique_ptr<PeerManager> PeerMgr;
  /// flock()-held for the server's lifetime ("<socket>.lock"): the
  /// authoritative claim on the socket path. The connect()-probe in
  /// start() only produces a nicer message; the lock is what prevents
  /// two daemons racing a stale socket from both binding (and stop()
  /// from unlinking a replacement's live socket).
  int LockFd = -1;
  std::thread AcceptThread;
  std::thread PersistThread;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  /// Serializes stop() so a second caller returns only after teardown
  /// finished, not while it is in progress.
  std::mutex StopMu;

  mutable std::mutex ConnMu;
  std::vector<std::unique_ptr<Connection>> Connections;

  mutable std::mutex StatsMu;
  std::map<std::string, ClientStats> Clients; ///< Ordered => stable stats.
  Totals Lifetime;
  double StartSeconds = 0;
  /// From start(); see cacheLoadResult(). Initialized to FileNotFound
  /// (LoadResult's own default is BadFormat, which would read as a
  /// corruption warning on a server configured without a cache file).
  KernelCache::LoadResult CacheLoad{KernelCache::LoadStatus::FileNotFound, 0};

  std::mutex ShutdownMu;
  std::condition_variable ShutdownCv;
  bool ShutdownRequested = false;

  /// Serializes cache saves: the persist thread, save_cache handlers,
  /// and stop() must never write one file concurrently (saveFile is
  /// atomic per call via tmp+rename, but interleaved renames would
  /// still race on which snapshot wins).
  std::mutex SaveMu;

  /// Compiles completed since the last persist (persist thread trigger).
  std::atomic<uint64_t> CompilesSinceSave{0};

  /// Streaming lifetime counters (surfaced in the stats message's
  /// "streaming" object; atomics because notifications complete on pool
  /// workers, not the stats-serving thread).
  std::atomic<uint64_t> TicketsIssued{0};
  std::atomic<uint64_t> NotificationsDelivered{0};
  std::atomic<uint64_t> TicketsCancelled{0};

  /// Fabric lifetime counters (the stats message's "fabric" object).
  std::atomic<uint64_t> AuthFailures{0};
  std::atomic<uint64_t> PeerFetchesServed{0};
  std::atomic<uint64_t> PeerPushesServed{0};
  std::atomic<uint64_t> PeerEntriesServed{0};
  std::atomic<uint64_t> PeerEntriesAccepted{0};

  /// Request-frame round trip (read -> reply written), all request
  /// types — the unit_frame_seconds metrics family.
  obs::LatencyHistogram FrameLatencyHist;

  /// The trace recorder behind every span this process records while the
  /// server runs (installed as the process-wide active recorder in
  /// start(), uninstalled in stop()). Null when TraceEnabled is false.
  std::unique_ptr<obs::TraceRecorder> Trace;
};

} // namespace unit

#endif // UNIT_SERVER_COMPILESERVER_H
