//===- tests/test_server.cpp - CompileServer / protocol tests --------------===//
//
// Covers every protocol message documented in docs/SERVER.md (hello,
// compile, compile_model, list_targets, stats, save_cache, shutdown, the
// error response, and the streaming family: compile_async / pushed
// result notifications / cancel / poll), the cross-client single-flight
// guarantee — blocking and streaming — plus protocol robustness against
// malformed traffic, out-of-order result delivery on one pipelined
// connection, and graceful drain with tickets in flight.
//
//===----------------------------------------------------------------------===//

#include "CacheTestUtil.h"
#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"
#include "fabric/Hmac.h"
#include "graph/Executor.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "server/Protocol.h"
#include "server/RemoteEngine.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, DumpParseRoundTrip) {
  Json J = Json::object();
  J.set("str", "he\"llo\n");
  J.set("num", 42);
  J.set("frac", 1.5);
  J.set("yes", true);
  J.set("nothing", Json());
  Json Arr = Json::array();
  Arr.push(1).push("two").push(false);
  J.set("arr", std::move(Arr));
  Json Nested = Json::object();
  Nested.set("k", "v");
  J.set("obj", std::move(Nested));

  std::string Text = J.dump();
  std::optional<Json> Back = Json::parse(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->str("str"), "he\"llo\n");
  EXPECT_EQ(Back->integer("num"), 42);
  EXPECT_DOUBLE_EQ(Back->num("frac"), 1.5);
  EXPECT_TRUE(Back->boolean("yes"));
  EXPECT_TRUE(Back->get("nothing")->isNull());
  ASSERT_TRUE(Back->get("arr")->isArray());
  EXPECT_EQ(Back->get("arr")->items().size(), 3u);
  EXPECT_EQ(Back->get("obj")->str("k"), "v");
  // Dump is deterministic (insertion-ordered objects).
  EXPECT_EQ(Back->dump(), Text);
}

TEST(Json, ParseRejectsGarbage) {
  std::string Err;
  EXPECT_FALSE(Json::parse("{", &Err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &Err).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &Err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}", &Err).has_value());
  EXPECT_FALSE(Json::parse("nul", &Err).has_value());
  EXPECT_FALSE(Json::parse("", &Err).has_value());
  // Depth bomb parses without stack overflow and reports an error.
  std::string Deep(1000, '[');
  EXPECT_FALSE(Json::parse(Deep, &Err).has_value());
}

TEST(Json, EscapesRoundTrip) {
  std::optional<Json> J = Json::parse("\"a\\u0041\\t\\\\b\"");
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->asString(), "aA\t\\b");
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

TEST(Frames, RoundTripOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  EXPECT_TRUE(writeFrame(Fds[0], "{\"type\":\"hello\"}"));
  EXPECT_TRUE(writeFrame(Fds[0], "")); // Empty payload frames fine.
  std::string Payload;
  EXPECT_EQ(readFrame(Fds[1], Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "{\"type\":\"hello\"}");
  EXPECT_EQ(readFrame(Fds[1], Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "");
  ::close(Fds[0]);
  EXPECT_EQ(readFrame(Fds[1], Payload), FrameStatus::Eof);
  ::close(Fds[1]);
}

TEST(Frames, OversizedLengthPrefixIsError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const char Huge[4] = {0x7f, 0x00, 0x00, 0x00}; // ~2 GB claimed.
  ASSERT_EQ(::write(Fds[0], Huge, 4), 4);
  std::string Payload;
  EXPECT_EQ(readFrame(Fds[1], Payload), FrameStatus::Error);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Frames, MidFrameEofIsError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const char Partial[6] = {0x00, 0x00, 0x00, 0x08, 'a', 'b'}; // Claims 8.
  ASSERT_EQ(::write(Fds[0], Partial, 6), 6);
  ::close(Fds[0]);
  std::string Payload;
  EXPECT_EQ(readFrame(Fds[1], Payload), FrameStatus::Error);
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// Schema codecs
//===----------------------------------------------------------------------===//

TEST(Codecs, ConvLayerRoundTrip) {
  ConvLayer L;
  L.Name = "conv1";
  L.InC = 3; L.InH = 224; L.InW = 224;
  L.OutC = 64; L.KH = 7; L.KW = 7;
  L.Stride = 2; L.PadH = 3; L.PadW = 3;
  ConvLayer Back;
  std::string Err;
  ASSERT_TRUE(convLayerFromJson(toJson(L), Back, Err)) << Err;
  EXPECT_EQ(Back.shapeKey(), L.shapeKey());
  EXPECT_EQ(Back.Name, "conv1");
}

TEST(Codecs, ModelRoundTripPreservesEveryLayer) {
  Model M = makeResnet18();
  Model Back;
  std::string Err;
  ASSERT_TRUE(modelFromJson(toJson(M), Back, Err)) << Err;
  ASSERT_EQ(Back.Convs.size(), M.Convs.size());
  for (size_t I = 0; I < M.Convs.size(); ++I)
    EXPECT_EQ(Back.Convs[I].shapeKey(), M.Convs[I].shapeKey());
  EXPECT_EQ(Back.Name, M.Name);
  EXPECT_DOUBLE_EQ(Back.ElementwiseBytes, M.ElementwiseBytes);
  EXPECT_EQ(Back.GlueOps, M.GlueOps);
}

TEST(Codecs, MissingDimensionIsAnError) {
  Json J = Json::object();
  J.set("kind", "conv2d");
  J.set("name", "bad");
  J.set("in_c", 3); // Everything else missing.
  ConvLayer L;
  std::string Err;
  EXPECT_FALSE(convLayerFromJson(J, L, Err));
  EXPECT_NE(Err.find("in_h"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Server fixture
//===----------------------------------------------------------------------===//

/// One server on a private session and a temp socket per test.
class ServerTest : public ::testing::Test {
protected:
  std::string SocketPath;
  std::unique_ptr<CompileServer> Server;

  static std::string tempPath(const char *Suffix) {
    static std::atomic<int> Counter{0};
    return "/tmp/unit_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + Suffix;
  }

  void startServer(ServerConfig Config = {}) {
    SocketPath = tempPath(".sock");
    Config.SocketPath = SocketPath;
    Server = std::make_unique<CompileServer>(std::move(Config));
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
  }

  void TearDown() override {
    if (Server)
      Server->stop();
  }

  /// A connected, hello'd client.
  std::unique_ptr<CompileClient> makeClient(const std::string &Name,
                                            int Budget = 0) {
    auto Client = std::make_unique<CompileClient>();
    std::string Err;
    EXPECT_TRUE(Client->connect(SocketPath, &Err)) << Err;
    EXPECT_TRUE(Client->hello(Name, Budget, &Err).has_value()) << Err;
    return Client;
  }
};

TEST_F(ServerTest, HelloReturnsWelcome) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  std::optional<Json> Welcome = Client.hello("tester", 0, &Err);
  ASSERT_TRUE(Welcome.has_value()) << Err;
  EXPECT_EQ(Welcome->str("type"), "welcome");
  EXPECT_EQ(Welcome->str("server"), "unit_serve");
  EXPECT_EQ(Welcome->integer("protocol"), ProtocolVersion);
  EXPECT_EQ(Welcome->str("fingerprint"),
            CompilerSession::persistenceFingerprint());
  // The ticket budget is advertised so clients adapt to it instead of
  // hardcoding the bound.
  EXPECT_EQ(Welcome->integer("max_pending_tickets"),
            static_cast<int64_t>(MaxPendingTicketsPerConnection));
}

TEST_F(ServerTest, ListTargetsAdvertisesTheRegistry) {
  startServer();
  auto Client = makeClient("lister");
  std::string Err;
  std::optional<std::vector<CompileClient::TargetInfo>> Targets =
      Client->listTargets(&Err);
  ASSERT_TRUE(Targets.has_value()) << Err;

  // The response mirrors the process-wide registry exactly: every
  // registered backend, with its spec hash and conv3d capability.
  std::vector<TargetBackendRef> All = TargetRegistry::instance().all();
  ASSERT_EQ(Targets->size(), All.size());
  std::set<std::string> Ids;
  for (const CompileClient::TargetInfo &T : *Targets)
    Ids.insert(T.Id);
  for (const char *Expected : {"x86", "arm", "nvgpu", "x86-amx", "arm-sve"})
    EXPECT_EQ(Ids.count(Expected), 1u) << Expected;
  for (const CompileClient::TargetInfo &T : *Targets) {
    TargetBackendRef B = TargetRegistry::instance().get(T.Id);
    EXPECT_EQ(T.SpecHash, B->specHash());
    EXPECT_EQ(T.SupportsConv3d, B->supportsConv3d());
    EXPECT_FALSE(T.Intrinsics.empty());
  }
  // Every advertised target actually compiles over this connection.
  ConvLayer L{"probe", 64, 14, 14, 64, 1, 1, 1, 0, 0, false};
  for (const CompileClient::TargetInfo &T : *Targets) {
    std::optional<CompileClient::CompileResult> R =
        Client->compileConv(T.Id, L, {}, &Err);
    EXPECT_TRUE(R.has_value()) << T.Id << ": " << Err;
  }
}

TEST_F(ServerTest, CompileConvColdThenCached) {
  startServer();
  auto Client = makeClient("c");
  ConvLayer L = makeResnet18().Convs[3];
  std::string Err;
  std::optional<CompileClient::CompileResult> Cold =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Cold.has_value()) << Err;
  EXPECT_FALSE(Cold->Cached);
  EXPECT_GT(Cold->Report.Seconds, 0.0);
  EXPECT_TRUE(Cold->Report.Tensorized);

  std::optional<CompileClient::CompileResult> Warm =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Warm->Report.Seconds, Cold->Report.Seconds);
  EXPECT_EQ(Warm->Report.IntrinsicName, Cold->Report.IntrinsicName);
}

TEST_F(ServerTest, RemoteReportsMatchLocalSession) {
  startServer();
  auto Client = makeClient("remote");
  Model M = makeResnet18();
  std::string Err;
  std::optional<CompileClient::ModelResult> Remote =
      Client->compileModel("x86", M, {}, &Err);
  ASSERT_TRUE(Remote.has_value()) << Err;
  ASSERT_EQ(Remote->Layers.size(), M.Convs.size());

  CompilerSession Local;
  ModelCompileResult Expected = Local.compileModel(M, "x86");
  for (size_t I = 0; I < M.Convs.size(); ++I) {
    EXPECT_EQ(Remote->Layers[I].Seconds, Expected.Layers[I].Seconds);
    EXPECT_EQ(Remote->Layers[I].Tensorized, Expected.Layers[I].Tensorized);
    EXPECT_EQ(Remote->Layers[I].BestCandidateIndex,
              Expected.Layers[I].BestCandidateIndex);
    EXPECT_EQ(Remote->Layers[I].IntrinsicName,
              Expected.Layers[I].IntrinsicName);
  }
  EXPECT_EQ(Remote->DistinctShapes, Expected.DistinctShapes);
}

TEST_F(ServerTest, DenseSharesTheConv2dCacheEntry) {
  startServer();
  auto Client = makeClient("dense");
  std::string Err;
  std::optional<CompileClient::CompileResult> Dense =
      Client->compileDense("x86", "fc", 512, 1000, {}, &Err);
  ASSERT_TRUE(Dense.has_value()) << Err;
  EXPECT_FALSE(Dense->Cached);

  // The dense layer *is* a 1x1 conv on a 1x1 image — compiling that conv
  // explicitly must be a pure cache hit.
  ConvLayer AsConv;
  AsConv.Name = "fc_as_conv";
  AsConv.InC = 512;
  AsConv.OutC = 1000;
  std::optional<CompileClient::CompileResult> Conv =
      Client->compileConv("x86", AsConv, {}, &Err);
  ASSERT_TRUE(Conv.has_value()) << Err;
  EXPECT_TRUE(Conv->Cached);
  EXPECT_EQ(Conv->Report.Seconds, Dense->Report.Seconds);
}

TEST_F(ServerTest, Conv3dCompilesOnCpuAndIsRejectedOnGpu) {
  startServer();
  auto Client = makeClient("c3d");
  Conv3dLayer L = makeResnet18Conv3d()[2];
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Client->compileConv3d("x86", L, {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_GT(R->Report.Seconds, 0.0);

  Err.clear();
  EXPECT_FALSE(
      Client->compileConv3d("nvgpu", L, {}, &Err).has_value());
  EXPECT_NE(Err.find("conv3d"), std::string::npos);
}

/// The acceptance criterion: two concurrently connected clients compiling
/// isomorphic models share tuned kernels — the tuner runs exactly once
/// per distinct structural key across *both* clients.
TEST_F(ServerTest, TwoClientsCompilingIsomorphicModelsSingleFlight) {
  startServer();

  Model A = makeResnet18();
  Model B = makeResnet18();
  B.Name = "resnet-18-renamed";
  for (ConvLayer &L : B.Convs)
    L.Name = "clone_" + L.Name; // Renames never enter structural keys.

  // Expected tuner work: the distinct canonical keys across both models
  // (identical for A and B, since they are isomorphic layer by layer).
  TargetBackendRef Backend = TargetRegistry::instance().get("x86");
  std::set<std::string> DistinctKeys;
  for (const Model *M : {&A, &B})
    for (const ConvLayer &L : M->Convs)
      DistinctKeys.insert(
          CompileRequest(Workload::conv2d(L), Backend).cacheKey());

  uint64_t TunesBefore = tunerInvocations();
  std::optional<CompileClient::ModelResult> ResultA, ResultB;
  std::string ErrA, ErrB;
  std::thread ClientA([&] {
    CompileClient Client;
    if (Client.connect(SocketPath, &ErrA) &&
        Client.hello("client-a", 0, &ErrA))
      ResultA = Client.compileModel("x86", A, {}, &ErrA);
  });
  std::thread ClientB([&] {
    CompileClient Client;
    if (Client.connect(SocketPath, &ErrB) &&
        Client.hello("client-b", 0, &ErrB))
      ResultB = Client.compileModel("x86", B, {}, &ErrB);
  });
  ClientA.join();
  ClientB.join();

  ASSERT_TRUE(ResultA.has_value()) << ErrA;
  ASSERT_TRUE(ResultB.has_value()) << ErrB;

  // Single-flight across clients: one tuner invocation per distinct
  // structural key, no matter how the two submissions interleaved.
  EXPECT_EQ(tunerInvocations() - TunesBefore, DistinctKeys.size());
  EXPECT_EQ(Server->session().cache().size(), DistinctKeys.size());

  // Isomorphic layers got byte-identical reports on both clients.
  ASSERT_EQ(ResultA->Layers.size(), ResultB->Layers.size());
  for (size_t I = 0; I < ResultA->Layers.size(); ++I) {
    EXPECT_EQ(ResultA->Layers[I].Seconds, ResultB->Layers[I].Seconds);
    EXPECT_EQ(ResultA->Layers[I].IntrinsicName,
              ResultB->Layers[I].IntrinsicName);
  }
}

TEST_F(ServerTest, RacingCompilesOfOneLayerAccountOneCompiledLayer) {
  startServer();
  ConvLayer L = makeResnet18().Convs[9];
  uint64_t TunesBefore = tunerInvocations();
  std::optional<CompileClient::CompileResult> R1, R2;
  std::string E1, E2;
  std::thread A([&] {
    CompileClient C;
    if (C.connect(SocketPath, &E1) && C.hello("race-a", 0, &E1))
      R1 = C.compileConv("x86", L, {}, &E1);
  });
  std::thread B([&] {
    CompileClient C;
    if (C.connect(SocketPath, &E2) && C.hello("race-b", 0, &E2))
      R2 = C.compileConv("x86", L, {}, &E2);
  });
  A.join();
  B.join();
  ASSERT_TRUE(R1.has_value()) << E1;
  ASSERT_TRUE(R2.has_value()) << E2;
  EXPECT_EQ(R1->Report.Seconds, R2->Report.Seconds);
  // One tuner run, one compiled layer — the loser of the cache race is a
  // single-flight joiner (cached), never a second compile. The flags are
  // exact (derived from who actually compiled, not a cache probe).
  EXPECT_EQ(tunerInvocations() - TunesBefore, 1u);
  EXPECT_EQ(Server->totals().CompiledKernels, 1u);
  EXPECT_TRUE(R1->Cached != R2->Cached);
}

TEST_F(ServerTest, SecondServerOnALiveSocketRefusesToStart) {
  startServer();
  ServerConfig Config;
  Config.SocketPath = SocketPath; // Same path, server alive.
  CompileServer Second(std::move(Config));
  std::string Err;
  EXPECT_FALSE(Second.start(&Err));
  // The flock claim fails first; the connect-probe message appears only
  // if a stale lock slipped through. Either way the path is refused.
  EXPECT_TRUE(Err.find("another server owns") != std::string::npos ||
              Err.find("already listening") != std::string::npos)
      << Err;
  // The first server is untouched.
  auto Client = makeClient("still-works");
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

TEST_F(ServerTest, PerClientBudgetClampsTheSearch) {
  startServer();
  ConvLayer L = makeResnet18().Convs[5];

  // Budget declared at hello time applies to every request of the client.
  auto Capped = makeClient("capped", /*Budget=*/3);
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Capped->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_LE(R->Report.CandidatesTried, 3);

  // An uncapped client searches the full space — and caches separately
  // (a budgeted report must not shadow the full-search one).
  auto Full = makeClient("full");
  std::optional<CompileClient::CompileResult> FullR =
      Full->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(FullR.has_value()) << Err;
  EXPECT_FALSE(FullR->Cached);
  EXPECT_GT(FullR->Report.CandidatesTried, 3);
}

TEST_F(ServerTest, ServerWideBudgetCapAppliesToEveryClient) {
  ServerConfig Config;
  Config.MaxCandidatesCap = 2;
  startServer(std::move(Config));
  auto Client = makeClient("any");
  ConvLayer L = makeResnet18().Convs[7];
  CompileOptions Options;
  Options.MaxCandidates = 100; // Asks for more than the server allows.
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Client->compileConv("x86", L, Options, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_LE(R->Report.CandidatesTried, 2);
}

TEST_F(ServerTest, StatsReportByteAccountedCacheAndPerClientLatency) {
  startServer();
  auto Client = makeClient("statster");
  Model M = makeResnet18();
  std::string Err;
  ASSERT_TRUE(Client->compileModel("x86", M, {}, &Err)) << Err;

  std::optional<Json> Stats = Client->stats(/*Detail=*/true, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  EXPECT_EQ(Stats->str("type"), "stats_result");
  EXPECT_GT(Stats->num("uptime_seconds"), 0.0);
  EXPECT_GE(Stats->integer("tuner_invocations"), 0);

  const Json *Cache = Stats->get("cache");
  ASSERT_NE(Cache, nullptr);
  size_t Distinct = static_cast<size_t>(M.distinctConvShapes());
  EXPECT_EQ(static_cast<size_t>(Cache->integer("entries")), Distinct);
  EXPECT_GT(Cache->integer("bytes"), 0);
  EXPECT_EQ(static_cast<size_t>(Cache->integer("entries")),
            Server->session().cache().size());
  EXPECT_EQ(static_cast<size_t>(Cache->integer("bytes")),
            Server->session().cache().bytesUsed());

  // Per-entry detail sums to the total.
  const Json *Entries = Stats->get("entries");
  ASSERT_NE(Entries, nullptr);
  ASSERT_EQ(Entries->items().size(), Distinct);
  int64_t Sum = 0;
  for (const Json &E : Entries->items()) {
    EXPECT_GT(E.integer("bytes"), 0);
    EXPECT_TRUE(E.boolean("ready"));
    Sum += E.integer("bytes");
  }
  EXPECT_EQ(Sum, Cache->integer("bytes"));

  // Per-client accounting saw the compile.
  const Json *Clients = Stats->get("clients");
  ASSERT_NE(Clients, nullptr);
  bool Found = false;
  for (const Json &C : Clients->items())
    if (C.str("client") == "statster") {
      Found = true;
      EXPECT_EQ(C.integer("compile_requests"), 1);
      EXPECT_EQ(static_cast<size_t>(C.integer("layers_requested")),
                M.Convs.size());
      EXPECT_GT(C.num("total_seconds"), 0.0);
    }
  EXPECT_TRUE(Found);
}

TEST_F(ServerTest, SaveCacheMessageAndWarmRestartFromPersistedCache) {
  std::string CachePath = tempPath(".kc");
  {
    ServerConfig Config;
    Config.CacheFile = CachePath;
    Config.PersistIntervalSeconds = 0; // Shutdown-save only.
    startServer(std::move(Config));
    auto Client = makeClient("writer");
    Model M = makeResnet18();
    std::string Err;
    ASSERT_TRUE(Client->compileModel("x86", M, {}, &Err)) << Err;

    // Explicit save_cache message (the periodic thread is off).
    std::optional<size_t> Saved = Client->saveCache("", &Err);
    ASSERT_TRUE(Saved.has_value()) << Err;
    EXPECT_EQ(*Saved, static_cast<size_t>(M.distinctConvShapes()));
    Server->stop();
  }

  // A fresh server process-equivalent: new session, same cache file.
  // Every kernel restores from disk — zero tuner invocations.
  {
    ServerConfig Config;
    Config.CacheFile = CachePath;
    startServer(std::move(Config));
    auto Client = makeClient("reader");
    Model M = makeResnet18();
    uint64_t TunesBefore = tunerInvocations();
    std::string Err;
    std::optional<CompileClient::ModelResult> R =
        Client->compileModel("x86", M, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(tunerInvocations(), TunesBefore);
    EXPECT_EQ(R->CacheHitLayers, M.Convs.size());
  }
  std::remove(CachePath.c_str());
}

TEST_F(ServerTest, ErrorResponsesForBadTraffic) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;

  // Unknown request type.
  Json Unknown = Json::object();
  Unknown.set("type", "frobnicate");
  Unknown.set("id", 7);
  std::optional<Json> R = Client.request(Unknown, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_EQ(R->integer("id"), 7); // Echoed for correlation.

  // Unknown target.
  Json BadTarget = Json::object();
  BadTarget.set("type", "compile");
  BadTarget.set("target", "riscv");
  BadTarget.set("workload", toJson(makeResnet18().Convs[0]));
  R = Client.request(BadTarget, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_NE(R->str("message").find("riscv"), std::string::npos);

  // Malformed workload (missing dims).
  Json BadWork = Json::object();
  BadWork.set("type", "compile");
  Json Work = Json::object();
  Work.set("kind", "conv2d");
  BadWork.set("workload", std::move(Work));
  R = Client.request(BadWork, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");

  // Astronomical dimensions are wire errors, not daemon aborts.
  ConvLayer Huge;
  Huge.Name = "huge";
  Huge.InC = int64_t(1) << 40;
  Huge.InH = Huge.InW = 224;
  Huge.OutC = 64;
  Huge.KH = Huge.KW = 3;
  {
    std::string CompileErr;
    CompileClient C2;
    ASSERT_TRUE(C2.connect(SocketPath, &CompileErr)) << CompileErr;
    EXPECT_FALSE(
        C2.compileConv("x86", Huge, {}, &CompileErr).has_value());
    EXPECT_NE(CompileErr.find("maximum"), std::string::npos);

    // A kernel larger than the padded input is a wire error too (it
    // would fatal-error the in-process pipeline).
    ConvLayer Shrunk;
    Shrunk.Name = "kernel_gt_input";
    Shrunk.InC = 8;
    Shrunk.InH = Shrunk.InW = 3;
    Shrunk.OutC = 8;
    Shrunk.KH = Shrunk.KW = 7;
    CompileErr.clear();
    EXPECT_FALSE(
        C2.compileConv("x86", Shrunk, {}, &CompileErr).has_value());
    EXPECT_NE(CompileErr.find("output extent"), std::string::npos);
  }

  // The connection survives every error above.
  Json StillAlive = Json::object();
  StillAlive.set("type", "stats");
  R = Client.request(StillAlive, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "stats_result");
}

TEST_F(ServerTest, MalformedJsonGetsErrorAndConnectionSurvives) {
  startServer();
  // Hand-rolled connection: a valid frame carrying an invalid JSON
  // payload (CompileClient cannot produce one on purpose).
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ASSERT_TRUE(writeFrame(Fd, "this is not json"));
  std::string Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  std::optional<Json> Response = Json::parse(Payload);
  ASSERT_TRUE(Response.has_value());
  EXPECT_EQ(Response->str("type"), "error");
  EXPECT_NE(Response->str("message").find("malformed JSON"),
            std::string::npos);

  // Same connection still serves real requests.
  Json Stats = Json::object();
  Stats.set("type", "stats");
  ASSERT_TRUE(writeFrame(Fd, Stats.dump()));
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  Response = Json::parse(Payload);
  ASSERT_TRUE(Response.has_value());
  EXPECT_EQ(Response->str("type"), "stats_result");
  ::close(Fd);
}

TEST_F(ServerTest, FramingViolationGetsPromptEofNotAHang) {
  startServer();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // A length prefix beyond MaxFrameBytes is a framing violation: the
  // server must end the connection (visible EOF) rather than leave the
  // client blocked until the next accept happens to reap the fd.
  const char Huge[4] = {0x7f, 0x00, 0x00, 0x00};
  ASSERT_EQ(::write(Fd, Huge, 4), 4);
  std::string Payload;
  FrameStatus Status = readFrame(Fd, Payload);
  EXPECT_TRUE(Status == FrameStatus::Eof || Status == FrameStatus::Error);
  ::close(Fd);
}

TEST_F(ServerTest, ShutdownMessageStopsTheServer) {
  startServer();
  auto Client = makeClient("terminator");
  std::string Err;
  ASSERT_TRUE(Client->shutdownServer(&Err)) << Err;

  // The owner observes the request and completes the stop.
  Server->waitForShutdownRequest();
  Server->stop();
  EXPECT_FALSE(Server->running());

  // Socket file is gone; new connections fail.
  CompileClient Late;
  EXPECT_FALSE(Late.connect(SocketPath, &Err));
}

/// Orderly shutdown with a request in flight: the response is still
/// delivered before the connection closes.
TEST_F(ServerTest, StopDeliversInFlightResponses) {
  startServer();
  auto Client = makeClient("inflight");
  uint64_t RequestsBefore = 0;
  {
    // hello + connection already counted; remember the request total.
    RequestsBefore = Server->totals().Requests;
  }

  Model M = makeResnet50(); // Enough layers that the compile takes a beat.
  std::optional<CompileClient::ModelResult> Result;
  std::string Err;
  std::thread Worker(
      [&] { Result = Client->compileModel("x86", M, {}, &Err); });

  // Wait until the server has *read* the compile request (the totals
  // counter increments before handling), then yank the rug.
  while (Server->totals().Requests <= RequestsBefore)
    std::this_thread::yield();
  Server->stop();
  Worker.join();

  ASSERT_TRUE(Result.has_value()) << Err;
  EXPECT_EQ(Result->Layers.size(), M.Convs.size());
  for (const KernelReport &R : Result->Layers)
    EXPECT_GT(R.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Streaming: compile_async / result notifications / cancel / poll
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, SubmitResolvesLikeBlockingCompile) {
  startServer();
  auto Client = makeClient("streamer");
  ConvLayer L = makeResnet18().Convs[4];
  std::string Err;

  std::optional<CompileClient::AsyncHandle> Handle =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(Handle.has_value()) << Err;
  EXPECT_GT(Handle->Ticket, 0u);
  std::optional<CompileClient::CompileResult> Streamed =
      Client->wait(*Handle, &Err);
  ASSERT_TRUE(Streamed.has_value()) << Err;
  EXPECT_FALSE(Streamed->Cached);
  EXPECT_EQ(Streamed->Arrival, 1u);

  // The pushed report is byte-identical to the blocking path's.
  std::optional<CompileClient::CompileResult> Blocking =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Blocking.has_value()) << Err;
  EXPECT_TRUE(Blocking->Cached);
  EXPECT_EQ(Blocking->Report.Seconds, Streamed->Report.Seconds);
  EXPECT_EQ(Blocking->Report.IntrinsicName, Streamed->Report.IntrinsicName);

  // A warm resubmission resolves cached, and the ticket is fresh.
  std::optional<CompileClient::AsyncHandle> Warm =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_GT(Warm->Ticket, Handle->Ticket);
  std::optional<CompileClient::CompileResult> WarmResult =
      Client->wait(*Warm, &Err);
  ASSERT_TRUE(WarmResult.has_value()) << Err;
  EXPECT_TRUE(WarmResult->Cached);
  EXPECT_EQ(WarmResult->Report.Seconds, Streamed->Report.Seconds);
}

/// A compile the test controls: the entry is planted in the server
/// session's cache as an in-flight winner that blocks on \p GateOpen, so
/// every compile_async for the same structural key joins it and cannot
/// resolve until the gate opens. What "slow kernel" looks like to the
/// streaming machinery, made deterministic.
struct GatedCompiles {
  std::shared_future<void> GateOpen;
  std::vector<std::thread> Winners;

  GatedCompiles(CompilerSession &Session, std::shared_future<void> Gate,
                const std::vector<ConvLayer> &Layers, double SecondsBase)
      : GateOpen(std::move(Gate)) {
    TargetBackendRef Backend = TargetRegistry::instance().get("x86");
    for (size_t I = 0; I < Layers.size(); ++I) {
      std::string Key =
          CompileRequest(Workload::conv2d(Layers[I]), Backend).cacheKey();
      Winners.emplace_back([&Session, this, Key, SecondsBase, I] {
        testutil::resolveOrCompute(Session.cache(), Key, [&] {
          GateOpen.wait();
          KernelReport R;
          R.Seconds = SecondsBase + static_cast<double>(I);
          R.Tensorized = true;
          return R;
        });
      });
      // The winner must be in flight before anyone submits against the
      // key (the entry appears when the winner's resolve plants it).
      while (!Session.cache().contains(Key))
        std::this_thread::yield();
    }
  }
  void join() {
    for (std::thread &T : Winners)
      if (T.joinable())
        T.join();
  }
  ~GatedCompiles() { join(); }
};

std::vector<ConvLayer> syntheticLayers(size_t N, int64_t BaseChannels) {
  std::vector<ConvLayer> Layers;
  for (size_t I = 0; I < N; ++I) {
    ConvLayer L;
    L.Name = "gated_" + std::to_string(I);
    L.InC = BaseChannels + static_cast<int64_t>(I) * 16;
    L.InH = L.InW = 14;
    L.OutC = 64;
    L.KH = L.KW = 1;
    Layers.push_back(L);
  }
  return Layers;
}

/// The acceptance criterion: one connection holds >= 8 concurrent
/// in-flight compiles, results are delivered out of submission order,
/// and cancel on an in-flight ticket never corrupts the shared cache.
TEST_F(ServerTest, OneConnectionPipelinesEightInFlightOutOfOrder) {
  ServerConfig Config;
  // Plenty of workers; FanInBeyondPoolSizeRidesContinuations below covers
  // the starved-pool regime (joins are continuations, not parked threads).
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(8, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/100.0);

  auto Client = makeClient("pipeliner");
  std::string Err;

  // Submit the eight gated layers first, then one duplicate of the first
  // gated key (to cancel mid-flight), then two free layers.
  std::vector<CompileClient::AsyncHandle> GatedHandles;
  for (const ConvLayer &L : Gated) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", L, {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    GatedHandles.push_back(*H);
  }
  std::optional<CompileClient::AsyncHandle> ToCancel =
      Client->submitConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(ToCancel.has_value()) << Err;

  Model Zoo = makeResnet18();
  std::vector<CompileClient::AsyncHandle> Free;
  for (size_t I : {size_t(3), size_t(9)}) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", Zoo.Convs[I], {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    Free.push_back(*H);
  }

  // The free submissions (sent last) complete while all eight gated
  // tickets are still in flight — out-of-order delivery on one socket.
  std::vector<uint64_t> FreeArrivals;
  for (const CompileClient::AsyncHandle &H : Free) {
    std::optional<CompileClient::CompileResult> R = Client->wait(H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
    FreeArrivals.push_back(R->Arrival);
  }
  for (const CompileClient::AsyncHandle &H : GatedHandles) {
    std::optional<std::string> State = Client->poll(H, &Err);
    ASSERT_TRUE(State.has_value()) << Err;
    EXPECT_EQ(*State, "pending");
  }

  // Cancel the duplicate while its key is provably still in flight.
  ASSERT_TRUE(Client->cancel(*ToCancel, &Err)) << Err;
  std::optional<std::string> CancelledState = Client->poll(*ToCancel, &Err);
  ASSERT_TRUE(CancelledState.has_value()) << Err;
  EXPECT_EQ(*CancelledState, "resolved");
  std::string CancelErr;
  EXPECT_FALSE(Client->wait(*ToCancel, &CancelErr).has_value());
  EXPECT_NE(CancelErr.find("cancelled"), std::string::npos);

  // >= 8 concurrent in-flight tickets on this one connection.
  EXPECT_EQ(Client->pendingTickets(), 8u);

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;

  uint64_t MaxFree = std::max(FreeArrivals[0], FreeArrivals[1]);
  for (size_t I = 0; I < GatedHandles.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(GatedHandles[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    // Joined the planted winner: cached, with its synthetic report.
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 100.0 + static_cast<double>(I));
    EXPECT_GT(R->Arrival, MaxFree); // Delivered after both frees.
  }

  // The cancelled ticket corrupted nothing: the shared entry still
  // serves its key, bit-equal, as a pure hit.
  std::optional<CompileClient::CompileResult> AfterCancel =
      Client->compileConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(AfterCancel.has_value()) << Err;
  EXPECT_TRUE(AfterCancel->Cached);
  EXPECT_EQ(AfterCancel->Report.Seconds, 100.0);

  // Streaming counters: 11 tickets issued, 10 delivered, 1 cancelled.
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Streaming = Stats->get("streaming");
  ASSERT_NE(Streaming, nullptr);
  EXPECT_EQ(Streaming->integer("tickets_issued"), 11);
  EXPECT_EQ(Streaming->integer("notifications_delivered"), 10);
  EXPECT_EQ(Streaming->integer("tickets_cancelled"), 1);
}

/// Streaming stress: 4 clients x 8 pipelined compiles drawn (shuffled,
/// with structural duplicates) from 6 distinct layers. Single-flight
/// must hold across connections — tuner invocations == distinct keys —
/// and every client sees identical reports per layer.
TEST_F(ServerTest, StreamingStressCrossConnectionSingleFlight) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  Model Zoo = makeResnet18();
  // Six structurally distinct layers (resnet18 repeats shapes; dedup).
  TargetBackendRef Backend = TargetRegistry::instance().get("x86");
  std::vector<ConvLayer> Distinct;
  std::set<std::string> Keys;
  for (const ConvLayer &L : Zoo.Convs) {
    if (Keys.insert(CompileRequest(Workload::conv2d(L), Backend).cacheKey())
            .second)
      Distinct.push_back(L);
    if (Distinct.size() == 6)
      break;
  }
  ASSERT_EQ(Distinct.size(), 6u);

  constexpr size_t Clients = 4, PerClient = 8;
  uint64_t TunesBefore = tunerInvocations();
  // Results[c][i] = seconds for client c's i-th submission.
  double Results[Clients][PerClient];
  int Picked[Clients][PerClient];
  std::string Errors[Clients];
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      CompileClient Client;
      if (!Client.connect(SocketPath, &Errors[C]) ||
          !Client.hello("stress-" + std::to_string(C), 0, &Errors[C]))
        return;
      std::vector<CompileClient::AsyncHandle> Handles;
      for (size_t I = 0; I < PerClient; ++I) {
        // A different duplicate-bearing shuffle per client: every layer
        // appears somewhere, several appear twice per client, and no two
        // clients submit in the same order.
        int Pick = static_cast<int>((I * 5 + C * 3 + (I % 2) * C) % 6);
        Picked[C][I] = Pick;
        std::optional<CompileClient::AsyncHandle> H =
            Client.submitConv("x86", Distinct[Pick], {}, &Errors[C]);
        if (!H)
          return;
        Handles.push_back(*H);
      }
      for (size_t I = 0; I < PerClient; ++I) {
        std::optional<CompileClient::CompileResult> R =
            Client.wait(Handles[I], &Errors[C]);
        if (!R) {
          Errors[C] = "wait failed: " + Errors[C];
          return;
        }
        Results[C][I] = R->Report.Seconds;
      }
      Errors[C] = "ok";
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t C = 0; C < Clients; ++C)
    ASSERT_EQ(Errors[C], "ok");

  // Cross-connection single-flight: 32 submissions, 6 tuner runs.
  EXPECT_EQ(tunerInvocations() - TunesBefore, 6u);

  // Agreement: every submission of one layer got the same report, and it
  // matches what the server now serves warm.
  auto WarmClient = makeClient("stress-verify");
  std::string Err;
  for (size_t Pick = 0; Pick < Distinct.size(); ++Pick) {
    std::optional<CompileClient::CompileResult> Warm =
        WarmClient->compileConv("x86", Distinct[Pick], {}, &Err);
    ASSERT_TRUE(Warm.has_value()) << Err;
    EXPECT_TRUE(Warm->Cached);
    for (size_t C = 0; C < Clients; ++C)
      for (size_t I = 0; I < PerClient; ++I)
        if (Picked[C][I] == static_cast<int>(Pick))
          EXPECT_EQ(Results[C][I], Warm->Report.Seconds);
  }
}

/// Graceful drain under streaming (extends StopDeliversInFlightResponses
/// to the pipelined path): shutdown with pending tickets still delivers
/// every result after the bye — no ticket is lost, no client hangs.
TEST_F(ServerTest, ShutdownWithPendingTicketsDeliversEveryResult) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(4, 48);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/200.0);

  auto Client = makeClient("drainer");
  std::string Err;
  std::vector<CompileClient::AsyncHandle> Handles;
  for (const ConvLayer &L : Gated) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", L, {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    Handles.push_back(*H);
  }

  // Raw shutdown request (shutdownServer() would close our socket and
  // orphan the pending futures): the server answers bye, stops reading
  // this connection, and *then* drains the ticket table into it.
  Json Shutdown = Json::object();
  Shutdown.set("type", "shutdown");
  std::optional<Json> Bye = Client->request(Shutdown, &Err);
  ASSERT_TRUE(Bye.has_value()) << Err;
  EXPECT_EQ(Bye->str("type"), "bye");

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (size_t I = 0; I < Handles.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(Handles[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->Report.Seconds, 200.0 + static_cast<double>(I));
  }

  Server->waitForShutdownRequest();
  Server->stop();
  EXPECT_FALSE(Server->running());
}

/// A client that vanishes with tickets in flight must not wedge the
/// daemon: its connection drains (the writes fail silently), new clients
/// are served, and stop() completes.
TEST_F(ServerTest, ClientVanishingWithPendingTicketsLeavesServerHealthy) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(2, 80);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/300.0);
  {
    CompileClient Doomed;
    std::string Err;
    ASSERT_TRUE(Doomed.connect(SocketPath, &Err)) << Err;
    ASSERT_TRUE(Doomed.hello("doomed", 0, &Err).has_value()) << Err;
    for (const ConvLayer &L : Gated)
      ASSERT_TRUE(Doomed.submitConv("x86", L, {}, &Err).has_value()) << Err;
  } // Destructor closes the socket with both tickets pending.

  Gate.set_value();
  Blocked.join();

  auto Survivor = makeClient("survivor");
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Survivor->compileConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_TRUE(R->Cached);
  EXPECT_EQ(R->Report.Seconds, 300.0);

  Server->stop();
  EXPECT_FALSE(Server->running());
}

/// The continuation engine observed through the wire: a pool of TWO
/// workers sustains 32 pending joins on one connection, because a join
/// is a registered callback on the in-flight entry, not a parked thread.
/// (Under the parked-join engine each join pinned a worker on the
/// winner's future, so 32 joins on a 2-thread pool starved every later
/// compile.) The free layers, submitted last, complete first — and the
/// server's own counters show every gated ticket joined as a
/// continuation.
TEST_F(ServerTest, FanInBeyondPoolSizeRidesContinuations) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 2; // Far fewer workers than pending joins.
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(8, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/400.0);

  auto Client = makeClient("fanin");
  std::string Err;

  // 8 gated keys x 4 tickets each: 32 joins in flight on 2 threads.
  std::vector<CompileClient::AsyncHandle> Joined;
  for (int Round = 0; Round < 4; ++Round)
    for (const ConvLayer &L : Gated) {
      std::optional<CompileClient::AsyncHandle> H =
          Client->submitConv("x86", L, {}, &Err);
      ASSERT_TRUE(H.has_value()) << Err;
      Joined.push_back(*H);
    }

  // Two free layers submitted after the fan-in. If any join held a
  // worker, zero threads would be left to run these.
  Model Zoo = makeResnet18();
  for (size_t I : {size_t(3), size_t(9)}) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", Zoo.Convs[I], {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    std::optional<CompileClient::CompileResult> R = Client->wait(*H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
    // Out-of-order delivery: the frees are the only notifications so far.
    EXPECT_LE(R->Arrival, 2u);
  }
  EXPECT_EQ(Client->pendingTickets(), 32u);

  // The session's own accounting: every gated ticket is a continuation
  // join.
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *SessionJson = Stats->get("session");
  ASSERT_NE(SessionJson, nullptr);
  EXPECT_GE(SessionJson->integer("continuation_joins"), 32);

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (size_t I = 0; I < Joined.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(Joined[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 400.0 + static_cast<double>(I % 8));
  }
}

/// The raised ticket budget, exercised at the bound: 8192 tickets pend
/// on ONE connection (all joining a single gated key, so the whole load
/// is continuation state — no thread, no extra compile), submission
/// 8193 gets the budget error naming the new limit, and once the gate
/// opens all 8192 resolve to the winner's report.
TEST_F(ServerTest, TicketBudgetHoldsEightThousandJoinsOnOneConnection) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 2;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(1, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/500.0);

  auto Client = makeClient("budget");
  std::string Err;

  // Pipeline exactly MaxPendingTicketsPerConnection submissions of the
  // one gated layer (submitModelLayers streams the frames back-to-back;
  // 8192 blocking round trips would drown the test in socket stalls).
  Model Burst;
  Burst.Name = "burst";
  Burst.Convs.assign(MaxPendingTicketsPerConnection, Gated[0]);
  std::optional<std::vector<CompileClient::AsyncHandle>> Handles =
      Client->submitModelLayers("x86", Burst, {}, &Err);
  ASSERT_TRUE(Handles.has_value()) << Err;
  ASSERT_EQ(Handles->size(), MaxPendingTicketsPerConnection);
  EXPECT_EQ(Client->pendingTickets(), MaxPendingTicketsPerConnection);

  // One past the budget: an error frame naming the limit — and the
  // connection survives to keep serving (waitAll below proves it).
  std::string BudgetErr;
  EXPECT_FALSE(
      Client->submitConv("x86", Gated[0], {}, &BudgetErr).has_value());
  EXPECT_NE(BudgetErr.find("8192"), std::string::npos) << BudgetErr;

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (const CompileClient::AsyncHandle &H :
       {Handles->front(), Handles->back()}) {
    std::optional<CompileClient::CompileResult> R = Client->wait(H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 500.0);
  }

  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *SessionJson = Stats->get("session");
  ASSERT_NE(SessionJson, nullptr);
  EXPECT_GE(SessionJson->integer("continuation_joins"),
            static_cast<int64_t>(MaxPendingTicketsPerConnection));
}

/// Auto-reconnect: a client whose connection dies with a ticket in
/// flight redials the path, replays hello, resubmits the ticket, and
/// the ORIGINAL future resolves against the new server. The first
/// "server" is a bare listener speaking just enough protocol to issue a
/// ticket and then vanish; the real daemon takes over the same path
/// before the drop is delivered, so the redial finds it immediately.
TEST_F(ServerTest, AutoReconnectResubmitsUnresolvedTickets) {
  SocketPath = tempPath(".sock");

  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 1), 0);

  // The flaky half: welcome the client, grant ticket 7 for its
  // compile_async, then hold the socket open (main closes it later, so
  // the EOF lands only after the real server owns the path — no window
  // where the redial could reach a dead listener).
  int FlakyConn = -1;
  std::thread Flaky([&] {
    FlakyConn = ::accept(Listener, nullptr, nullptr);
    if (FlakyConn < 0)
      return;
    std::string Frame;
    if (readFrame(FlakyConn, Frame) == FrameStatus::Ok) { // hello
      Json Welcome = Json::object();
      Welcome.set("type", "welcome");
      Welcome.set("server", "flaky");
      Welcome.set("protocol", ProtocolVersion);
      writeFrame(FlakyConn, Welcome.dump());
    }
    if (readFrame(FlakyConn, Frame) == FrameStatus::Ok) { // compile_async
      Json Submitted = Json::object();
      Submitted.set("type", "submitted");
      Submitted.set("ticket", 7);
      writeFrame(FlakyConn, Submitted.dump());
    }
  });

  CompileClient Client;
  Client.setAutoReconnect(true, /*MaxAttempts=*/100, /*RetryDelayMillis=*/20);
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  ASSERT_TRUE(Client.hello("phoenix", 0, &Err).has_value()) << Err;

  Model Zoo = makeResnet18();
  std::optional<CompileClient::AsyncHandle> H =
      Client.submitConv("x86", Zoo.Convs[0], {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  EXPECT_EQ(H->Ticket, 7u);

  // Swap servers under the path, then deliver the EOF.
  Flaky.join();
  ASSERT_GE(FlakyConn, 0);
  ::close(Listener);
  ::unlink(SocketPath.c_str());
  ServerConfig Config;
  Config.SocketPath = SocketPath;
  Server = std::make_unique<CompileServer>(std::move(Config));
  ASSERT_TRUE(Server->start(&Err)) << Err;
  ::close(FlakyConn);

  // The pre-drop handle resolves: the reader redialed, replayed hello,
  // resubmitted, and remapped the new ticket onto the old future.
  std::optional<CompileClient::CompileResult> R = Client.wait(*H, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_FALSE(R->Cached);
  EXPECT_EQ(Client.resubmittedTickets(), 1u);

  // The healed connection is an ordinary connection: a blocking round
  // trip serves the same key warm, bit-equal to the replayed result.
  std::optional<CompileClient::CompileResult> Warm =
      Client.compileConv("x86", Zoo.Convs[0], {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Warm->Report.Seconds, R->Report.Seconds);
  Client.close();
}

//===----------------------------------------------------------------------===//
// Protocol robustness: the server outlives every kind of bad traffic
//===----------------------------------------------------------------------===//

namespace robustness {

int rawConnect(const std::string &SocketPath) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  if (!makeUnixSocketAddr(SocketPath, Addr, nullptr) ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace robustness

TEST_F(ServerTest, TruncatedLengthPrefixDoesNotWedgeTheServer) {
  startServer();
  // Two bytes of a four-byte length prefix, then EOF: the half-frame
  // must be discarded and the daemon must keep serving everyone else.
  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  const char Half[2] = {0x00, 0x00};
  ASSERT_EQ(::write(Fd, Half, 2), 2);
  ::close(Fd);

  auto Client = makeClient("after-truncation");
  std::string Err;
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

TEST_F(ServerTest, FrameOverTheBoundEndsOnlyThatConnection) {
  startServer();
  // A length prefix just past MaxFrameBytes: framing violation — prompt
  // EOF on this connection, not a hang, and not a dead daemon.
  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  uint32_t Len = MaxFrameBytes + 1;
  const char Header[4] = {
      static_cast<char>(Len >> 24), static_cast<char>(Len >> 16),
      static_cast<char>(Len >> 8), static_cast<char>(Len)};
  ASSERT_EQ(::write(Fd, Header, 4), 4);
  std::string Payload;
  FrameStatus Status = readFrame(Fd, Payload);
  EXPECT_TRUE(Status == FrameStatus::Eof || Status == FrameStatus::Error);
  ::close(Fd);

  auto Client = makeClient("after-oversize");
  std::string Err;
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

TEST_F(ServerTest, StreamingErrorsAnswerWithErrorFramesAndServerSurvives) {
  startServer();
  auto Client = makeClient("prober");
  std::string Err;

  // compile_async for an unknown target: synchronous error, no ticket.
  Json BadTarget = Json::object();
  BadTarget.set("type", "compile_async");
  BadTarget.set("id", 41);
  BadTarget.set("target", "riscv");
  BadTarget.set("workload", toJson(makeResnet18().Convs[0]));
  std::optional<Json> R = Client->request(BadTarget, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_EQ(R->integer("id"), 41);
  EXPECT_NE(R->str("message").find("riscv"), std::string::npos);

  // compile_async with a malformed workload: error, no ticket.
  Json BadWork = Json::object();
  BadWork.set("type", "compile_async");
  Json Work = Json::object();
  Work.set("kind", "conv2d"); // Every dimension missing.
  BadWork.set("workload", std::move(Work));
  R = Client->request(BadWork, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");

  // cancel / poll for a ticket this connection was never issued.
  for (const char *Type : {"cancel", "poll"}) {
    Json Unknown = Json::object();
    Unknown.set("type", Type);
    Unknown.set("ticket", 424242);
    R = Client->request(Unknown, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->str("type"), "error") << Type;
    EXPECT_NE(R->str("message").find("unknown ticket"), std::string::npos)
        << Type;
  }
  // ... and with the ticket field missing entirely.
  for (const char *Type : {"cancel", "poll"}) {
    Json Missing = Json::object();
    Missing.set("type", Type);
    R = Client->request(Missing, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->str("type"), "error") << Type;
  }

  // The connection took five error frames and still compiles.
  std::optional<CompileClient::CompileResult> Ok =
      Client->compileConv("x86", makeResnet18().Convs[0], {}, &Err);
  ASSERT_TRUE(Ok.has_value()) << Err;
}

//===----------------------------------------------------------------------===//
// Engine-as-client (RemoteCpuEngine)
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, RemoteEngineMatchesInProcessEngineExactly) {
  startServer();
  Model M = makeMobilenetV1();

  RemoteCpuEngine Remote(CpuMachine::cascadeLake(), "x86");
  std::string Err;
  ASSERT_TRUE(Remote.connect(SocketPath, "remote-engine", 0, &Err)) << Err;
  double RemoteLatency = modelLatencySeconds(M, Remote);

  UnitCpuEngine Local(CpuMachine::cascadeLake(), "x86",
                      std::make_shared<CompilerSession>());
  double LocalLatency = modelLatencySeconds(M, Local);

  // Same machine model, same deterministic stack — the socket changes
  // nothing about the numbers.
  EXPECT_EQ(RemoteLatency, LocalLatency);
  EXPECT_EQ(Remote.name(), "UNIT (x86, remote)");
}

//===----------------------------------------------------------------------===//
// Fabric: HMAC, endpoints, TCP auth, peer cache exchange, failover
//===----------------------------------------------------------------------===//

TEST(Fabric, HmacMatchesRfc4231Vectors) {
  // RFC 4231 test case 1.
  std::string Key1(20, '\x0b');
  EXPECT_EQ(
      hmacHex(Key1, "Hi There"),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: a key shorter than the block size.
  EXPECT_EQ(
      hmacHex("Jefe", "what do ya want for nothing?"),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 6: a 131-byte key, longer than the SHA-256 block — forces
  // the pre-hash path.
  std::string Key6(131, '\xaa');
  EXPECT_EQ(
      hmacHex(Key6, "Test Using Larger Than Block-Size Key - Hash Key First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");

  EXPECT_TRUE(constantTimeEquals("abc", "abc"));
  EXPECT_FALSE(constantTimeEquals("abc", "abd"));
  EXPECT_FALSE(constantTimeEquals("abc", "ab"));
  // Nonces are fresh every call (the property the challenge relies on).
  EXPECT_NE(randomNonceHex(), randomNonceHex());
  EXPECT_EQ(randomNonceHex(16).size(), 32u);
}

TEST(Fabric, EndpointParsing) {
  std::optional<Endpoint> Ep = parseEndpoint("example.com:8080");
  ASSERT_TRUE(Ep.has_value());
  EXPECT_EQ(Ep->Host, "example.com");
  EXPECT_EQ(Ep->Port, 8080);
  EXPECT_EQ(Ep->display(), "example.com:8080");

  Ep = parseEndpoint("[::1]:9000");
  ASSERT_TRUE(Ep.has_value());
  EXPECT_EQ(Ep->Host, "::1");
  EXPECT_EQ(Ep->Port, 9000);
  EXPECT_EQ(Ep->display(), "[::1]:9000");
  EXPECT_EQ(parseEndpoint(Ep->display())->Host, "::1");

  Ep = parseEndpoint(":7000"); // Any-host listen form.
  ASSERT_TRUE(Ep.has_value());
  EXPECT_TRUE(Ep->Host.empty());

  std::string Err;
  EXPECT_FALSE(parseEndpoint("nohost", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:notaport", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:99999", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("[::1:9", &Err).has_value());

  EXPECT_TRUE(looksLikeUnixPath("/tmp/unit.sock"));
  EXPECT_TRUE(looksLikeUnixPath("./rel.sock"));
  EXPECT_FALSE(looksLikeUnixPath("host:1234"));
  EXPECT_FALSE(looksLikeUnixPath("127.0.0.1:80"));
}

TEST(Frames, DribbledBytesReassembleIntoOneFrame) {
  // A slow sender delivering one byte at a time must not confuse the
  // reader: short reads are part of TCP's contract, not an error.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const std::string Payload = "{\"type\":\"stats\"}";
  std::thread Dribbler([&] {
    uint32_t Len = static_cast<uint32_t>(Payload.size());
    const char Header[4] = {
        static_cast<char>(Len >> 24), static_cast<char>(Len >> 16),
        static_cast<char>(Len >> 8), static_cast<char>(Len)};
    for (char C : std::string(Header, 4) + Payload) {
      ASSERT_EQ(::write(Fds[0], &C, 1), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::string Got;
  EXPECT_EQ(readFrame(Fds[1], Got), FrameStatus::Ok);
  EXPECT_EQ(Got, Payload);
  Dribbler.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Frames, PipesWorkViaTheNotASocketFallback) {
  // writeFrame prefers send(MSG_NOSIGNAL) but falls back to write() on
  // ENOTSOCK so frame I/O also runs over pipes.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  EXPECT_TRUE(writeFrame(P[1], "{\"over\":\"a pipe\"}"));
  std::string Got;
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Ok);
  EXPECT_EQ(Got, "{\"over\":\"a pipe\"}");
  ::close(P[1]);
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Eof);
  ::close(P[0]);
}

TEST_F(ServerTest, TcpListenerRequiresASecret) {
  // An open TCP compile server would be a remote code-shaped service with
  // no gate; refusing to start beats silently listening unauthenticated.
  for (bool ViaPeers : {false, true}) {
    ServerConfig Config;
    Config.SocketPath = tempPath(".sock");
    if (ViaPeers)
      Config.Peers.push_back("127.0.0.1:1");
    else
      Config.TcpListen = "127.0.0.1:0";
    CompileServer NoSecret(std::move(Config));
    std::string Err;
    EXPECT_FALSE(NoSecret.start(&Err));
    EXPECT_NE(Err.find("secret"), std::string::npos) << Err;
  }
}

TEST_F(ServerTest, WrongSecretIsRejectedAndCounted) {
  const std::string Secret = "fleet-secret";
  ServerConfig Config;
  Config.TcpListen = "127.0.0.1:0";
  Config.Secret = Secret;
  startServer(std::move(Config));
  ASSERT_NE(Server->tcpPort(), 0);
  Endpoint Ep{"127.0.0.1", Server->tcpPort()};

  // Raw exchange: the challenge carries a nonce, never the secret; a
  // proof computed with the wrong secret gets an error frame, then EOF.
  int Fd = dialTcp(Ep);
  ASSERT_GE(Fd, 0);
  std::string Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  std::optional<Json> Challenge = Json::parse(Payload);
  ASSERT_TRUE(Challenge.has_value());
  EXPECT_EQ(Challenge->str("type"), "challenge");
  std::string Nonce = Challenge->str("nonce");
  EXPECT_FALSE(Nonce.empty());
  EXPECT_EQ(Payload.find(Secret), std::string::npos);

  Json Auth = Json::object();
  Auth.set("type", "auth");
  Auth.set("proof", hmacHex("not-the-secret", Nonce));
  ASSERT_TRUE(writeFrame(Fd, Auth.dump()));
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  std::optional<Json> Rejection = Json::parse(Payload);
  ASSERT_TRUE(Rejection.has_value());
  EXPECT_EQ(Rejection->str("type"), "error");
  EXPECT_EQ(readFrame(Fd, Payload), FrameStatus::Eof);
  ::close(Fd);

  // The client API refuses the endpoint the same way.
  CompileClient Bad;
  std::string Err;
  EXPECT_FALSE(Bad.connect({Ep.display()}, "also-wrong", &Err));

  // The right secret sails through, and the daemon kept count.
  CompileClient Good;
  ASSERT_TRUE(Good.connect({Ep.display()}, Secret, &Err)) << Err;
  ASSERT_TRUE(Good.hello("tcp-client", 0, &Err).has_value()) << Err;
  std::optional<Json> Stats = Good.stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Fabric = Stats->get("fabric");
  ASSERT_NE(Fabric, nullptr);
  EXPECT_EQ(Fabric->integer("auth_failures"), 2);
  EXPECT_EQ(Fabric->integer("tcp_port"),
            static_cast<int64_t>(Server->tcpPort()));

  // The authenticated TCP connection is a full-fledged client link.
  std::optional<CompileClient::CompileResult> R =
      Good.compileConv("x86", makeResnet18().Convs[0], {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
}

TEST_F(ServerTest, TwoDaemonsOneColdTuneClusterwideViaPeerFetch) {
  const std::string Secret = "warm-handoff";

  // Daemon A: the established fleet member, reachable over TCP.
  ServerConfig ConfigA;
  ConfigA.TcpListen = "127.0.0.1:0";
  ConfigA.Secret = Secret;
  startServer(std::move(ConfigA));
  ASSERT_NE(Server->tcpPort(), 0);

  // Cold-compile four distinct kernels on A: every tune in this test
  // happens here, once per distinct structural key.
  std::vector<ConvLayer> Layers = syntheticLayers(4, 112);
  uint64_t TunesBefore = tunerInvocations();
  auto ClientA = makeClient("fleet-a");
  std::string Err;
  for (const ConvLayer &L : Layers) {
    std::optional<CompileClient::CompileResult> R =
        ClientA->compileConv("x86", L, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
  }
  EXPECT_EQ(tunerInvocations() - TunesBefore, Layers.size());

  // Daemon B joins the fleet with A as its peer.
  ServerConfig ConfigB;
  ConfigB.SocketPath = tempPath(".sock");
  ConfigB.Secret = Secret;
  ConfigB.Peers.push_back(Endpoint{"127.0.0.1", Server->tcpPort()}.display());
  CompileServer B(ConfigB);
  ASSERT_TRUE(B.start(&Err)) << Err;

  // The same four kernels on B: served by the fleet, tuned by nobody —
  // the peer warm-sync or the cold-miss fetch covers every key, so the
  // cluster-wide tune count stays at one per distinct structural key.
  uint64_t TunesMid = tunerInvocations();
  CompileClient ClientB;
  ASSERT_TRUE(ClientB.connect(ConfigB.SocketPath, &Err)) << Err;
  ASSERT_TRUE(ClientB.hello("fleet-b", 0, &Err).has_value()) << Err;
  for (const ConvLayer &L : Layers) {
    std::optional<CompileClient::CompileResult> R =
        ClientB.compileConv("x86", L, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached) << L.Name;
  }
  EXPECT_EQ(tunerInvocations() - TunesMid, 0u);
  EXPECT_EQ(tunerInvocations() - TunesBefore, Layers.size());

  // The fabric counters narrate the exchange: B pulled the entries (bulk
  // warm-sync, targeted fetches, or a mix), and A served them.
  std::optional<Json> StatsB = ClientB.stats(false, &Err);
  ASSERT_TRUE(StatsB.has_value()) << Err;
  const Json *FabricB = StatsB->get("fabric");
  ASSERT_NE(FabricB, nullptr);
  EXPECT_EQ(FabricB->integer("peers_configured"), 1);
  EXPECT_EQ(FabricB->integer("peers_connected"), 1);
  EXPECT_GE(FabricB->integer("entries_fetched") +
                FabricB->integer("fetch_hits"),
            static_cast<int64_t>(Layers.size()));

  std::optional<Json> StatsA = ClientA->stats(false, &Err);
  ASSERT_TRUE(StatsA.has_value()) << Err;
  const Json *FabricA = StatsA->get("fabric");
  ASSERT_NE(FabricA, nullptr);
  EXPECT_GE(FabricA->integer("fetches_served"), 1);
  EXPECT_GE(FabricA->integer("entries_served"),
            static_cast<int64_t>(Layers.size()));

  // Push direction: a kernel tuned on B reaches A without A ever asking.
  ConvLayer Fresh{"fresh-on-b", 96, 10, 10, 96, 3, 3, 1, 1, 1, false};
  std::optional<CompileClient::CompileResult> OnB =
      ClientB.compileConv("x86", Fresh, {}, &Err);
  ASSERT_TRUE(OnB.has_value()) << Err;
  EXPECT_FALSE(OnB->Cached);
  // The pusher flushes on its own cadence; wait for A to accept.
  bool Accepted = false;
  for (int I = 0; I < 100 && !Accepted; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    StatsA = ClientA->stats(false, &Err);
    ASSERT_TRUE(StatsA.has_value()) << Err;
    Accepted = StatsA->get("fabric")->integer("entries_accepted") >= 1;
  }
  EXPECT_TRUE(Accepted);
  uint64_t TunesLate = tunerInvocations();
  std::optional<CompileClient::CompileResult> OnA =
      ClientA->compileConv("x86", Fresh, {}, &Err);
  ASSERT_TRUE(OnA.has_value()) << Err;
  EXPECT_TRUE(OnA->Cached);
  EXPECT_EQ(OnA->Report.Seconds, OnB->Report.Seconds);
  EXPECT_EQ(tunerInvocations() - TunesLate, 0u);
  B.stop();
}

TEST_F(ServerTest, MismatchedFingerprintPeersExchangeNothing) {
  const std::string Secret = "strict-fleet";
  ServerConfig ConfigA;
  ConfigA.TcpListen = "127.0.0.1:0";
  ConfigA.Secret = Secret;
  startServer(std::move(ConfigA));

  // A kernel A has and B will want.
  ConvLayer Shared{"disputed", 72, 12, 12, 72, 3, 3, 1, 1, 1, false};
  auto ClientA = makeClient("strict-a");
  std::string Err;
  ASSERT_TRUE(ClientA->compileConv("x86", Shared, {}, &Err).has_value())
      << Err;

  // Daemon B claims a different persistence fingerprint — as if it ran a
  // different tuner version. The peers connect but must exchange nothing:
  // a cached report is only valid under the exact fingerprint it was
  // tuned under.
  ServerConfig ConfigB;
  ConfigB.SocketPath = tempPath(".sock");
  ConfigB.Secret = Secret;
  ConfigB.Peers.push_back(Endpoint{"127.0.0.1", Server->tcpPort()}.display());
  ConfigB.PeerFingerprintOverride = "tuner-vNEXT-incompatible";
  CompileServer B(ConfigB);
  ASSERT_TRUE(B.start(&Err)) << Err;

  uint64_t TunesBefore = tunerInvocations();
  CompileClient ClientB;
  ASSERT_TRUE(ClientB.connect(ConfigB.SocketPath, &Err)) << Err;
  ASSERT_TRUE(ClientB.hello("strict-b", 0, &Err).has_value()) << Err;
  std::optional<CompileClient::CompileResult> R =
      ClientB.compileConv("x86", Shared, {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  // B tuned locally: the mismatched link yielded nothing.
  EXPECT_FALSE(R->Cached);
  EXPECT_EQ(tunerInvocations() - TunesBefore, 1u);

  std::optional<Json> StatsA = ClientA->stats(false, &Err);
  ASSERT_TRUE(StatsA.has_value()) << Err;
  EXPECT_EQ(StatsA->get("fabric")->integer("entries_served"), 0);
  EXPECT_EQ(StatsA->get("fabric")->integer("entries_accepted"), 0);
  B.stop();

  // Raw frames with a bogus fingerprint meet the same wall: empty
  // entries on fetch, zero accepted on push — replies, not errors, so a
  // heterogeneous fleet degrades to local tuning instead of flapping.
  Endpoint Ep{"127.0.0.1", Server->tcpPort()};
  int Fd = dialTcp(Ep);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(answerAuthChallenge(Fd, Secret, &Err)) << Err;

  Json Fetch = Json::object();
  Fetch.set("type", "fetch_cache");
  Fetch.set("fingerprint", "bogus");
  ASSERT_TRUE(writeFrame(Fd, Fetch.dump()));
  std::string Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  std::optional<Json> Reply = Json::parse(Payload);
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(Reply->str("type"), "cache_entries");
  ASSERT_TRUE(Reply->get("entries")->isArray());
  EXPECT_EQ(Reply->get("entries")->items().size(), 0u);

  Json Push = Json::object();
  Push.set("type", "push_cache");
  Push.set("fingerprint", "bogus");
  Json Entries = Json::array();
  Json Entry = Json::object();
  Entry.set("key", "x86|whatever");
  Entry.set("report", toJson(KernelReport{}));
  Entries.push(std::move(Entry));
  Push.set("entries", std::move(Entries));
  ASSERT_TRUE(writeFrame(Fd, Push.dump()));
  ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
  Reply = Json::parse(Payload);
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(Reply->str("type"), "cache_pushed");
  EXPECT_EQ(Reply->integer("accepted"), 0);
  ::close(Fd);
}

TEST_F(ServerTest, EndpointListFailoverResolvesOriginalFutures) {
  const std::string Secret = "failover-secret";

  // The survivor: a real daemon on TCP.
  ServerConfig Config;
  Config.TcpListen = "127.0.0.1:0";
  Config.Secret = Secret;
  startServer(std::move(Config));
  std::string TcpEp = Endpoint{"127.0.0.1", Server->tcpPort()}.display();

  // The casualty: a bare Unix listener that welcomes the client, grants
  // ticket 7, then dies — same flaky half as the auto-reconnect test,
  // now as endpoint #1 of a two-endpoint list.
  std::string FlakyPath = tempPath(".sock");
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(FlakyPath, Addr, nullptr));
  ASSERT_EQ(::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 1), 0);
  int FlakyConn = -1;
  std::thread Flaky([&] {
    FlakyConn = ::accept(Listener, nullptr, nullptr);
    if (FlakyConn < 0)
      return;
    std::string Frame;
    if (readFrame(FlakyConn, Frame) == FrameStatus::Ok) { // hello
      Json Welcome = Json::object();
      Welcome.set("type", "welcome");
      Welcome.set("server", "flaky");
      Welcome.set("protocol", ProtocolVersion);
      writeFrame(FlakyConn, Welcome.dump());
    }
    if (readFrame(FlakyConn, Frame) == FrameStatus::Ok) { // compile_async
      Json Submitted = Json::object();
      Submitted.set("type", "submitted");
      Submitted.set("ticket", 7);
      writeFrame(FlakyConn, Submitted.dump());
    }
  });

  CompileClient Client;
  Client.setAutoReconnect(true, /*MaxAttempts=*/100, /*RetryDelayMillis=*/20);
  std::string Err;
  ASSERT_TRUE(Client.connect({FlakyPath, TcpEp}, Secret, &Err)) << Err;
  ASSERT_TRUE(Client.hello("nomad", 0, &Err).has_value()) << Err;

  Model Zoo = makeResnet18();
  std::optional<CompileClient::AsyncHandle> H =
      Client.submitConv("x86", Zoo.Convs[0], {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  EXPECT_EQ(H->Ticket, 7u);

  // Kill endpoint #1. Failover starts AFTER the dead endpoint, lands on
  // the TCP daemon, passes the handshake, replays hello, resubmits — and
  // the pre-drop future resolves with a real report.
  Flaky.join();
  ASSERT_GE(FlakyConn, 0);
  ::close(Listener);
  ::unlink(FlakyPath.c_str());
  ::close(FlakyConn);

  std::optional<CompileClient::CompileResult> R = Client.wait(*H, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_FALSE(R->Cached);
  EXPECT_EQ(Client.resubmittedTickets(), 1u);

  // The healed connection talks to the real daemon now: warm round trip,
  // identical report.
  std::optional<CompileClient::CompileResult> Warm =
      Client.compileConv("x86", Zoo.Convs[0], {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Warm->Report.Seconds, R->Report.Seconds);
  Client.close();
}

//===----------------------------------------------------------------------===//
// Observability: metrics, dump_trace, stats consistency
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, WelcomeAdvertisesMetricsAndStatsCarryBuildAndPid) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  std::optional<Json> Welcome = Client.hello("obs-hello", 0, &Err);
  ASSERT_TRUE(Welcome.has_value()) << Err;
  EXPECT_TRUE(Welcome->boolean("metrics", false));

  std::optional<Json> Stats = Client.stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  // The build string identifies version+sha for fleet dashboards; the
  // pid lets an operator find the daemon from a scrape. Server and test
  // share a process here, so the pid is exact.
  EXPECT_EQ(Stats->str("build").rfind("unit-", 0), 0u) << Stats->str("build");
  EXPECT_EQ(Stats->integer("pid"), static_cast<int64_t>(::getpid()));
}

TEST_F(ServerTest, MetricsMessageExposesEveryHistogramFamily) {
  startServer();
  auto Client = makeClient("metrics-client");
  ConvLayer L = makeResnet18().Convs[2];
  std::string Err;
  // One cold compile then one warm hit populates two families.
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;

  std::optional<Json> M = Client->metrics(&Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_EQ(M->str("type"), "metrics");
  EXPECT_EQ(M->str("build").rfind("unit-", 0), 0u);
  const Json *Hists = M->get("histograms");
  ASSERT_TRUE(Hists);
  for (const char *Family :
       {"unit_compile_cold_seconds", "unit_compile_warm_seconds",
        "unit_compile_join_seconds", "unit_frame_seconds",
        "unit_peer_fetch_seconds", "unit_tuner_candidate_seconds"}) {
    const Json *H = Hists->get(Family);
    ASSERT_TRUE(H) << Family;
    EXPECT_GE(H->num("count", -1), 0) << Family;
    EXPECT_GE(H->num("sum", -1), 0) << Family;
    EXPECT_GE(H->num("p99", -1), H->num("p50", -1)) << Family;
    const Json *Buckets = H->get("buckets");
    ASSERT_TRUE(Buckets) << Family;
    // Bucket counts are cumulative and end at the +Inf bucket, whose
    // count equals the family total (the Prometheus histogram shape).
    double Prev = 0;
    bool SawInf = false;
    for (const Json &B : Buckets->items()) {
      double C = B.num("count", -1);
      EXPECT_GE(C, Prev) << Family;
      Prev = C;
      if (B.str("le") == "+Inf") {
        SawInf = true;
        EXPECT_EQ(C, H->num("count", -1)) << Family;
      }
    }
    EXPECT_TRUE(SawInf) << Family;
  }
  // The compiles above are visible: one cold, one warm, and the tuner
  // measured at least one candidate for the cold tune.
  EXPECT_GE(Hists->get("unit_compile_cold_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_compile_warm_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_tuner_candidate_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_frame_seconds")->num("count", 0), 2.0);
}

TEST_F(ServerTest, DumpTraceYieldsConnectedSpanTree) {
  startServer();
  auto Client = makeClient("tracer");
  ConvLayer L = makeResnet18().Convs[5];
  std::string Err;
  // A cold compile_async touches the whole lifecycle: admission,
  // resolve, pool compile, codegen, fulfill, notification write.
  std::optional<CompileClient::AsyncHandle> H =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  ASSERT_TRUE(Client->wait(*H, &Err).has_value()) << Err;

  // The notification unblocks wait() before the worker's enclosing
  // compile / notification_write spans close (a span records on scope
  // exit), so give the trace a few milliseconds to settle.
  std::optional<Json> Dump;
  std::set<int64_t> Ids;
  std::set<std::string> Names;
  const Json *Events = nullptr;
  for (int Attempt = 0; Attempt < 200; ++Attempt) {
    Dump = Client->dumpTrace(&Err);
    ASSERT_TRUE(Dump.has_value()) << Err;
    EXPECT_TRUE(Dump->boolean("enabled", false));
    const Json *Trace = Dump->get("trace");
    ASSERT_TRUE(Trace);
    Events = Trace->get("traceEvents");
    ASSERT_TRUE(Events);
    Ids.clear();
    Names.clear();
    for (const Json &Ev : Events->items()) {
      EXPECT_EQ(Ev.str("ph"), "X");
      EXPECT_EQ(Ev.integer("pid"), 1);
      EXPECT_GT(Ev.integer("tid"), 0);
      EXPECT_GE(Ev.num("dur", -1), 0);
      const Json *Args = Ev.get("args");
      ASSERT_TRUE(Args);
      Ids.insert(Args->integer("span"));
      Names.insert(Ev.str("name"));
    }
    if (Names.count("compile") && Names.count("notification_write"))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(Events->items().size(), 0u);
  // Connectivity: every non-root parent id resolves to a span in the
  // dump — one causal tree per request, no orphans.
  for (const Json &Ev : Events->items()) {
    int64_t Parent = Ev.get("args")->integer("parent");
    if (Parent != 0)
      EXPECT_TRUE(Ids.count(Parent))
          << Ev.str("name") << " orphaned parent " << Parent;
  }
  for (const char *Expected :
       {"request", "admission", "cache_resolve", "compile", "codegen",
        "fulfill", "notification_write"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;
}

TEST_F(ServerTest, TraceDisabledServerStillServesMetrics) {
  ServerConfig Config;
  Config.TraceEnabled = false;
  startServer(std::move(Config));
  auto Client = makeClient("no-trace");
  ConvLayer L = makeResnet18().Convs[3];
  std::string Err;
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;

  // Histograms are unconditional; only span recording is gated.
  std::optional<Json> M = Client->metrics(&Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_GE(M->get("histograms")
                ->get("unit_compile_cold_seconds")
                ->num("count", 0),
            1.0);

  std::optional<Json> Dump = Client->dumpTrace(&Err);
  ASSERT_TRUE(Dump.has_value()) << Err;
  EXPECT_FALSE(Dump->boolean("enabled", true));
  EXPECT_EQ(Dump->get("trace")->get("traceEvents")->items().size(), 0u);
}

TEST_F(ServerTest, StatsHammerDeliveredNeverReadsAheadOfIssued) {
  startServer();
  // Four streaming clients pipeline fresh kernels while a fifth hammers
  // stats: in every snapshot delivered <= issued and cancelled <=
  // issued must hold (the stats reader loads delivered before issued,
  // so a racing delivery can never make the snapshot read ahead), and
  // issued must be monotonic across polls.
  constexpr size_t Streamers = 4, LayersPerClient = 24;
  std::atomic<bool> Done{false};
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (size_t C = 0; C < Streamers; ++C)
    Clients.emplace_back([&, C] {
      CompileClient Client;
      std::string E;
      if (!Client.connect(SocketPath, &E) ||
          !Client.hello("hammer-" + std::to_string(C), 0, &E)) {
        Failures.fetch_add(1);
        return;
      }
      std::vector<ConvLayer> Layers =
          syntheticLayers(LayersPerClient, 16 + 16 * C);
      for (const ConvLayer &L : Layers)
        if (!Client.submitConv("x86", L, {}, &E)) {
          Failures.fetch_add(1);
          return;
        }
      if (!Client.waitAll(&E))
        Failures.fetch_add(1);
    });

  std::thread Poller([&] {
    CompileClient Client;
    std::string E;
    if (!Client.connect(SocketPath, &E) ||
        !Client.hello("stats-poller", 0, &E)) {
      Failures.fetch_add(1);
      return;
    }
    int64_t LastIssued = 0;
    while (!Done.load()) {
      std::optional<Json> Stats = Client.stats(false, &E);
      if (!Stats) {
        Failures.fetch_add(1);
        return;
      }
      const Json *Streaming = Stats->get("streaming");
      if (!Streaming) {
        Failures.fetch_add(1);
        return;
      }
      int64_t Issued = Streaming->integer("tickets_issued");
      int64_t Delivered = Streaming->integer("notifications_delivered");
      int64_t Cancelled = Streaming->integer("tickets_cancelled");
      EXPECT_LE(Delivered, Issued);
      EXPECT_LE(Cancelled, Issued);
      EXPECT_GE(Issued, LastIssued);
      LastIssued = Issued;
    }
  });

  for (std::thread &T : Clients)
    T.join();
  Done.store(true);
  Poller.join();
  EXPECT_EQ(Failures.load(), 0);

  // Settled totals: every submitted ticket was issued and delivered.
  auto Client = makeClient("hammer-final");
  std::string Err;
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Streaming = Stats->get("streaming");
  ASSERT_TRUE(Streaming);
  EXPECT_EQ(Streaming->integer("tickets_issued"),
            static_cast<int64_t>(Streamers * LayersPerClient));
  EXPECT_EQ(Streaming->integer("notifications_delivered"),
            Streaming->integer("tickets_issued"));
}

//===----------------------------------------------------------------------===//
// Failed compiles: blocking and streaming account alike
//===----------------------------------------------------------------------===//

/// x86 under another id whose compiles throw while Armed — disarmed, it
/// compiles and advertises like x86, so it stays harmless to any later
/// test that walks the registry.
class FailingBackend : public TargetBackend {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");

public:
  mutable std::atomic<bool> Armed{true};

  const std::string &id() const override {
    static const std::string Id = "failing-probe";
    return Id;
  }
  std::string cacheSalt() const override {
    return "failing-probe|" + X86->cacheSalt();
  }
  const QuantScheme &scheme() const override { return X86->scheme(); }
  std::vector<TensorIntrinsicRef> intrinsics() const override {
    return X86->intrinsics();
  }
  std::string convKey(const ConvLayer &L) const override {
    return cacheSalt() + "|conv|" + L.shapeKey();
  }
  KernelReport compileConv(const ConvLayer &L, ThreadPool *Pool,
                           const CompileOptions &O) const override {
    if (Armed.load())
      throw std::runtime_error("failing-probe backend failure");
    return X86->compileConv(L, Pool, O);
  }
  KernelReport compileOp(const ComputeOpRef &Op, ThreadPool *Pool,
                         const CompileOptions &O) const override {
    if (Armed.load())
      throw std::runtime_error("failing-probe backend failure");
    return X86->compileOp(Op, Pool, O);
  }
};

TEST_F(ServerTest, FailedBlockingCompileIsAccountedLikeFailedTicket) {
  auto Backend = std::make_shared<FailingBackend>();
  TargetRegistry::instance().registerBackend(Backend);
  startServer();
  auto Client = makeClient("failer");
  std::string Err;
  std::optional<Json> Before = Client->stats(false, &Err);
  ASSERT_TRUE(Before.has_value()) << Err;

  ConvLayer L = makeResnet18().Convs[3];
  EXPECT_FALSE(Client->compileConv("failing-probe", L, {}, &Err).has_value());
  EXPECT_NE(Err.find("compile failed: failing-probe backend failure"),
            std::string::npos)
      << Err;
  std::optional<CompileClient::AsyncHandle> Handle =
      Client->submitConv("failing-probe", L, {}, &Err);
  ASSERT_TRUE(Handle.has_value()) << Err;
  EXPECT_FALSE(Client->wait(*Handle, &Err).has_value());
  EXPECT_NE(Err.find("compile failed: failing-probe backend failure"),
            std::string::npos)
      << Err;

  std::optional<Json> After = Client->stats(false, &Err);
  ASSERT_TRUE(After.has_value()) << Err;
  EXPECT_EQ(After->integer("errors") - Before->integer("errors"), 2);
  const Json *Clients = After->get("clients");
  ASSERT_NE(Clients, nullptr);
  int64_t CompileRequests = -1;
  for (const Json &C : Clients->items())
    if (C.str("client") == "failer")
      CompileRequests = C.integer("compile_requests");
  EXPECT_EQ(CompileRequests, 2);
  Backend->Armed.store(false);
}

} // namespace
