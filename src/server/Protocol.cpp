//===- server/Protocol.cpp -------------------------------------------------===//

#include "server/Protocol.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace unit;

namespace {

/// Is \p N exactly an int64? Fractional values must be wire errors (or
/// tolerant-accessor defaults), never silent truncations — and casting
/// an out-of-range double to int64 is UB. 2^53 bounds what a double
/// represents exactly anyway.
bool integralInRange(double N) {
  return N == std::floor(N) && std::fabs(N) <= 9007199254740992.0; // 2^53
}

} // namespace

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

Json &Json::set(const std::string &Key, Json Value) {
  K = Kind::Object;
  for (auto &KV : Fields)
    if (KV.first == Key) {
      KV.second = std::move(Value);
      return *this;
    }
  Fields.emplace_back(Key, std::move(Value));
  return *this;
}

const Json *Json::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &KV : Fields)
    if (KV.first == Key)
      return &KV.second;
  return nullptr;
}

std::string Json::str(const std::string &Key, const std::string &Dflt) const {
  const Json *J = get(Key);
  return J && J->isString() ? J->asString() : Dflt;
}

double Json::num(const std::string &Key, double Dflt) const {
  const Json *J = get(Key);
  return J && J->isNumber() ? J->asNumber() : Dflt;
}

int64_t Json::integer(const std::string &Key, int64_t Dflt) const {
  const Json *J = get(Key);
  if (!J || !J->isNumber() || !integralInRange(J->asNumber()))
    return Dflt;
  return J->asInt();
}

bool Json::boolean(const std::string &Key, bool Dflt) const {
  const Json *J = get(Key);
  return J && J->isBool() ? J->asBool() : Dflt;
}

namespace {

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatStr("\\u%04x",
                         static_cast<unsigned>(static_cast<unsigned char>(C)));
      else
        Out += C;
    }
  }
  Out += '"';
}

void dumpValue(const Json &J, std::string &Out) {
  switch (J.kind()) {
  case Json::Kind::Null:
    Out += "null";
    return;
  case Json::Kind::Bool:
    Out += J.asBool() ? "true" : "false";
    return;
  case Json::Kind::Number: {
    double N = J.asNumber();
    if (!std::isfinite(N))
      N = 0;
    // Integers (the common case: dims, counts) print without an exponent
    // or trailing zeros; everything else round-trips via shortest-exact
    // to_chars. Locale-independent on purpose — printf %g under a
    // non-C LC_NUMERIC would emit a ',' decimal point, i.e. invalid
    // JSON, and clients embed in hosts that may setlocale().
    if (N == std::floor(N) && std::fabs(N) < 1e15) {
      Out += formatStr("%lld", static_cast<long long>(N));
    } else {
      char Buf[64];
      std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), N);
      Out.append(Buf, R.ptr);
    }
    return;
  }
  case Json::Kind::String:
    dumpString(J.asString(), Out);
    return;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &Item : J.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(Item, Out);
    }
    Out += ']';
    return;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &KV : J.members()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(KV.first, Out);
      Out += ':';
      dumpValue(KV.second, Out);
    }
    Out += '}';
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Parser: recursive descent, depth-bounded.
//===----------------------------------------------------------------------===//

constexpr int MaxParseDepth = 64;

struct Parser {
  const char *Cur;
  const char *End;
  std::string Err;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (Cur != End &&
           (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r'))
      ++Cur;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (static_cast<size_t>(End - Cur) < Len || std::strncmp(Cur, Lit, Len) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Cur += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Cur == End || *Cur != '"')
      return fail("expected string");
    ++Cur;
    Out.clear();
    while (Cur != End && *Cur != '"') {
      char C = *Cur++;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Cur == End)
        return fail("truncated escape");
      char E = *Cur++;
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (End - Cur < 4)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = *Cur++;
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are beyond
        // what protocol strings need; lone surrogates encode as-is).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("bad escape");
      }
    }
    if (Cur == End)
      return fail("unterminated string");
    ++Cur; // closing quote
    return true;
  }

  bool parseValue(Json &Out, int Depth) {
    if (Depth > MaxParseDepth)
      return fail("nesting too deep");
    skipWs();
    if (Cur == End)
      return fail("unexpected end of input");
    switch (*Cur) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Json();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Json(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Json(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    case '[': {
      ++Cur;
      Out = Json::array();
      skipWs();
      if (Cur != End && *Cur == ']') {
        ++Cur;
        return true;
      }
      while (true) {
        Json Item;
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.push(std::move(Item));
        skipWs();
        if (Cur == End)
          return fail("unterminated array");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == ']') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++Cur;
      Out = Json::object();
      skipWs();
      if (Cur != End && *Cur == '}') {
        ++Cur;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Cur == End || *Cur != ':')
          return fail("expected ':'");
        ++Cur;
        Json Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.append(std::move(Key), std::move(Value));
        skipWs();
        if (Cur == End)
          return fail("unterminated object");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == '}') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default: {
      // Number. from_chars, not strtod: the JSON grammar's '.' decimal
      // point must parse identically no matter the host's LC_NUMERIC.
      // from_chars is also stricter in the right ways (no leading '+'),
      // except it accepts "inf"/"nan" — which JSON forbids, hence the
      // leading-character and finiteness guards.
      if (*Cur != '-' && !(*Cur >= '0' && *Cur <= '9'))
        return fail("expected value");
      double N = 0;
      std::from_chars_result R = std::from_chars(Cur, End, N);
      if (R.ec != std::errc() || R.ptr == Cur || !std::isfinite(N))
        return fail("expected value");
      Cur = R.ptr;
      Out = Json(N);
      return true;
    }
    }
  }
};

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

std::optional<Json> Json::parse(const std::string &Text, std::string *Err) {
  Parser P{Text.data(), Text.data() + Text.size(), {}};
  Json Out;
  if (!P.parseValue(Out, 0)) {
    if (Err)
      *Err = P.Err;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Cur != P.End) {
    if (Err)
      *Err = "trailing garbage after JSON value";
    return std::nullopt;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

namespace {

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    // MSG_NOSIGNAL: a peer closing mid-write must surface as an error
    // return, not SIGPIPE — clients and embedding hosts do not install
    // the signal handling the daemon does. Non-socket fds (pipes,
    // socketpair stand-ins in tests) reject send() with ENOTSOCK; fall
    // back to write() for them.
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Returns bytes read (== Len), 0 on clean EOF at the *first* byte, or -1
/// on error / mid-buffer EOF.
ssize_t readAll(int Fd, char *Data, size_t Len) {
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::read(Fd, Data + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      return Got == 0 ? 0 : -1;
    Got += static_cast<size_t>(N);
  }
  return static_cast<ssize_t>(Got);
}

} // namespace

bool unit::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  // One contiguous buffer, one write loop: a separate 4-byte header write
  // costs an extra TCP segment (and a Nagle/delayed-ACK stall for small
  // frames) once frames cross real network links instead of a local
  // Unix socket.
  std::string Frame;
  Frame.reserve(4 + Payload.size());
  Frame.push_back(static_cast<char>(Len >> 24));
  Frame.push_back(static_cast<char>(Len >> 16));
  Frame.push_back(static_cast<char>(Len >> 8));
  Frame.push_back(static_cast<char>(Len));
  Frame.append(Payload);
  return writeAll(Fd, Frame.data(), Frame.size());
}

FrameStatus unit::readFrame(int Fd, std::string &Payload) {
  char Header[4];
  ssize_t N = readAll(Fd, Header, 4);
  if (N == 0)
    return FrameStatus::Eof;
  if (N < 0)
    return FrameStatus::Error;
  uint32_t Len = (static_cast<uint32_t>(static_cast<unsigned char>(Header[0])) << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Header[1])) << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Header[2])) << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(Header[3]));
  if (Len > MaxFrameBytes)
    return FrameStatus::Error;
  Payload.resize(Len);
  if (Len > 0 && readAll(Fd, &Payload[0], Len) != static_cast<ssize_t>(Len))
    return FrameStatus::Error;
  return FrameStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Schema codecs
//===----------------------------------------------------------------------===//

Json unit::toJson(const ConvLayer &L) {
  Json J = Json::object();
  J.set("kind", "conv2d");
  J.set("name", L.Name);
  J.set("in_c", L.InC).set("in_h", L.InH).set("in_w", L.InW);
  J.set("out_c", L.OutC);
  J.set("k_h", L.KH).set("k_w", L.KW);
  J.set("stride", L.Stride);
  J.set("pad_h", L.PadH).set("pad_w", L.PadW);
  if (L.Depthwise)
    J.set("depthwise", true);
  return J;
}

Json unit::toJson(const Conv3dLayer &L) {
  Json J = Json::object();
  J.set("kind", "conv3d");
  J.set("name", L.Name);
  J.set("in_c", L.InC).set("in_d", L.InD).set("in_h", L.InH).set("in_w", L.InW);
  J.set("out_c", L.OutC);
  J.set("k", L.K).set("stride", L.Stride).set("pad", L.Pad);
  return J;
}

Json unit::toJson(const Model &M) {
  Json Layers = Json::array();
  for (const ConvLayer &L : M.Convs)
    Layers.push(toJson(L));
  Json J = Json::object();
  J.set("name", M.Name);
  J.set("layers", std::move(Layers));
  J.set("elementwise_bytes", M.ElementwiseBytes);
  J.set("glue_ops", M.GlueOps);
  return J;
}

Json unit::toJson(const KernelReport &R) {
  Json J = Json::object();
  J.set("seconds", R.Seconds);
  J.set("tensorized", R.Tensorized);
  J.set("best_candidate_index", R.BestCandidateIndex);
  J.set("candidates_tried", R.CandidatesTried);
  J.set("intrinsic", R.IntrinsicName);
  return J;
}

Json unit::toJson(const CompileOptions &O) {
  Json J = Json::object();
  J.set("max_candidates", O.MaxCandidates);
  J.set("policy", cachePolicyName(O.Policy));
  return J;
}

Json unit::toJson(const obs::HistogramSnapshot &S) {
  Json J = Json::object();
  J.set("count", S.Count);
  J.set("sum", S.SumSeconds);
  J.set("p50", S.quantile(0.50));
  J.set("p95", S.quantile(0.95));
  J.set("p99", S.quantile(0.99));
  int Last = -1;
  for (int B = 0; B < obs::HistogramSnapshot::OverflowBucket; ++B)
    if (S.Buckets[B])
      Last = B;
  Json Buckets = Json::array();
  uint64_t Cumulative = 0;
  for (int B = 0; B <= Last; ++B) {
    Cumulative += S.Buckets[B];
    Json Bk = Json::object();
    Bk.set("le", obs::HistogramSnapshot::upperBoundSeconds(B));
    Bk.set("count", Cumulative);
    Buckets.push(std::move(Bk));
  }
  Json Inf = Json::object();
  Inf.set("le", "+Inf");
  Inf.set("count", S.Count);
  Buckets.push(std::move(Inf));
  J.set("buckets", std::move(Buckets));
  return J;
}

Json unit::chromeTraceJson(const std::vector<obs::TraceEvent> &Events) {
  Json List = Json::array();
  for (const obs::TraceEvent &E : Events) {
    Json Args = Json::object();
    Args.set("span", E.SpanId);
    Args.set("parent", E.ParentId);
    if (E.Args[0])
      Args.set("note", std::string(E.Args,
                                   strnlen(E.Args, sizeof(E.Args))));
    Json Ev = Json::object();
    Ev.set("name", std::string(E.Name, strnlen(E.Name, sizeof(E.Name))));
    Ev.set("ph", "X");
    Ev.set("ts", E.StartMicros);
    Ev.set("dur", E.DurationMicros);
    Ev.set("pid", 1);
    Ev.set("tid", E.ThreadTag);
    Ev.set("args", std::move(Args));
    List.push(std::move(Ev));
  }
  Json J = Json::object();
  J.set("traceEvents", std::move(List));
  return J;
}

namespace {

/// Fetches a required integral field into \p Out.
bool requireInt(const Json &J, const char *Key, int64_t &Out,
                std::string &Err) {
  const Json *F = J.get(Key);
  if (!F || !F->isNumber()) {
    Err = std::string("missing or non-numeric field '") + Key + "'";
    return false;
  }
  if (!integralInRange(F->asNumber())) {
    Err = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = F->asInt();
  return true;
}

} // namespace

bool unit::readIntField(const Json &Obj, const char *Key, int64_t Dflt,
                        int64_t &Out, std::string &Err) {
  const Json *F = Obj.get(Key);
  if (!F) {
    Out = Dflt;
    return true;
  }
  if (!F->isNumber() || !integralInRange(F->asNumber())) {
    Err = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = F->asInt();
  return true;
}

bool unit::makeUnixSocketAddr(const std::string &Path, sockaddr_un &Addr,
                              std::string *Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path empty or too long for sun_path";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

namespace {

bool checkDims(std::initializer_list<int64_t> Dims, std::string &Err) {
  for (int64_t D : Dims)
    if (D > MaxWorkloadDim) {
      Err = "workload dimension exceeds the supported maximum (" +
            std::to_string(MaxWorkloadDim) + ")";
      return false;
    }
  return true;
}

} // namespace

bool unit::convLayerFromJson(const Json &J, ConvLayer &L, std::string &Err) {
  if (!J.isObject()) {
    Err = "conv2d workload must be an object";
    return false;
  }
  L.Name = J.str("name");
  if (!requireInt(J, "in_c", L.InC, Err) || !requireInt(J, "in_h", L.InH, Err) ||
      !requireInt(J, "in_w", L.InW, Err) ||
      !requireInt(J, "out_c", L.OutC, Err) ||
      !requireInt(J, "k_h", L.KH, Err) || !requireInt(J, "k_w", L.KW, Err))
    return false;
  if (!readIntField(J, "stride", 1, L.Stride, Err) ||
      !readIntField(J, "pad_h", 0, L.PadH, Err) ||
      !readIntField(J, "pad_w", 0, L.PadW, Err))
    return false;
  L.Depthwise = J.boolean("depthwise", false);
  if (L.InC <= 0 || L.InH <= 0 || L.InW <= 0 || L.OutC <= 0 || L.KH <= 0 ||
      L.KW <= 0 || L.Stride <= 0 || L.PadH < 0 || L.PadW < 0) {
    Err = "conv2d dimensions must be positive (pads non-negative)";
    return false;
  }
  if (!checkDims({L.InC, L.InH, L.InW, L.OutC, L.KH, L.KW, L.Stride, L.PadH,
                  L.PadW},
                 Err))
    return false;
  // A kernel larger than the padded input would lower to an empty (or
  // negative-extent) output nest — a fatal error in-process, so it must
  // be a wire error here.
  if (L.outH() <= 0 || L.outW() <= 0) {
    Err = "conv2d output extent is not positive (kernel larger than the "
          "padded input?)";
    return false;
  }
  return true;
}

bool unit::conv3dLayerFromJson(const Json &J, Conv3dLayer &L,
                               std::string &Err) {
  if (!J.isObject()) {
    Err = "conv3d workload must be an object";
    return false;
  }
  L.Name = J.str("name");
  if (!requireInt(J, "in_c", L.InC, Err) || !requireInt(J, "in_d", L.InD, Err) ||
      !requireInt(J, "in_h", L.InH, Err) || !requireInt(J, "in_w", L.InW, Err) ||
      !requireInt(J, "out_c", L.OutC, Err) || !requireInt(J, "k", L.K, Err))
    return false;
  if (!readIntField(J, "stride", 1, L.Stride, Err) ||
      !readIntField(J, "pad", 0, L.Pad, Err))
    return false;
  if (L.InC <= 0 || L.InD <= 0 || L.InH <= 0 || L.InW <= 0 || L.OutC <= 0 ||
      L.K <= 0 || L.Stride <= 0 || L.Pad < 0) {
    Err = "conv3d dimensions must be positive (pad non-negative)";
    return false;
  }
  if (!checkDims({L.InC, L.InD, L.InH, L.InW, L.OutC, L.K, L.Stride, L.Pad},
                 Err))
    return false;
  if (L.outD() <= 0 || L.outH() <= 0 || L.outW() <= 0) {
    Err = "conv3d output extent is not positive (kernel larger than the "
          "padded input?)";
    return false;
  }
  return true;
}

bool unit::modelFromJson(const Json &J, Model &M, std::string &Err) {
  if (!J.isObject()) {
    Err = "model must be an object";
    return false;
  }
  M.Name = J.str("name", "unnamed");
  const Json *Layers = J.get("layers");
  if (!Layers || !Layers->isArray() || Layers->items().empty()) {
    Err = "model requires a non-empty 'layers' array";
    return false;
  }
  M.Convs.clear();
  for (const Json &LayerJson : Layers->items()) {
    ConvLayer L;
    if (!convLayerFromJson(LayerJson, L, Err))
      return false;
    M.Convs.push_back(std::move(L));
  }
  M.ElementwiseBytes = J.num("elementwise_bytes", 0);
  M.GlueOps = static_cast<int>(J.integer("glue_ops", 0));
  return true;
}

bool unit::kernelReportFromJson(const Json &J, KernelReport &R,
                                std::string &Err) {
  if (!J.isObject()) {
    Err = "report must be an object";
    return false;
  }
  const Json *Seconds = J.get("seconds");
  if (!Seconds || !Seconds->isNumber()) {
    Err = "report missing 'seconds'";
    return false;
  }
  R.Seconds = Seconds->asNumber();
  R.Tensorized = J.boolean("tensorized", false);
  R.BestCandidateIndex = static_cast<int>(J.integer("best_candidate_index", -1));
  R.CandidatesTried = static_cast<int>(J.integer("candidates_tried", 0));
  R.IntrinsicName = J.str("intrinsic");
  return true;
}

Json unit::cacheEntriesToJson(
    const std::vector<KernelCache::ExportedEntry> &Entries) {
  Json J = Json::array();
  for (const KernelCache::ExportedEntry &E : Entries) {
    Json EJ = Json::object();
    EJ.set("key", E.Key);
    EJ.set("report", toJson(E.Report));
    J.push(std::move(EJ));
  }
  return J;
}

std::vector<KernelCache::ExportedEntry>
unit::cacheEntriesFromJson(const Json *Entries) {
  std::vector<KernelCache::ExportedEntry> Out;
  if (!Entries || !Entries->isArray())
    return Out;
  for (const Json &E : Entries->items()) {
    KernelCache::ExportedEntry X;
    X.Key = E.str("key");
    const Json *ReportJson = E.get("report");
    std::string Err;
    if (X.Key.empty() || !ReportJson ||
        !kernelReportFromJson(*ReportJson, X.Report, Err))
      continue; // Malformed entries are skipped, not fatal.
    Out.push_back(std::move(X));
  }
  return Out;
}

Json unit::makeResultNotification(uint64_t Ticket, bool Cached,
                                  const KernelReport &R) {
  Json J = Json::object();
  J.set("type", "result");
  J.set("ticket", Ticket);
  J.set("cached", Cached);
  J.set("report", toJson(R));
  return J;
}

Json unit::makeErrorNotification(uint64_t Ticket, const std::string &Message) {
  Json J = Json::object();
  J.set("type", "result");
  J.set("ticket", Ticket);
  J.set("error", Message);
  return J;
}

bool unit::isNotification(const Json &Frame) {
  // Only "result" frames are ever pushed; cancelled / ticket_status
  // replies also carry a ticket but arrive strictly in request order.
  return Frame.isObject() && Frame.str("type") == "result" &&
         Frame.get("ticket") != nullptr;
}

CompileOptions unit::optionsFromJson(const Json *J) {
  CompileOptions O;
  if (!J || !J->isObject())
    return O;
  O.MaxCandidates = static_cast<int>(J->integer("max_candidates", -1));
  if (std::optional<CachePolicy> P = cachePolicyFromName(J->str("policy")))
    O.Policy = *P;
  return O;
}

const char *unit::cachePolicyName(CachePolicy P) {
  switch (P) {
  case CachePolicy::Default:
    return "default";
  case CachePolicy::Bypass:
    return "bypass";
  case CachePolicy::Refresh:
    return "refresh";
  }
  return "default";
}

std::optional<CachePolicy>
unit::cachePolicyFromName(const std::string &Name) {
  if (Name == "default")
    return CachePolicy::Default;
  if (Name == "bypass")
    return CachePolicy::Bypass;
  if (Name == "refresh")
    return CachePolicy::Refresh;
  return std::nullopt;
}
