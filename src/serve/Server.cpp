//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "serve/EditGen.h"
#include "serve/Engine.h"

#include <chrono>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

using namespace swift;
using namespace swift::serve;
namespace json = swift::obs::json;

namespace {

json::Value makeObj() {
  json::Value V;
  V.K = json::Value::Kind::Object;
  return V;
}

json::Value makeArr() {
  json::Value V;
  V.K = json::Value::Kind::Array;
  return V;
}

void put(json::Value &Obj, const char *Key, json::Value V) {
  Obj.Obj.emplace_back(Key, std::move(V));
}

/// Every failure response carries a machine-readable "code" alongside the
/// human-readable "error": clients dispatch on the code, never on message
/// text. Codes: "parse" (not JSON), "bad_request" (JSON but wrong shape),
/// "unknown_op", "io" (engine-side persistence failure),
/// "oversized_line" (request exceeded the line cap), and "retry" (the
/// admission gate shed an edit-class request; back off and resend).
json::Value errorResp(const char *Code, const std::string &Msg) {
  json::Value R = makeObj();
  put(R, "ok", json::Value::boolean(false));
  put(R, "code", json::Value::str(Code));
  put(R, "error", json::Value::str(Msg));
  return R;
}

json::Value editResp(const EditResult &R) {
  json::Value Resp = makeObj();
  put(Resp, "ok", json::Value::boolean(R.Ok));
  if (!R.Ok) {
    put(Resp, "error", json::Value::str(R.Error));
    put(Resp, "budget_exhausted", json::Value::boolean(R.BudgetExhausted));
    // degraded=true is the deadline contract: the edit was not applied,
    // but the engine's retained pre-edit verdicts are still served and
    // still sound — a partial answer, not a wedge.
    put(Resp, "degraded", json::Value::boolean(R.Degraded));
    return Resp;
  }
  put(Resp, "invalidated", json::Value::u64(R.Invalidated));
  put(Resp, "reanalyzed", json::Value::u64(R.Reanalyzed));
  put(Resp, "reused", json::Value::u64(R.Reused));
  if (!R.Warning.empty())
    put(Resp, "warning", json::Value::str(R.Warning));
  return Resp;
}

/// Per-session admission-gate state. The latch arms when an edit
/// exhausts its budget (the governor went Red at least once this
/// cooldown window); queue pressure is read fresh off the input stream's
/// buffer each time.
struct Session {
  const ServeLimits &Limits;
  std::istream &In;
  bool ShedLatched = false;
  std::chrono::steady_clock::time_point ShedUntil{};

  /// True when an edit-class request should be shed with code "retry".
  bool shouldShed() {
    if (Limits.ShedCooldownMs != 0 && ShedLatched) {
      if (std::chrono::steady_clock::now() < ShedUntil)
        return true;
      ShedLatched = false;
    }
    if (Limits.MaxPendingBytes != 0) {
      std::streamsize Avail = In.rdbuf()->in_avail();
      if (Avail > 0 &&
          static_cast<uint64_t>(Avail) > Limits.MaxPendingBytes)
        return true;
    }
    return false;
  }

  /// Called with every edit outcome; budget exhaustion arms the latch.
  void noteEdit(const EditResult &R) {
    if (R.BudgetExhausted && Limits.ShedCooldownMs != 0) {
      ShedLatched = true;
      ShedUntil = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Limits.ShedCooldownMs);
    }
  }
};

json::Value shedResp() {
  return errorResp("retry",
                   "server overloaded (recent budget exhaustion or "
                   "queue pressure); retry after backoff");
}

/// Field \p Key of \p Req as an integer in [0, \p Max]; nullopt when it
/// is absent or anything else. Only an exact integer lexeme qualifies (the
/// parser keeps exactly those as NumRep::U64): read through asU64, a
/// fraction, a negative or a wider value would name some other integer.
std::optional<uint64_t> uintField(const json::Value &Req,
                                  std::string_view Key,
                                  uint64_t Max = UINT64_MAX) {
  const json::Value *V = Req.find(Key);
  if (!V || !V->isNumber() || V->NR != json::Value::NumRep::U64 ||
      V->U > Max)
    return std::nullopt;
  return V->U;
}

/// The optional "deadline_ms" field of an edit-class request: 0 (the
/// engine default) when absent, nullopt when malformed.
std::optional<uint64_t> deadlineField(const json::Value &Req) {
  if (!Req.find("deadline_ms"))
    return 0;
  return uintField(Req, "deadline_ms");
}

json::Value badDeadline() {
  return errorResp("bad_request",
                   "bad request: 'deadline_ms' must be a non-negative "
                   "integer");
}

/// Answers one request line. \p Latency is set to the name of the
/// histogram the request's wall time belongs in: queries and edits that
/// get past validation and the admission gate.
json::Value handle(ServeEngine &E, const std::string &Line,
                   bool &Shutdown, Session &S, const char *&Latency) {
  json::Value Req;
  try {
    Req = json::parse(Line);
  } catch (const std::runtime_error &Err) {
    return errorResp("parse", std::string("bad request: ") + Err.what());
  }
  if (!Req.isObject())
    return errorResp("bad_request", "bad request: not a JSON object");
  const json::Value *Op = Req.find("op");
  if (!Op || !Op->isString())
    return errorResp("bad_request",
                     "bad request: missing string field 'op'");

  if (Op->Str == "query") {
    std::optional<uint64_t> Site =
        uintField(Req, "site", std::numeric_limits<SiteId>::max());
    if (!Site)
      return errorResp("bad_request",
                       "query: field 'site' must be an integer in [0, 2^32)");
    Latency = "serve.query_latency_us";
    SiteId S = static_cast<SiteId>(*Site);
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    put(R, "site", json::Value::u64(S));
    put(R, "verdict", json::Value::str(tsVerdictName(E.verdict(S))));
    put(R, "tracked", json::Value::boolean(E.trackedSite(S)));
    return R;
  }

  if (Op->Str == "query_all") {
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    put(R, "num_sites", json::Value::u64(E.program().numSites()));
    json::Value Sites = makeArr();
    for (SiteId S : E.errorSites())
      Sites.Arr.push_back(json::Value::u64(S));
    put(R, "error_sites", std::move(Sites));
    return R;
  }

  if (Op->Str == "edit") {
    const json::Value *Proc = Req.find("proc");
    const json::Value *Body = Req.find("body");
    if (!Proc || !Proc->isString())
      return errorResp("bad_request", "edit: missing string field 'proc'");
    if (!Body || !Body->isString())
      return errorResp("bad_request", "edit: missing string field 'body'");
    std::optional<uint64_t> Deadline = deadlineField(Req);
    if (!Deadline)
      return badDeadline();
    if (S.shouldShed())
      return shedResp();
    Latency = "serve.edit_latency_us";
    EditResult R = E.applyEdit(Proc->Str, Body->Str, *Deadline);
    S.noteEdit(R);
    return editResp(R);
  }

  if (Op->Str == "fuzz_edit") {
    std::optional<uint64_t> Seed = uintField(Req, "seed");
    std::optional<uint64_t> K = uintField(Req, "k");
    if (!Seed)
      return errorResp("bad_request", "fuzz_edit: field 'seed' must be a "
                                      "non-negative integer");
    if (!K)
      return errorResp("bad_request", "fuzz_edit: field 'k' must be a "
                                      "non-negative integer");
    std::optional<uint64_t> Deadline = deadlineField(Req);
    if (!Deadline)
      return badDeadline();
    if (S.shouldShed())
      return shedResp();
    std::optional<FuzzEdit> FE = makeFuzzEdit(E.programText(), *Seed, *K);
    if (!FE)
      return errorResp("bad_request",
                       "fuzz_edit: program has no editable command");
    EditResult R = E.applyEdit(FE->ProcName, FE->Body, *Deadline);
    S.noteEdit(R);
    json::Value Resp = editResp(R);
    put(Resp, "proc", json::Value::str(FE->ProcName));
    return Resp;
  }

  if (Op->Str == "stats") {
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    put(R, "procs", json::Value::u64(E.numProcs()));
    put(R, "summaries", json::Value::u64(E.numSummaries()));
    put(R, "solved", json::Value::boolean(E.solved()));
    return R;
  }

  if (Op->Str == "dump") {
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    put(R, "program", json::Value::str(E.programText()));
    return R;
  }

  if (Op->Str == "save") {
    const json::Value *Path = Req.find("path");
    try {
      if (Path && Path->isString()) {
        // An explicit path is an export: the journal keeps covering the
        // configured store, so it stays intact.
        E.saveStore(Path->Str);
      } else if (E.journaling()) {
        E.compact();
      } else {
        E.saveStore();
      }
    } catch (const std::exception &Err) {
      return errorResp("io", std::string("save failed: ") + Err.what());
    }
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    return R;
  }

  if (Op->Str == "shutdown") {
    Shutdown = true;
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    return R;
  }

  return errorResp("unknown_op", "unknown op '" + Op->Str + "'");
}

/// Hard cap on one request line. Far above any legitimate request (an
/// edit body is bounded by procedure size), far below what an unbounded
/// std::getline would buffer from a runaway or hostile client.
constexpr size_t MaxRequestLine = 64 * 1024;

enum class LineRead { Ok, Oversized, Eof };

/// Reads one newline-terminated line into \p Line, never buffering more
/// than MaxRequestLine bytes. On overflow the rest of the line is drained
/// (not stored) so the session stays line-synchronized and the *next*
/// request is served normally.
LineRead readBoundedLine(std::istream &In, std::string &Line) {
  Line.clear();
  using Traits = std::istream::traits_type;
  bool Any = false;
  for (;;) {
    int C = In.get();
    if (Traits::eq_int_type(C, Traits::eof()))
      return Any ? LineRead::Ok : LineRead::Eof;
    Any = true;
    if (C == '\n')
      return LineRead::Ok;
    if (Line.size() == MaxRequestLine) {
      do {
        C = In.get();
      } while (!Traits::eq_int_type(C, Traits::eof()) && C != '\n');
      return LineRead::Oversized;
    }
    Line += static_cast<char>(C);
  }
}

} // namespace

int swift::serve::serveLines(ServeEngine &Engine, std::istream &In,
                             std::ostream &Out,
                             const ServeLimits &Limits) {
  Session S{Limits, In};
  auto DrainRequested = [&Limits] {
    return Limits.Drain != nullptr && Limits.Drain->load();
  };
  // The final line of a drained session: a self-identifying stats object
  // so an operator's log shows what state the daemon carried out the
  // door. Journal durability needs no work here — every append fsync'd.
  auto EmitDrain = [&] {
    json::Value R = makeObj();
    put(R, "ok", json::Value::boolean(true));
    put(R, "drain", json::Value::boolean(true));
    put(R, "procs", json::Value::u64(Engine.numProcs()));
    put(R, "summaries", json::Value::u64(Engine.numSummaries()));
    put(R, "solved", json::Value::boolean(Engine.solved()));
    Out << json::dump(R) << '\n';
    Out.flush();
  };
  std::string Line;
  for (;;) {
    LineRead R = readBoundedLine(In, Line);
    if (R == LineRead::Eof) {
      if (DrainRequested())
        EmitDrain();
      return 0;
    }
    // The drain handler closes the input fd; a line the close cut short
    // (no terminating newline, eofbit set) was never fully sent and is
    // discarded rather than half-parsed. A fully buffered line is the
    // in-flight request and is finished below.
    if (R == LineRead::Ok && In.eof() && DrainRequested()) {
      EmitDrain();
      return 0;
    }
    // With metrics on, a request's latency runs from its line being read
    // to its response being flushed.
    bool Timed = obs::metricsEnabled();
    auto Start = Timed ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point();
    const char *Latency = nullptr;
    json::Value Resp;
    bool Shutdown = false;
    if (R == LineRead::Oversized) {
      Resp = errorResp("oversized_line",
                       "request line exceeds " +
                           std::to_string(MaxRequestLine) + " bytes");
    } else {
      bool OnlySpace = true;
      for (char C : Line)
        if (C != ' ' && C != '\t' && C != '\r')
          OnlySpace = false;
      if (OnlySpace)
        continue;
      Resp = handle(Engine, Line, Shutdown, S, Latency);
    }
    Out << json::dump(Resp) << '\n';
    Out.flush();
    if (Timed && Latency)
      obs::MetricsRegistry::instance().histogram(Latency)->record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - Start)
              .count());
    if (!Out)
      return 1;
    if (Shutdown)
      break;
    if (DrainRequested()) {
      EmitDrain();
      return 0;
    }
  }
  return 0;
}
