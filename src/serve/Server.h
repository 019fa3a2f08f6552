//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The swift-serve request loop: line-delimited JSON over an istream /
/// ostream pair (stdin/stdout in the daemon, stringstreams in tests).
/// One request per line, one response per line; a malformed request gets
/// an {"ok":false,"code":"...","error":"..."} response and the loop keeps
/// serving. Failure codes are machine-readable: "parse" (not JSON),
/// "bad_request" (wrong shape), "unknown_op", "io" (persistence failure),
/// and "oversized_line" — a request line longer than 64 KiB is rejected
/// without ever being buffered whole, the rest of the line is drained,
/// and the session continues with the next line. EOF or a shutdown
/// request ends the loop.
///
/// Requests (field order free; unknown fields ignored; the numbers N, S,
/// K and D must be non-negative integer literals, N below 2^32, or the
/// request is a bad_request):
///   {"op":"query","site":N}      -> {"ok":true,"site":N,
///                                    "verdict":"proved|error|unresolved",
///                                    "tracked":bool}
///   {"op":"query_all"}           -> {"ok":true,"num_sites":N,
///                                    "error_sites":[...]}
///   {"op":"edit","proc":"p","body":"proc p(...) ... {...}"
///        [,"deadline_ms":D]}     -> {"ok":true,"invalidated":I,
///                                    "reanalyzed":R,"reused":U} or
///                                   {"ok":false,"error":"...",
///                                    "budget_exhausted":bool,
///                                    "degraded":bool}
///   {"op":"fuzz_edit","seed":S,"k":K[,"deadline_ms":D]}
///                                -> edit response + "proc" (the edit is
///                                    makeFuzzEdit(text, S, K), derived
///                                    server-side — the soak harness's
///                                    way of editing without shipping
///                                    program text through JSON)
///   {"op":"stats"}               -> {"ok":true,"procs":N,"summaries":N,
///                                    "solved":bool}
///   {"op":"dump"}                -> {"ok":true,"program":"..."}
///                                    (canonical text, for scratch checks)
///   {"op":"save"[,"path":"f"]}   -> {"ok":true}; with no explicit path
///                                    and a journal configured this is
///                                    compaction: store snapshot, then
///                                    journal reset
///   {"op":"shutdown"}            -> {"ok":true} and the loop returns
///
/// Overload protection: when ServeLimits arms it, edit-class requests
/// (edit/fuzz_edit) are shed with code "retry" while the previous edit's
/// budget exhaustion cools down or while input-queue pressure exceeds the
/// bound. Queries are never shed — answering from retained summaries is
/// cheap and always sound.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SERVE_SERVER_H
#define SWIFT_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace swift {
namespace serve {

class ServeEngine;

/// Request-loop policy knobs; default-constructed = PR-7 behavior (no
/// shedding, no drain coordination).
struct ServeLimits {
  /// After an edit exhausts its budget/deadline, shed further edit-class
  /// requests with code "retry" until this many milliseconds pass (the
  /// governor latched Red once; give the operator's retry loop backoff
  /// instead of grinding). 0 disables the latch.
  uint64_t ShedCooldownMs = 0;
  /// Shed edit-class requests while more than this many bytes are
  /// already buffered on \p In (queue pressure: clients are pipelining
  /// faster than re-analysis drains). 0 disables the check.
  uint64_t MaxPendingBytes = 0;
  /// Graceful-drain flag, set by an async-signal-safe SIGTERM/SIGINT
  /// handler (which also closes the input fd to unblock the read). When
  /// observed, the loop finishes the in-flight request, emits one final
  /// {"ok":true,"drain":true,...} stats line, and returns 0. A partial
  /// line cut off by the close is discarded, never half-parsed.
  std::atomic<bool> *Drain = nullptr;
};

/// Serves requests from \p In to \p Out until EOF, shutdown, or drain.
/// Returns 0 on a clean exit, non-zero only on an unwritable output
/// stream. The engine must already be solved; requests arriving before
/// that report unresolved verdicts but are still answered. With metrics
/// on, each edit and query request's wall time in microseconds goes to
/// the histograms serve.edit_latency_us and serve.query_latency_us.
int serveLines(ServeEngine &Engine, std::istream &In, std::ostream &Out,
               const ServeLimits &Limits = {});

} // namespace serve
} // namespace swift

#endif // SWIFT_SERVE_SERVER_H
