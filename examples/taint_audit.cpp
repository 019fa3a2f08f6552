//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second framework instantiation in action: an interprocedural
/// taint audit (the kill/gen analysis family of the paper's Section 5.2),
/// run by the registry's taint client. Values originating from `Source`
/// allocations are tainted; calling the `sink` method on a tainted value
/// is a leak unless it went through the sanitizer (which rebinds the
/// variable to a fresh `Clean` value).
///
//===----------------------------------------------------------------------===//

#include "clients/Registry.h"
#include "lang/Lower.h"

#include <cstdio>

using namespace swift;
using namespace swift::clients;

static const char *AuditProgram = R"(
  typestate Source { start raw; error e1; raw -sink-> raw; }
  typestate Clean  { start ok;  error e2; ok -sink-> ok; }
  typestate Db     { start d;   error e3; }

  proc main() {
    r = new Source;        // taint source
    q = handle(r);
    q.sink();              // leak: q is the raw source, reached a sink

    s = new Source;
    t = sanitize(s);
    t.sink();              // safe: t is a fresh Clean value

    db = new Db;
    db.cache = r;          // taint escapes into the heap...
    u = db.cache;
    audit(u);              // ...and leaks through a load in a callee
  }

  proc handle(req) {
    logRequest(req);
    return req;
  }

  proc logRequest(x) {
    y = x;                 // copies keep the taint
  }

  proc sanitize(x) {
    c = new Clean;
    return c;              // the tainted input does not flow out
  }

  proc audit(v) {
    v.sink();
  }
)";

int main() {
  std::unique_ptr<Program> Prog = parseProgram(AuditProgram);

  std::printf("Taint audit: sources = new Source, sinks = .sink()\n\n");

  DomainRunResult Td = runClientDomain("taint", *Prog, DomainMode::Td, 1, 1, 1);
  DomainRunResult Sw =
      runClientDomain("taint", *Prog, DomainMode::Swift, 2, 4, 1);
  DomainRunResult Bu = runClientDomain("taint", *Prog, DomainMode::Bu, 1, 1, 1);
  bool Agree = Td.Reports == Sw.Reports && Td.Reports == Bu.Reports;

  std::printf("leaks found (TD): %zu, (SWIFT): %zu, (BU): %zu — "
              "analyses agree: %s\n\n",
              Td.Reports.size(), Sw.Reports.size(), Bu.Reports.size(),
              Agree ? "yes" : "NO");

  for (const auto &[P, N] : Td.Reports)
    std::printf("  tainted value reaches the sink in %s (node %u): %s\n",
                Prog->symbols().text(Prog->proc(P).name()).c_str(), N,
                Prog->proc(P).node(N).Cmd.str(*Prog).c_str());

  std::printf("\nExpected: two leaks (the raw source in main, and the "
              "heap-laundered one in audit); the sanitized flow is "
              "clean.\n");
  return Td.Reports.size() == 2 && Agree ? 0 : 1;
}
