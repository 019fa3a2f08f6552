//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "clients/TestHooks.h"

#include "typestate/Transfer.h"

namespace swift {
namespace clients {
namespace test {

std::atomic<bool> InjectTaintStoreBug{false};
std::atomic<bool> InjectNullStoreBug{false};
std::atomic<bool> InjectReachDefsStoreBug{false};
std::atomic<bool> InjectIntervalGuardBug{false};

bool injectDomainBug(const std::string &Domain, bool On) {
  if (Domain == "typestate")
    swift::test::InjectTsCallWeakUpdateBug.store(On);
  else if (Domain == "taint")
    InjectTaintStoreBug.store(On);
  else if (Domain == "nullderef")
    InjectNullStoreBug.store(On);
  else if (Domain == "reachdefs")
    InjectReachDefsStoreBug.store(On);
  else if (Domain == "interval")
    InjectIntervalGuardBug.store(On);
  else
    return false;
  return true;
}

} // namespace test
} // namespace clients
} // namespace swift
