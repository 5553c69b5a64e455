//===- tests/CacheTestUtil.h - KernelCache helpers for tests --------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Drives a KernelCache the way the session's miss body does — resolveThen,
// then fulfill() or fail() by the single-flight winner — so cache tests
// can stand in a lambda for a real backend compile, and can plant an
// in-flight winner that joiners pile onto.
//
//===----------------------------------------------------------------------===//

#ifndef UNIT_TESTS_CACHETESTUTIL_H
#define UNIT_TESTS_CACHETESTUTIL_H

#include "runtime/KernelCache.h"

#include <exception>
#include <future>
#include <string>

namespace unit::testutil {

/// Resolves \p Key, blocking: a ready entry returns its report, a join
/// waits on the in-flight entry's future, and the winner runs \p Compile
/// and publishes the result with fulfill() — or, if \p Compile throws,
/// with fail() (which evicts the key) before rethrowing. \p ComputedHere,
/// when non-null, reports whether this call was the winner.
template <typename CompileFn>
KernelReport resolveOrCompute(KernelCache &Cache, const std::string &Key,
                              CompileFn Compile,
                              bool *ComputedHere = nullptr) {
  std::shared_future<KernelReport> Fut;
  KernelCache::ComputeTicket Ticket;
  KernelCache::ResolveKind Kind =
      Cache.resolveThen(Key, /*OnDone=*/nullptr, &Fut, &Ticket);
  bool Winner = Kind == KernelCache::ResolveKind::MustCompute;
  if (ComputedHere)
    *ComputedHere = Winner;
  if (!Winner)
    return Fut.get();
  try {
    KernelReport Report = Compile();
    Cache.fulfill(Key, Ticket, Report);
    return Report;
  } catch (...) {
    Cache.fail(Key, Ticket, std::current_exception());
    throw;
  }
}

/// Seeds a ready entry for a key not yet in \p Cache, through the same
/// importReady() path disk loads and peer pushes take.
inline void seedReady(KernelCache &Cache, const std::string &Key,
                      const KernelReport &Report) {
  Cache.importReady({{Key, Report}});
}

} // namespace unit::testutil

#endif // UNIT_TESTS_CACHETESTUTIL_H
