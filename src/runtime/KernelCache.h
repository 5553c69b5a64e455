//===- runtime/KernelCache.h - Shared compiled-kernel cache ---------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread-safe cache of compiled-kernel reports shared by every engine
/// and session, replacing the per-engine string maps the executors used to
/// carry. Keys are canonical structural serializations of the tensor
/// operation (core/Isomorphism.h canonicalComputeKey) prefixed with the
/// backend's salt, so isomorphic layers with renamed variables hit the same
/// entry while different machines never collide.
///
/// Lookups are single-flight: resolveThen() makes exactly one concurrent
/// caller per missing key the winner, which compiles and publishes through
/// fulfill() or fail(); everyone else joins the same entry — a model with
/// repeated shapes never tunes a shape twice. A joiner either registers a
/// Waiter callback on the in-flight entry, which the winner drains when it
/// completes (success and failure alike), or waits on the entry's future
/// itself. A callback join never occupies a thread, which is what lets a
/// session pool keep tuning while thousands of tickets fan into the same
/// few compiles; only a caller-owned thread (CompilerSession's blocking
/// compile) waits on the future.
///
/// The cache is bounded (optionally) by an LRU entry cap and/or an LRU
/// byte cap over the resident-byte accounting, expires (optionally) by
/// age — setTTL() makes ready entries older than the TTL read as absent,
/// so a long-lived daemon re-tunes them instead of serving stale reports
/// forever — and persists to disk: save() writes the surviving ready
/// entries under a caller-supplied fingerprint (machine parameters +
/// format version), and load() rejects files whose fingerprint does not
/// match byte-for-byte — stale or cross-machine entries never leak into a
/// session.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_KERNELCACHE_H
#define UNIT_RUNTIME_KERNELCACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace unit {

/// What compiling one kernel produced: the modeled latency plus the search
/// telemetry the benches and per-layer reports surface.
struct KernelReport {
  double Seconds = 0.0;
  bool Tensorized = false;
  int BestCandidateIndex = -1; ///< Winning tuning candidate, -1 = fallback.
  int CandidatesTried = 0;
  std::string IntrinsicName;   ///< Winning instruction; empty for fallback.
};

class KernelCache {
public:
  /// Continuation registered on an in-flight entry. Fired exactly once by
  /// the winner when its compile resolves: (&Report, nullptr) on success,
  /// (nullptr, Error) on failure. Runs on the winner's completing thread
  /// with no cache lock held — keep it short and never call back into
  /// blocking cache APIs from inside it.
  using Waiter =
      std::function<void(const KernelReport *, std::exception_ptr)>;

  /// What resolveThen() found for a key.
  enum class ResolveKind {
    Ready,       ///< Entry ready; the future yields the report immediately.
    Joined,      ///< Compile in flight; the waiter (if any) was registered.
    MustCompute, ///< Caller is the winner and owns running the compile.
  };

  /// Winner-side handle handed out by resolveThen() on MustCompute. The
  /// holder must resolve it exactly once via fulfill() or fail(); both
  /// drain every waiter that joined while the compile ran. The embedded
  /// waiter list doubles as the entry's identity: if erase()/clear()
  /// dropped the slot mid-compile and a new winner took it, completion
  /// still drains the original joiners but leaves the new entry's
  /// accounting alone.
  class ComputeTicket {
    friend class KernelCache;
    std::shared_ptr<std::promise<KernelReport>> Promise;
    std::shared_ptr<std::vector<Waiter>> Waiters;

  public:
    explicit operator bool() const { return Promise != nullptr; }
  };

  /// \p MaxEntries == 0 means unbounded; otherwise least-recently-used
  /// ready entries are evicted once the cap is exceeded. \p MaxBytes
  /// bounds the resident-byte accounting (bytesUsed()) the same way;
  /// both caps may be active at once and are enforced independently.
  /// In-flight entries are never evicted by either cap.
  explicit KernelCache(size_t MaxEntries = 0, size_t MaxBytes = 0)
      : MaxEntries(MaxEntries), MaxBytes(MaxBytes) {}

  /// Non-blocking single-flight resolve. Exactly one concurrent caller per
  /// missing key gets MustCompute (plus a ComputeTicket it must resolve via
  /// fulfill()/fail()); everyone else gets Ready (report available through
  /// \p FutOut now) or Joined (\p OnDone registered for the winner's drain;
  /// a null \p OnDone joins future-only, for callers that will block on
  /// \p FutOut themselves). \p FutOut, when non-null, always receives the
  /// entry's future. Ready and Joined count as hits, MustCompute as a miss.
  /// In-flight entries keep every existing invariant: never evicted by the
  /// caps, never TTL-expired, and a failed compile erases the key before
  /// the error is published, so the key stays retryable and never poisoned.
  ResolveKind resolveThen(const std::string &Key, Waiter OnDone,
                          std::shared_future<KernelReport> *FutOut,
                          ComputeTicket *Ticket);

  /// Publishes the winner's report for \p Key: readies the entry's future,
  /// folds the now-known report into the byte accounting, enforces the
  /// caps, and fires every registered waiter with (&Report, nullptr).
  /// Waiters run on this thread, after the cache lock is released.
  void fulfill(const std::string &Key, ComputeTicket &Ticket,
               const KernelReport &Report);

  /// Publishes the winner's failure for \p Key: erases the entry *first*
  /// (so the key is immediately retryable — a failed compile never poisons
  /// the cache), then readies the future with \p Error and fires every
  /// registered waiter with (nullptr, Error), lock released.
  void fail(const std::string &Key, ComputeTicket &Ticket,
            std::exception_ptr Error);

  /// Non-computing probe; std::nullopt when absent or still compiling.
  std::optional<KernelReport> lookup(const std::string &Key) const;

  /// Drops \p Key if present (no-op otherwise).
  void erase(const std::string &Key);

  /// Drops \p Key only when its entry is ready. An in-flight entry stays:
  /// removing it would let a second compile of the same key start, and
  /// the winner's completion paths assume the entry is still theirs.
  /// CachePolicy::Refresh uses this — a compile currently in flight is
  /// fresh enough to serve as the refreshed result.
  void eraseReady(const std::string &Key);

  bool contains(const std::string &Key) const;
  size_t size() const;
  void clear();

  /// Changes the LRU entry cap (0 = unbounded); evicts immediately when
  /// the current size exceeds the new cap.
  void setCapacity(size_t NewMaxEntries);
  size_t capacity() const;

  /// Changes the LRU byte cap (0 = unbounded); evicts immediately when
  /// the current accounting exceeds the new cap. Eviction walks from the
  /// cold end of the LRU list, skipping in-flight entries.
  void setByteCapacity(size_t NewMaxBytes);
  size_t byteCapacity() const;

  /// Wall-clock source for age-based expiry; injectable so TTL tests can
  /// advance time deterministically instead of sleeping.
  using ClockFn = std::function<double()>;

  /// Age-based expiry: a ready entry older than \p Seconds (measured from
  /// the moment its report became ready, or from load() for persisted
  /// entries) reads as absent — lookup/contains say no, resolveThen
  /// drops it and makes the caller the winner of a fresh compile, save()
  /// skips it. In-flight entries never
  /// expire (their winner is still computing). \p Seconds <= 0 disables
  /// expiry; \p Clock defaults to the process steady clock.
  void setTTL(double Seconds, ClockFn Clock = {});
  double ttlSeconds() const;

  /// Erases every expired ready entry now (expiry is otherwise lazy — an
  /// expired entry stays resident until its key is touched). Long-lived
  /// daemons call this periodically so dead entries release their bytes.
  /// Returns the number of entries dropped.
  size_t purgeExpired();

  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Entries = 0;   ///< Current entry count (== size()).
    size_t BytesUsed = 0; ///< Approximate resident bytes (== bytesUsed()).
  };
  CacheStats stats() const;

  /// Approximate resident size of the cache in bytes: for each entry the
  /// key (stored twice — hash-map key and LRU node), the report's owned
  /// intrinsic-name string, and the fixed per-entry bookkeeping. In-flight
  /// entries count without their (not-yet-known) intrinsic name. This is
  /// the sizing signal a long-lived server reports, and the quantity the
  /// byte cap (setByteCapacity / SessionConfig::CacheCapacityBytes)
  /// bounds.
  ///
  /// An O(entries) walk under the mutex — exact at the instant of the
  /// call, including in-flight -> ready growth the incremental counter
  /// only folds in at the winner's completion. Fine for the rare,
  /// operator-driven stats path (~10µs/1k entries); cap *enforcement*
  /// reads the O(1) counter instead.
  size_t bytesUsed() const;

  /// Per-entry byte accounting, most-recently-used first. Canonical keys
  /// serialize the whole operation (multi-KB each); a display-only
  /// consumer passes \p MaxKeyBytes to bound how much key material is
  /// copied while the cache mutex is held (Bytes still accounts the full
  /// key; 0 = copy keys whole).
  struct EntrySize {
    std::string Key;
    size_t Bytes = 0;
    bool Ready = true; ///< False while the entry's compile is in flight.
  };
  std::vector<EntrySize> entrySizes(size_t MaxKeyBytes = 0) const;

  //===--------------------------------------------------------------------===//
  // Fleet exchange (src/fabric): per-entry export / import
  //===--------------------------------------------------------------------===//

  /// One ready entry in exchange form — what fetch_cache/push_cache
  /// frames carry between same-fingerprint daemons.
  struct ExportedEntry {
    std::string Key;
    KernelReport Report;
  };

  /// Snapshots ready entries, most-recently-used first. With \p Keys,
  /// exports exactly those (absent, in-flight, and expired keys are
  /// skipped — a fetch for an in-flight key misses rather than blocking
  /// on the winner); without, a bulk export of everything ready.
  /// \p MaxBytes (0 = unbounded) caps the summed approximate wire size
  /// (key + intrinsic name + fixed framing) so one reply frame stays
  /// under the protocol's frame bound. Export refreshes no recency and
  /// counts no hits — it is replication, not a lookup.
  std::vector<ExportedEntry>
  exportReady(size_t MaxBytes = 0,
              const std::vector<std::string> *Keys = nullptr) const;

  /// Merges peer-supplied entries. Keys already present — ready *or* in
  /// flight — keep their local value: a peer's gift never displaces a
  /// live compile (the single-flight winner still owns its entry) or a
  /// local result. Caps are enforced after the merge; load() merges
  /// through here too. Returns the number of entries actually inserted.
  size_t importReady(const std::vector<ExportedEntry> &NewEntries);

  //===--------------------------------------------------------------------===//
  // Disk persistence
  //===--------------------------------------------------------------------===//

  enum class LoadStatus {
    Loaded,              ///< Entries merged into the cache.
    FileNotFound,        ///< Path could not be opened for reading.
    BadFormat,           ///< Corrupted / truncated / wrong format version.
    FingerprintMismatch, ///< Valid file from a different machine or config.
  };
  struct LoadResult {
    LoadStatus Status = LoadStatus::BadFormat;
    size_t EntriesLoaded = 0;
  };

  /// Writes every *ready* entry (in-flight compiles are skipped, evicted
  /// entries are gone — survivors only) in most-recently-used-first order
  /// under \p Fingerprint. Returns the number of entries written.
  size_t save(std::ostream &Out, const std::string &Fingerprint) const;

  /// Parses a save()d stream. All-or-nothing: a corrupted file or a
  /// fingerprint mismatch loads zero entries. Loaded entries are merged —
  /// keys already present (or in flight) keep their current value.
  LoadResult load(std::istream &In, const std::string &Fingerprint);

  /// File convenience wrappers. saveFile returns entries written, or
  /// std::nullopt when the file could not be created.
  std::optional<size_t> saveFile(const std::string &Path,
                                 const std::string &Fingerprint) const;
  LoadResult loadFile(const std::string &Path, const std::string &Fingerprint);

  /// Deletes "<Path>.tmp.*" leftovers a crashed saver orphaned (the
  /// write-then-rename scheme never publishes them, but each crash
  /// leaves one behind). Call at startup, before serving: a *live*
  /// process concurrently saving the same path could lose its in-flight
  /// temp to this sweep, and sharing one cache file between running
  /// daemons is unsupported anyway.
  static void removeStaleSaves(const std::string &Path);

private:
  struct Entry {
    std::shared_future<KernelReport> Fut;
    std::list<std::string>::iterator LruIt; ///< Position in Lru.
    /// The byte count this entry last contributed to BytesResident.
    /// Storing it makes the incremental counter exact: whatever was
    /// added is what gets subtracted on erase, even across the
    /// in-flight -> ready size transition.
    size_t AccountedBytes = 0;
    /// Clock reading when the report became ready; < 0 while in flight.
    /// The TTL is measured against this.
    double ReadyAt = -1;
    /// Continuations to drain when the in-flight compile resolves. Non-null
    /// exactly while in flight (resolveThen allocates it with the entry);
    /// ready entries drop it. Shared with the winner's ComputeTicket so a
    /// displaced winner still drains the joiners it owns.
    std::shared_ptr<std::vector<Waiter>> Waiters;
  };

  /// Moves \p E's node to the front of the LRU list (splice keeps the
  /// stored iterator valid, so the entry itself is untouched). Mu held.
  void touchLocked(const Entry &E) const;
  /// Recomputes \p E's resident bytes, folds the delta into
  /// BytesResident, and stores the new value. Mu must be held. Called
  /// on insert and when an in-flight entry becomes ready (the intrinsic
  /// name materializes).
  void accountLocked(const std::string &Key, Entry &E);
  /// Inserts an entry (Mu must be held) and returns its map slot.
  Entry &insertLocked(const std::string &Key,
                      std::shared_future<KernelReport> Fut);
  /// Erases \p Key from map + LRU list. Mu must be held.
  void eraseLocked(const std::string &Key);
  /// Evicts ready LRU-tail entries until size() <= MaxEntries and the
  /// byte accounting <= MaxBytes (in-flight compiles are never evicted).
  /// Mu must be held.
  void enforceCapacityLocked();
  /// Approximate bytes one entry keeps resident. Mu must be held.
  size_t entryBytesLocked(const std::string &Key, const Entry &E) const;
  /// True when \p E is ready and older than the TTL. Mu must be held.
  bool expiredLocked(const Entry &E) const;
  /// The TTL clock reading (Clock when set, steady clock otherwise).
  /// Mu must be held (Clock is caller-supplied mutable state).
  double nowLocked() const;

  mutable std::mutex Mu;
  std::unordered_map<std::string, Entry> Entries;
  /// Front = most recently used. Mutated by const probes (lookup
  /// refreshes recency), hence mutable.
  mutable std::list<std::string> Lru;
  size_t MaxEntries = 0;
  size_t MaxBytes = 0;
  double TTLSeconds = 0; ///< <= 0 = entries never expire.
  ClockFn Clock;         ///< Null = steadyNowSeconds.
  /// Sum of every entry's AccountedBytes — the O(1) signal the byte cap
  /// is enforced against (bytesUsed()/stats() keep their exact walk).
  size_t BytesResident = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace unit

#endif // UNIT_RUNTIME_KERNELCACHE_H
