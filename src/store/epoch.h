// Epoch-based reclamation for deleted records (the PR 8 answer to the insert-only
// store leak).
//
// A committed delete makes a record logically absent but leaves it allocated and linked:
// lock-free readers (RecordMap::Find / ForEach, the seqlock read path) may hold a raw
// pointer to it at any moment, so it cannot simply be freed. The protocol here makes
// physical removal safe without adding any cost to those readers:
//
//   1. Workers advance a local epoch slot at every transaction boundary (the worker
//      loop, holding no record pointers). The driver (worker 0) advances the global
//      epoch once every worker has observed the current one — so "global advanced
//      twice" implies every worker passed at least one transaction boundary in between.
//   2. The driver sweeps the record map a chunk of buckets at a time. A record is
//      reclaimable when it is not split, not pinned (Doppel classifier state), its 2PL
//      rw lock and OCC lock are both free to a try-acquire, and it is logically absent
//      under those locks. The sweeper then marks it dead and bumps its TID in one
//      release store: a reader whose seqlock snapshot predates the mark fails OCC
//      validation on the TID; one whose snapshot carries the bumped TID observes the
//      dead flag and aborts to a re-route (engines check IsDead after every snapshot).
//      Absent records that were never written (read placeholders) are swept the same
//      way. The record is unlinked from its bucket chain (its own next pointer stays
//      intact, so a concurrent reader mid-chain still reaches the rest) and parked on a
//      limbo list stamped with the sweep epoch. If the key routes through a flat table
//      (src/store/flat_table.h), its slot is poisoned with a tombstone at the kill
//      point (same stripe-lock critical section) and re-opened only when the record is
//      freed — a flat slot is never republished before two epoch advances. Slot arrays
//      retired by flat growth ride the same limbo generation as records.
//   3. The limbo list is freed once the global epoch has advanced by two past the sweep
//      stamp: any transaction that could have routed to the record before it was
//      unlinked has ended (its worker ticked), and no later transaction can reach it
//      (lookups no longer return it, and no transaction carries pointers across its own
//      boundary). Doppel's coordinator holds cross-phase pointers only to split-marked
//      or pinned records, which the sweeper never touches.
//
// The Atomic engine is excluded: its writers mutate presence without taking any lock,
// so step 2's try-acquires prove nothing there. Deletes still work under it; their
// records are simply never physically reclaimed.
#ifndef DOPPEL_SRC_STORE_EPOCH_H_
#define DOPPEL_SRC_STORE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/function_ref.h"

namespace doppel {

class Record;
class Store;
struct FlatSlotArray;

// Reclamation knobs (Options::reclaim).
struct ReclaimOptions {
  // Master switch. Forced off internally under Protocol::kAtomic (see header comment).
  bool enabled = true;
  // The driver attempts an epoch advance / sweep step once per this many of its own
  // ticks; non-driver ticks only publish the worker's epoch slot.
  std::uint32_t tick_period = 64;
  // Buckets swept per step. Bounds the stripe-lock hold time of one step; the cursor
  // wraps, so smaller chunks just take more epochs to cover the map.
  std::size_t chunk_buckets = 1024;
};

// Global epoch + one observation slot per worker. Single driver (worker 0), many
// observers; all methods are wait-free.
class EpochManager {
 public:
  explicit EpochManager(std::size_t num_workers) : slots_(num_workers) {}
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Called by worker `worker_id` on its own thread at a transaction boundary: it holds
  // no record pointers at this instant, which is exactly what the grace period counts.
  // Returns the epoch the worker just published to its slot — the value a worker-local
  // cache of record pointers (Txn's route cache) must key its validity on.
  std::uint64_t Observe(std::size_t worker_id) {
    const std::uint64_t g = global_.load(std::memory_order_acquire);
    slots_[worker_id].seen.store(g, std::memory_order_release);
    return g;
  }

  // Driver only. Advances the global epoch iff every worker has observed the current
  // one; returns whether it advanced.
  bool TryAdvance() {
    const std::uint64_t g = global_.load(std::memory_order_acquire);
    for (const Slot& s : slots_) {
      if (s.seen.load(std::memory_order_acquire) != g) {
        return false;
      }
    }
    global_.store(g + 1, std::memory_order_release);
    return true;
  }

  std::uint64_t global() const { return global_.load(std::memory_order_acquire); }

 private:
  struct alignas(kCacheLineSize) Slot {
    // Last global epoch this worker observed at a transaction boundary.
    std::atomic<std::uint64_t> seen{0};
  };

  // Written only by the driver; read by every observer.
  std::atomic<std::uint64_t> global_{1};
  std::vector<Slot> slots_;
};

// The sweep driver: walks the store's record map in chunks, unlinks reclaimable
// records, and frees them after a two-epoch grace period. One limbo generation at a
// time: a new sweep step starts only after the previous step's victims are freed,
// which keeps the unfreed backlog bounded by one chunk's yield.
class EpochReclaimer {
 public:
  EpochReclaimer(Store& store, std::size_t num_workers, const ReclaimOptions& opts);
  ~EpochReclaimer();

  // Called on every worker loop pass, between transactions. Non-driver workers only publish their
  // epoch slot; worker 0 additionally drives advancement, sweeping, and freeing.
  // `gen_tid` mints a TID strictly above its argument (Worker::GenerateTid) — used to
  // bump a killed record's TID so stale readers fail validation. Returns the epoch the
  // worker observed (0 when disabled): a worker must invalidate any cross-transaction
  // record-pointer cache (Txn::InvalidateRouteCache) whenever this value changes,
  // because a free only happens two observed-epoch changes after the unlink.
  std::uint64_t Tick(std::size_t worker_id,
                     FunctionRef<std::uint64_t(std::uint64_t)> gen_tid);

  // After workers are joined (no concurrent readers remain): free the limbo list
  // unconditionally and run one full-map sweep, freeing its yield immediately.
  void DrainAtShutdown(FunctionRef<std::uint64_t(std::uint64_t)> gen_tid);

  // One full-map sweep over a quiescent store — recovery replay just finished, or a
  // replica holding its publish lock exclusively. The caller guarantees no concurrent
  // reader holds record pointers, so victims are freed immediately: no grace period,
  // no epoch machinery, no worker TID clock. Returns the number of records freed.
  static std::size_t SweepQuiescent(Store& store);

  // Cumulative counters (relaxed gauges for stats/report code).
  std::uint64_t swept() const { return swept_.load(std::memory_order_relaxed); }
  std::uint64_t reclaimed() const { return reclaimed_.load(std::memory_order_relaxed); }

  const EpochManager& epochs() const { return epochs_; }

 private:
  // The sweep predicate (runs under the bucket's stripe lock): returns true — after
  // marking the record dead and bumping its TID — iff `r` is provably reclaimable.
  static bool TryKill(Record& r, FunctionRef<std::uint64_t(std::uint64_t)> gen_tid);

  Store& store_;
  const ReclaimOptions opts_;
  EpochManager epochs_;

  // ---- Driver-only state (worker 0's thread; no synchronization needed) ----
  std::uint32_t ticks_until_drive_ = 0;
  std::size_t cursor_ = 0;  // next bucket to sweep (wraps)
  std::vector<Record*> limbo_;
  // Flat slot arrays retired by growth, freed with the same generation's records: a
  // lock-free FlatTable::Find may hold the old array pointer until its transaction ends.
  std::vector<FlatSlotArray*> limbo_arrays_;
  std::uint64_t limbo_epoch_ = 0;  // global epoch when limbo_ was unlinked
  // Idle gate: a full map pass that unlinks nothing parks the sweeper until the
  // store's change hint (records created + index keys removed — every absent record
  // appears through one of the two) moves past what the idle pass started from. A
  // workload that never deletes and never touches absent keys pays for exactly one
  // pass, then only the per-tick hint load.
  bool idle_ = false;
  std::uint64_t idle_hint_ = 0;   // hint value the idling pass started from
  std::uint64_t pass_hint_ = 0;   // hint sampled when the current pass began
  bool pass_found_ = false;       // did the current pass unlink anything?

  // Cumulative telemetry: driver-written, racily read by stats snapshots.
  std::atomic<std::uint64_t> swept_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_STORE_EPOCH_H_
