// Per-table ordered key index with version-stamped partitions (Silo-style phantom
// protection for range scans).
//
// The store's RecordMap is an unordered hash table; this index layers an ordered view on
// top of it. Records enter the index when they first become logically present (the
// absent -> present transition happens under the record's OCC lock bit, so the engine
// applying the write inserts race-free), and leave it when a committed delete makes them
// absent again (the present -> absent transition holds the same lock, and Remove bumps
// the partition version exactly like a structural insert does — a scan that traversed
// the range revalidates and aborts, so deletions can no more slip under a scan than
// phantom inserts can).
//
// Each table's key space ([lo] within the Key.hi namespace) is striped into contiguous
// ranges. A partition is the phantom-protection unit: it carries a version counter bumped
// by every insert into its range. A transactional scan records the (partition, version)
// pairs it traversed; OCC commit validation rechecks them alongside the read set, so an
// insert into a scanned range between scan and commit aborts the scanner (no phantoms).
// 2PL instead takes the partition's reader/writer lock for the transaction's duration.
//
// Partition boundaries are per table: a PartitionConfig fixes the stripe count and the
// boundary shift (boundaries at multiples of 2^shift; the last stripe is open-ended) at
// table registration via ConfigureTable. The default (shift 40, 64 stripes) matches the
// repo's composite key layouts: RUBiS shards inserted row ids by worker at bit 40
// (schema.h kShardStride) and puts scan dimensions (category, bucket) in bits >= 40.
// Tables whose keys are dense (all below 2^40) should register a narrower config — or
// set `adaptive`, which lets the coordinator (any engine) narrow the boundaries at a
// quiesce barrier when the per-partition insert/conflict telemetry shows one stripe
// absorbing the load (NarrowTable re-bins every key under the table's full partition
// lock set).
//
// Telemetry: every partition counts structural inserts and scan conflicts (OCC
// scan-validation failures, 2PL partition-lock timeouts). The counters are cumulative
// and relaxed; the coordinator reads deltas at quiesce barriers to drive adaptive
// narrowing, and ConflictSampler::RecordScanConflict aggregates the sampled per-worker
// view for the contention classifier.
#ifndef DOPPEL_SRC_STORE_ORDERED_INDEX_H_
#define DOPPEL_SRC_STORE_ORDERED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/spinlock.h"
#include "src/store/key.h"

namespace doppel {

class Record;

// Per-table partition layout, fixed at registration (ConfigureTable) except that
// `adaptive` additionally allows the coordinator to lower `shift` later (NarrowTable).
struct PartitionConfig {
  // Boundaries at multiples of 2^shift; keys mapping past the last stripe clamp into it.
  unsigned shift = 40;
  // Stripe count (also the table's stripe capacity: narrowing changes only the shift).
  std::uint32_t partitions = 64;
  // Allow the coordinator to narrow boundaries at quiesce barriers.
  bool adaptive = false;
};

// One version-stamped stripe of a table's ordered key space.
struct IndexPartition {
  // Guards `entries`; held only for O(log n) map operations and bounded range copies.
  // Never acquire a record lock while holding `mu` (writers insert while holding their
  // record's OCC lock bit, so the reverse order would deadlock).
  mutable Spinlock mu;
  // Bumped under `mu` by every structural insert; read without `mu` by OCC validation.
  std::atomic<std::uint64_t> version{0};
  // Ordered by key lo. Values are stable Record pointers: an indexed record is
  // logically present, and the epoch sweeper only reclaims absent (hence unindexed)
  // records, so an entry can never dangle.
  std::map<std::uint64_t, Record*> entries GUARDED_BY(mu);
  // Transaction-duration phantom lock for the 2PL engine (unused by OCC/Doppel).
  RWSpinlock rw;
  // ---- Telemetry (cumulative, relaxed) ----
  // Structural inserts that landed in this stripe.
  std::atomic<std::uint64_t> inserts{0};
  // Structural removals (committed deletes) from this stripe.
  std::atomic<std::uint64_t> removes{0};
  // Scan conflicts charged to this stripe: OCC scan-set validation failures, OCC
  // read-set failures on records reached through a scan, 2PL partition-lock timeouts.
  std::atomic<std::uint64_t> scan_conflicts{0};
};

class OrderedIndex {
 public:
  static constexpr std::size_t kDefaultPartitions = 64;
  static constexpr unsigned kDefaultShift = 40;
  // Open-addressed table directory capacity; far above any workload's table count.
  static constexpr std::size_t kMaxTables = 256;
  // Upper bound on a table's configured stripe count.
  static constexpr std::uint32_t kMaxPartitionsPerTable = 1024;

  struct TableIndex {
    TableIndex(std::uint64_t table_id, const PartitionConfig& cfg)
        : table(table_id),
          adaptive(cfg.adaptive),
          partitions(cfg.partitions == 0 ? 1 : cfg.partitions),
          shift(cfg.shift),
          tune_insert_marks(partitions.size(), 0) {}

    std::uint64_t table;
    const bool adaptive;
    // Fixed size after construction (IndexPartition addresses must stay stable: scan
    // sets and 2PL lock sets hold raw pointers into this vector).
    std::vector<IndexPartition> partitions;
    // Lowered (never raised) by NarrowTable; read per access by scans and inserts.
    std::atomic<unsigned> shift;
    // Highest key lo ever inserted: the narrowing heuristic spreads [0, max_key] over
    // the table's stripes.
    std::atomic<std::uint64_t> max_key{0};
    std::atomic<std::uint64_t> rebins{0};
    // Coordinator-only tuning state: per-partition insert counts and the table conflict
    // count as of the last adaptive-tuning evaluation (deltas, not cumulative).
    std::vector<std::uint64_t> tune_insert_marks;
    std::uint64_t tune_conflict_mark = 0;

    std::size_t PartitionOf(std::uint64_t lo) const {
      return PartitionWithShift(lo, shift.load(std::memory_order_acquire));
    }
    std::size_t PartitionWithShift(std::uint64_t lo, unsigned s) const {
      const std::uint64_t p = s >= 64 ? 0 : lo >> s;
      const std::size_t n = partitions.size();
      return p < n ? static_cast<std::size_t>(p) : n - 1;
    }
  };

  // Aggregate per-table snapshot (observability, tests, tuning decisions).
  struct TableStats {
    unsigned shift = 0;
    std::size_t partitions = 0;
    bool adaptive = false;
    std::uint64_t entries = 0;
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    std::uint64_t scan_conflicts = 0;
    std::uint64_t rebins = 0;
    std::uint64_t max_key = 0;
  };

  OrderedIndex();
  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;
  ~OrderedIndex();

  // Registers `table` with an explicit partition layout. Must run before the table's
  // first insert or scan (typically right before pre-population); re-configuring an
  // existing table is a checked error.
  TableIndex& ConfigureTable(std::uint64_t table, const PartitionConfig& cfg);

  // Checkpoint-recovery variant of ConfigureTable: restores `cfg` as the table's
  // layout, tolerating a table that already exists (the application may have
  // ConfigureTable'd and pre-populated before recovery ran). An existing table keeps
  // its stripe capacity — partition addresses are held raw by scan and lock sets and
  // cannot move — but its boundary shift is narrowed to the checkpointed value when the
  // checkpoint captured a tighter (adaptively tuned) layout, so recovered tables resume
  // from their tuned boundaries instead of re-learning them.
  TableIndex& RestoreTable(std::uint64_t table, const PartitionConfig& cfg);

  // Inserts `key` -> `r`. Idempotent (re-inserting an indexed key is a no-op and does
  // not bump the partition version). The caller must hold whatever lock made the
  // record's absent -> present transition exclusive (the OCC lock bit, or the record's
  // 2PL write lock); this keeps insert-before-record-unlock ordering, which is what
  // makes a committed insert visible to any scan that validates after the writer's
  // commit point.
  void Insert(const Key& key, Record* r);

  // Removes `key` from its partition (a committed delete). Idempotent (removing an
  // unindexed key is a no-op). Same locking contract as Insert: the caller holds the
  // lock that made the record's present -> absent transition exclusive. A successful
  // removal bumps the partition version — the delete-side twin of the phantom-insert
  // guard, so a scan that saw the key aborts at validation.
  void Remove(const Key& key);

  // The table's index, created on demand with the default PartitionConfig. Scans call
  // this (not FindTable) so that even a never-written table gets version-stamped
  // partitions — otherwise an insert racing the first scan of an empty table could slip
  // in unvalidated.
  TableIndex& GetOrCreateTable(std::uint64_t table);

  // Lock-free lookup; nullptr if no record of this table was ever indexed or scanned.
  TableIndex* FindTable(std::uint64_t table) const;

  IndexPartition& PartitionFor(const Key& key) {
    TableIndex& t = GetOrCreateTable(key.hi);
    return t.partitions[t.PartitionOf(key.lo)];
  }

  // Re-bins every key of `t` under boundaries at multiples of 2^new_shift, holding all
  // of the table's partition spinlocks, and bumps every partition version (any scan
  // validating across the re-bin aborts). Returns false (and does nothing) unless
  // new_shift < the current shift. PRECONDITION: no scan of this table may be in flight
  // — the coordinator guarantees this by narrowing only at quiesce barriers with every
  // worker parked; concurrent *inserts* are safe (Insert re-checks the shift
  // under the partition lock and re-bins itself).
  // Unanalyzable lock set: acquires every partition spinlock of `t` in a loop, which
  // the function-local thread-safety analysis cannot express.
  bool NarrowTable(TableIndex& t, unsigned new_shift) NO_THREAD_SAFETY_ANALYSIS;

  // Calls fn(TableIndex&) for every registered table. Iteration is lock-free and safe
  // against concurrent table creation (newly created tables may or may not be seen).
  template <typename Fn>
  void ForEachTable(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.tag.load(std::memory_order_acquire) != 0) {
        fn(*s.index.load(std::memory_order_relaxed));
      }
    }
  }

  template <typename Fn>
  void ForEachTable(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.tag.load(std::memory_order_acquire) != 0) {
        // tag is published after index (release), so the acquire above orders this.
        fn(const_cast<const TableIndex&>(*s.index.load(std::memory_order_relaxed)));
      }
    }
  }

  TableStats StatsFor(std::uint64_t table) const;

  // Copies the entries of `part` lying in [lo, hi] (inclusive) in ascending key order,
  // up to `max_items` (0 = unbounded), and returns the partition version that the copy
  // is consistent with (read under the same critical section).
  static std::uint64_t SnapshotRange(IndexPartition& part, std::uint64_t lo,
                                     std::uint64_t hi, std::size_t max_items,
                                     std::vector<std::pair<std::uint64_t, Record*>>* out);

  std::size_t size(std::uint64_t table) const;  // entries across partitions (tests)

  // Monotonic count of committed deletes across every table (per-partition `removes`
  // telemetry summed would cost a directory walk; this single counter feeds the epoch
  // sweeper's has-anything-changed hint instead).
  std::uint64_t removes() const { return total_removes_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    // 0 = empty; otherwise table id + 1 (so table id 0 is representable).
    std::atomic<std::uint64_t> tag{0};
    std::atomic<TableIndex*> index{nullptr};
  };

  // Creates the table with `cfg`; the caller must have verified it does not exist yet.
  TableIndex& CreateTable(std::uint64_t table, const PartitionConfig& cfg);

  std::vector<Slot> slots_;
  Spinlock create_mu_;  // serializes table creation (rare: once per table)
  // Cumulative gauge (see removes()); racy stats reads by contract — relaxed.
  std::atomic<std::uint64_t> total_removes_{0};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_STORE_ORDERED_INDEX_H_
