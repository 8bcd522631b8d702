// Concurrent hash map: Key -> Record.
//
// The paper's store is "a set of key/value maps ... implemented as hash tables" with
// per-key locks. Lookups here are lock-free (chained buckets with atomic next pointers);
// inserts serialize on a striped lock. Records are never *relocated*, but since PR 8 they
// can be *removed*: SweepRange physically unlinks records the epoch sweeper
// (src/store/epoch.h) has proven reclaimable, leaving the unlinked record's own chain
// pointer intact so concurrent lock-free readers mid-traversal still reach the rest of
// the chain. Unlinked records stay allocated until their epoch-limbo grace period ends.
//
// The bucket array is sized at construction and can be rebuilt while quiesced
// (RehashQuiescent): workloads that know a table's cardinality pass a per-table
// capacity_hint through Store::ConfigureTable before population instead of relying on
// the single construction-time global hint. load_factor() stays exported as a run gauge
// (warned on at >4) for churn that outgrows the hints. Dense-keyed tables can skip this
// map on the hot path entirely via the kFlat layout (src/store/flat_table.h); the map
// remains the authoritative record owner either way.
#ifndef DOPPEL_SRC_STORE_RECORD_MAP_H_
#define DOPPEL_SRC_STORE_RECORD_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/spinlock.h"
#include "src/store/key.h"
#include "src/store/record.h"

namespace doppel {

class RecordMap {
 public:
  // `capacity_hint` ~ expected number of records; bucket count is the next power of two.
  explicit RecordMap(std::size_t capacity_hint);
  ~RecordMap();
  RecordMap(const RecordMap&) = delete;
  RecordMap& operator=(const RecordMap&) = delete;

  // Lock-free lookup; nullptr if the key was never inserted.
  Record* Find(const Key& key) const;

  // Find or insert. When inserting, the record is created with `type` (and `topk_k` for
  // top-K records) and is logically absent until first written. `created` (optional)
  // reports whether an insert happened. If the key exists with a different type, the
  // existing record is returned unchanged (callers decide: engines abort the
  // transaction, trusted loaders CHECK).
  Record* GetOrCreate(const Key& key, RecordType type, std::size_t topk_k = TopKSet::kDefaultK,
                      bool* created = nullptr);

  // Racy gauge (relaxed): exact only when no insert/sweep is in flight.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  // Monotonic insert count (never decremented by sweeps). Every created record starts
  // absent — i.e. is a reclamation candidate until first written — so this feeds the
  // epoch sweeper's has-anything-changed hint.
  std::uint64_t created() const { return created_.load(std::memory_order_relaxed); }
  std::size_t bucket_count() const { return buckets_.size(); }
  // Records per bucket; >4 means the construction-time capacity_hint was badly low for
  // this workload and every lookup pays a long chain walk.
  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(bucket_count());
  }

  // Visits every record present at call time (concurrent inserts may or may not be seen).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachInRange(0, buckets_.size(), fn);
  }

  // ForEach restricted to buckets [begin, end) (clamped to bucket_count()), in bucket
  // then chain order: visiting consecutive ranges one after another is exactly ForEach.
  template <typename Fn>
  void ForEachInRange(std::size_t begin, std::size_t end, Fn&& fn) const {
    end = std::min(end, buckets_.size());
    for (std::size_t i = begin; i < end; ++i) {
      for (Record* r = buckets_[i].head.load(std::memory_order_acquire); r != nullptr;
           r = r->hash_next.load(std::memory_order_acquire)) {
        fn(*r);
      }
    }
  }

  // ---- Physical removal (epoch sweeper / recovery) ----

  // Walks buckets [begin, end) (clamped to bucket_count()) under their insert stripes,
  // calling `should_reclaim` on every record; records it approves are unlinked from
  // their chain and appended to `retired`. The predicate runs with the bucket's stripe
  // lock held (it may take per-record try-locks; nothing in the system acquires a
  // stripe lock while holding a record lock, so the order is acyclic). The unlinked
  // record is NOT freed and its hash_next is left intact: concurrent lock-free readers
  // that already hold a pointer to it can still finish traversing; the caller frees it
  // only once no reader can hold such a pointer (epoch grace, or a quiesced store).
  // Returns the number of records unlinked.
  std::size_t SweepRange(std::size_t begin, std::size_t end,
                         FunctionRef<bool(Record&)> should_reclaim,
                         std::vector<Record*>* retired);

  // Replaces the record for `key` (which must exist, be logically absent, and be
  // unreachable by concurrent same-key writers — recovery replay and replica apply are
  // the only callers) with a fresh absent record of `type`. The old record is unlinked
  // and appended to `retired` under the same free-deferral contract as SweepRange.
  // Returns the fresh record. Used when a log replays a delete followed by a reinsert
  // under a different type: live execution created a new record after the reclaim; the
  // replayer mirrors that by replacing in place.
  Record* ReplaceWithType(const Key& key, RecordType type, std::size_t topk_k,
                          std::vector<Record*>* retired);

  // Rebuilds the bucket array for ~`capacity_hint` records, relinking every existing
  // record into its new chain. Caller guarantees quiescence (no concurrent access of
  // any kind) — Store::ConfigureTable's pre-population registration window. Never
  // shrinks below the current bucket count.
  void RehashQuiescent(std::size_t capacity_hint);

 private:
  struct Bucket {
    std::atomic<Record*> head{nullptr};
  };

  std::size_t BucketIndex(const Key& key) const { return key.Hash() & mask_; }

  std::vector<Bucket> buckets_;
  std::uint64_t mask_;
  static constexpr std::size_t kInsertStripes = 1024;
  std::unique_ptr<Spinlock[]> insert_locks_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> created_{0};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_STORE_RECORD_MAP_H_
