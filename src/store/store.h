// The shared global store: a concurrent record map plus non-transactional loading helpers
// used to pre-populate benchmarks ("we pre-allocate all the records", §8.1).
//
// Since PR 9 the store also owns the per-table access-path choice: tables registered
// with TableLayout::kFlat get a direct-indexed FlatTable in front of the RecordMap, and
// every internal consumer — engines, WAL replay, checkpoint load, replica apply, the
// loaders — resolves keys through the Route() front door so the layout is invisible
// above this layer.
#ifndef DOPPEL_SRC_STORE_STORE_H_
#define DOPPEL_SRC_STORE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/spinlock.h"
#include "src/store/flat_table.h"
#include "src/store/ordered_index.h"
#include "src/store/record_map.h"

namespace doppel {

// Per-table record access path (TableOptions::layout).
enum class TableLayout {
  kHash,  // RecordMap only (default; any key shape)
  kFlat,  // direct-indexed FlatTable over a dense key range, RecordMap fallback
};

// Extended per-table registration (ConfigureTable). The original PartitionConfig
// overload stays for index-only registration.
struct TableOptions {
  TableLayout layout = TableLayout::kHash;
  // kFlat only: keys lo in [flat_base, flat_base + flat_span) route through the flat
  // array; other keys of the table fall back to the hash map. flat_span is required.
  std::uint64_t flat_base = 0;
  std::uint64_t flat_span = 0;
  // kFlat only: first slot-array size (0 = small default; growth covers the rest).
  // Pre-sizing to flat_span avoids all growth on the hot path.
  std::size_t flat_initial_slots = 0;
  // Expected record count this table adds to the store. Triggers a quiescent rehash of
  // the RecordMap so a hot table no longer depends on the single construction-time
  // capacity hint (the >4 load-factor warning's remedy). Must run before Start.
  std::size_t capacity_hint = 0;
  // Optional ordered-index layout (same meaning as the PartitionConfig overload).
  std::optional<PartitionConfig> index;
};

class Store {
 public:
  explicit Store(std::size_t capacity_hint)
      : map_(capacity_hint), capacity_request_(capacity_hint) {}

  RecordMap& map() { return map_; }
  const RecordMap& map() const { return map_; }

  // Ordered per-table key index over the map; records appear when first logically
  // present. Engines consult it for Txn::Scan and maintain it at commit time.
  OrderedIndex& index() { return index_; }
  const OrderedIndex& index() const { return index_; }

  // Registers a table's ordered-index partition layout (shift, stripe count, adaptive
  // narrowing). Must run before the table's first insert or scan — typically right
  // before pre-population. Tables never configured get the default layout.
  void ConfigureTable(std::uint64_t table, const PartitionConfig& cfg) {
    index_.ConfigureTable(table, cfg);
  }

  // Extended registration: store layout (kFlat + key range), per-table RecordMap
  // capacity hint, and optionally the ordered-index layout in one call. Same contract
  // as above: must run before the table's first insert or scan (pre-Start, quiescent);
  // re-registering a flat table is a checked error.
  void ConfigureTable(std::uint64_t table, const TableOptions& opts);

  // ---- Key -> record routing (the front door) ----
  // Resolves `key` to its record, creating a logically-absent record of `type` on
  // first access. Flat-registered tables are tried through their direct-indexed slot
  // first; a flat miss falls back to the RecordMap (which stays the authoritative
  // owner of every record) and back-fills the slot.
  Record* Route(const Key& key, RecordType type, std::size_t topk_k) {
    if (FlatTable* f = FlatFor(key.hi)) {
      if (Record* r = f->Find(key.lo)) {
        return r;
      }
      Record* r = map_.GetOrCreate(key, type, topk_k);
      f->TryInstall(key.lo, r);
      return r;
    }
    return map_.GetOrCreate(key, type, topk_k);
  }

  Record* Find(const Key& key) const { return map_.Find(key); }
  std::size_t size() const { return map_.size(); }

  // Typed upsert for trusted internal paths (loaders, checkpoint restore, manual split
  // labels) whose types are self-consistent by construction.
  Record* GetOrCreate(const Key& key, RecordType type,
                      std::size_t topk_k = TopKSet::kDefaultK) {
    Record* r = Route(key, type, topk_k);
    DOPPEL_CHECK(r->type() == type);
    return r;
  }

  // Untrusted-path variant (engines routing client ops): returns the existing record
  // even on a type mismatch so the caller can turn it into a per-transaction abort
  // instead of killing the process.
  Record* GetOrCreateUnchecked(const Key& key, RecordType type, std::size_t topk_k) {
    return Route(key, type, topk_k == 0 ? TopKSet::kDefaultK : topk_k);
  }

  // ---- Flat-slot maintenance (epoch sweeper / reclaimer / quiescent sweeps) ----
  // All are no-ops for keys outside any registered flat range.

  // Sweeper, at the kill point (caller holds the record's bucket stripe lock): poison
  // the key's flat slot so it cannot be republished until the grace period ends.
  void FlatTombstone(const Key& key) {
    if (FlatTable* f = FlatFor(key.hi)) {
      f->WriteTombstone(key.lo);
    }
  }
  // Reclaimer, at the victim's free point (two epoch advances later): re-open the slot.
  void FlatClearTombstone(const Key& key) {
    if (FlatTable* f = FlatFor(key.hi)) {
      f->ClearTombstone(key.lo);
    }
  }
  // Quiescent contexts only (no concurrent readers): clear the key's slot outright.
  void FlatClearSlot(const Key& key) {
    if (FlatTable* f = FlatFor(key.hi)) {
      f->Publish(key.lo, nullptr);
    }
  }
  // Moves slot arrays retired by flat growth to `out` (epoch reclaimer's array limbo).
  void DrainFlatRetired(std::vector<FlatSlotArray*>* out) {
    for (FlatDirSlot& s : flats_) {
      if (s.tag.load(std::memory_order_acquire) != 0) {
        // tag is published after the table pointer (release), ordering this load.
        s.table.load(std::memory_order_relaxed)->DrainRetired(out);
      }
    }
  }

  bool HasFlatTable(std::uint64_t table) const { return FlatFor(table) != nullptr; }
  // Slot-state probe for tests and stats; kMiss for non-flat tables.
  FlatTable::SlotState FlatProbe(const Key& key) const {
    const FlatTable* f = FlatFor(key.hi);
    return f == nullptr ? FlatTable::SlotState::kMiss : f->Probe(key.lo);
  }

  // ---- Physical record replacement + deferred frees (recovery / replica apply) ----
  // Replaces `key`'s logically-absent record with a fresh absent one of `type` (see
  // RecordMap::ReplaceWithType); the old record joins the store's retired list. The
  // key's flat slot (if any) is repointed at the fresh record — the caller's context
  // (recovery replay, replica apply under its publish lock) excludes concurrent
  // same-key access, which is what makes the overwrite safe.
  Record* ReplaceAbsent(const Key& key, RecordType type, std::size_t topk_k) {
    Record* fresh;
    {
      SpinlockGuard lock(retired_mu_);
      fresh = map_.ReplaceWithType(key, type, topk_k == 0 ? TopKSet::kDefaultK : topk_k,
                                   &retired_);
    }
    if (FlatTable* f = FlatFor(key.hi)) {
      f->Publish(key.lo, fresh);
    }
    return fresh;
  }
  // Frees everything retired so far. Caller guarantees no concurrent reader can still
  // hold a pointer to a retired record (end of recovery, replica under exclusive
  // publish lock, store teardown). Returns how many were freed.
  std::size_t FreeRetired() {
    std::vector<Record*> victims;
    {
      SpinlockGuard lock(retired_mu_);
      victims.swap(retired_);
    }
    for (Record* r : victims) {
      delete r;
    }
    return victims.size();
  }

  ~Store();

  // ---- Non-transactional loading (single writer or quiesced store) ----
  void LoadInt(const Key& key, std::int64_t v);
  void LoadBytes(const Key& key, std::string v);
  void LoadOrdered(const Key& key, OrderedTuple v);
  // Creates an empty top-K record with capacity k.
  void LoadTopK(const Key& key, std::size_t k);
  // Inserts one tuple into a top-K record (creating it with capacity k if needed).
  void LoadTopKItem(const Key& key, std::size_t k, OrderedTuple t);

  // Reads a committed snapshot (any time; used by tests and report code).
  Record::ValueSnapshot ReadSnapshot(const Key& key) const;

 private:
  static constexpr std::uint64_t kLoadTid = 2;  // above 0 so loaded != never-written
  // Flat-table directory capacity; dense tables are rare and registered explicitly.
  static constexpr std::size_t kMaxFlatTables = 8;

  struct FlatDirSlot {
    // 0 = empty; otherwise table id + 1 (so table id 0 is representable).
    std::atomic<std::uint64_t> tag{0};
    std::atomic<FlatTable*> table{nullptr};
  };

  // Lock-free directory lookup; nullptr if `table` has no flat registration.
  FlatTable* FlatFor(std::uint64_t table) const {
    // One relaxed load gates the common no-flat-tables case; the counter only moves
    // during quiescent registration, so any value it returns is safe to act on.
    if (flat_count_.load(std::memory_order_relaxed) == 0) {
      return nullptr;
    }
    for (const FlatDirSlot& s : flats_) {
      const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
      if (tag == 0) {
        return nullptr;
      }
      if (tag == table + 1) {
        // tag is published after the table pointer (release), ordering this load.
        return s.table.load(std::memory_order_relaxed);
      }
    }
    return nullptr;
  }

  RecordMap map_;
  OrderedIndex index_;
  // Cumulative RecordMap capacity request: construction hint + per-table hints.
  std::size_t capacity_request_;
  FlatDirSlot flats_[kMaxFlatTables];
  std::atomic<std::uint32_t> flat_count_{0};
  Spinlock flat_mu_;  // serializes registration (rare: once per flat table)
  // Unlinked-but-not-freed records (ReplaceAbsent): physically out of the map,
  // awaiting a moment with no concurrent readers.
  mutable Spinlock retired_mu_;
  std::vector<Record*> retired_ GUARDED_BY(retired_mu_);
};

}  // namespace doppel

#endif  // DOPPEL_SRC_STORE_STORE_H_
