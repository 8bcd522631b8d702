// The transaction context and user-facing access API.
//
// Transaction bodies are written against this class with no knowledge of reconciled vs.
// split data, per-core slices, or phases (§6): the engine behind it routes each access.
// All writes are buffered (into the write set or, for split data, the split-write set) and
// applied at commit by the engine's protocol.
//
// Hot-path layout notes: PendingWrite is a 32-byte POD whose variable-size operands
// (payload bytes, ordered-op OrderKeys) live in the transaction's WriteArena, recycled by
// Reset — commit-time sorting, WAL encoding, and read-your-own-writes overlays never
// touch a std::string. Writes to the same record are chained through PendingWrite::next
// in issue order; once the write set outgrows a small threshold an open-addressing index
// over those chains makes own-write lookup O(1) instead of O(write set).
#ifndef DOPPEL_SRC_TXN_TXN_H_
#define DOPPEL_SRC_TXN_TXN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/function_ref.h"
#include "src/store/key.h"
#include "src/store/record.h"
#include "src/store/value.h"
#include "src/txn/op.h"
#include "src/txn/write_arena.h"

namespace doppel {

class Engine;
class Worker;
struct IndexPartition;

// A read-set entry: the TID the record had when this transaction read it (Fig. 2).
// Entries recorded by a range scan also carry the index partition the record was reached
// through, so a validation failure can be attributed to that scan window (per-partition
// conflict telemetry). The table is not stored: index entries are keyed by Key.hi, so it
// is recoverable as record->key().hi.
struct ReadEntry {
  Record* record;
  std::uint64_t tid;
  std::int32_t scan_part = -1;  // >= 0: reached via a scan of this partition index
};

// A buffered write. `n` carries int operands; ordered/byte operands live in the owning
// transaction's WriteArena at `arg_off` (see OrderOf/PayloadOf). `core` is the writing
// worker's id (the paper's core ID component). `next` chains this transaction's writes
// to the same record in issue order (read-your-own-writes overlays walk the chain).
struct PendingWrite {
  static constexpr std::uint32_t kNoNext = 0xffffffffu;

  Record* record = nullptr;
  std::int64_t n = 0;
  std::uint32_t arg_off = 0;      // arena offset of the operand block
  std::uint32_t payload_len = 0;  // payload byte length (OrderKey header excluded)
  std::uint32_t next = kNoNext;   // next write to the same record, or kNoNext
  std::uint16_t core = 0;
  OpCode op = OpCode::kGet;

  bool has_ordered_operand() const {
    return op == OpCode::kOPut || op == OpCode::kTopKInsert;
  }
  OrderKey OrderOf(const WriteArena& a) const {
    return has_ordered_operand() ? a.OrderAt(arg_off) : OrderKey{};
  }
  std::string_view PayloadOf(const WriteArena& a) const {
    if (op == OpCode::kPutBytes) {
      return a.View(arg_off, payload_len);
    }
    if (has_ordered_operand()) {
      return a.View(arg_off + WriteArena::kOrderBytes, payload_len);
    }
    return {};
  }
};
// The commit path sorts, dedups, and copies write sets millions of times per second;
// growing this struct is a measured throughput regression, not a style choice.
static_assert(sizeof(PendingWrite) <= 32, "PendingWrite must stay a small POD");
static_assert(std::is_trivially_copyable_v<PendingWrite>);

// Fills `w`'s arena-addressed operand fields for `op` from `order`/`payload`.
// Int-operand ops store nothing; byte ops store the payload; ordered ops store the
// OrderKey followed by the payload.
inline void StoreOperand(WriteArena& a, OpCode op, const OrderKey& order,
                         std::string_view payload, PendingWrite* w) {
  switch (op) {
    case OpCode::kOPut:
    case OpCode::kTopKInsert:
      w->arg_off = a.PutOrdered(order, payload);
      w->payload_len = static_cast<std::uint32_t>(payload.size());
      break;
    case OpCode::kPutBytes:
      w->arg_off = a.Put(payload.data(), payload.size());
      w->payload_len = static_cast<std::uint32_t>(payload.size());
      break;
    default:
      w->arg_off = 0;
      w->payload_len = 0;
      break;
  }
}

// How a transaction attempt ends. Engine::Commit returns kCommitted or kConflict; an
// attempt that ends early carries its reason in the Txn's doom slot (see Txn::Doom), and
// the runner's degraded-mode gate adds kDurabilityLost.
enum class TxnStatus {
  kCommitted,
  kConflict,        // lost an OCC validation / lock; retry with backoff
  kStashed,         // blocked on split data; restart in the next joined phase
  kUserAbort,       // transaction body aborted; do not retry
  kTypeMismatch,    // an op's record type conflicts with the key's; do not retry
  kDurabilityLost,  // degraded read-only mode refused the writes; do not retry
};

// A typed snapshot produced by an engine read.
struct ReadResult {
  bool present = false;
  std::int64_t i = 0;
  ComplexValue complex;
};

// A 2PL lock-set entry (unused by the other engines).
struct LockEntry {
  Record* record;
  bool exclusive;
};

// A scan-set entry: one ordered-index partition this transaction's scan traversed, and
// the version it saw. OCC commit validation rechecks these alongside the read set
// (Silo-style phantom protection: an insert into the range bumps the version).
struct IndexScanEntry {
  IndexPartition* partition;
  std::uint64_t version;
  std::uint64_t table = 0;
  std::uint32_t part_index = 0;
};

// One scan conflict, attributed to an index partition: either a phantom (the partition's
// version moved under a scan — a concurrent insert; no record to blame) or a validation
// failure on a record that was reached through a scan (`key` names it, `op` is the
// record's last committed write op — the operation the winners are hot on). Commit
// protocols fill these; DoppelEngine::OnConflict feeds them to the per-worker sampler.
struct ScanSetConflict {
  std::uint64_t table = 0;
  std::uint32_t partition = 0;
  bool has_record = false;
  Key key{};
  OpCode op = OpCode::kGet;
};

// A 2PL index-partition lock (shared by scanners, exclusive by inserters).
struct IndexLockEntry {
  IndexPartition* partition;
  bool exclusive;
};

// Scan callback: invoked per logically-present record in ascending key order with the
// record's snapshot (ints in `i`, other types in `complex`). Return false to stop early.
// A FunctionRef, not std::function: scans run per transaction on the hot path and the
// callback must never cost an allocation; it is only ever passed down the stack.
using ScanFn = FunctionRef<bool(const Key& key, const ReadResult& value)>;

class Txn {
 public:
  Txn() = default;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // ---- User API ----
  // Reads return std::nullopt for logically-absent records. Every accessor observes the
  // transaction's own buffered writes.
  std::optional<std::int64_t> GetInt(const Key& key);
  std::optional<std::string> GetBytes(const Key& key);
  std::optional<OrderedTuple> GetOrdered(const Key& key);
  std::optional<TopKSet> GetTopK(const Key& key, std::size_t k = TopKSet::kDefaultK);

  void PutInt(const Key& key, std::int64_t v);
  void PutBytes(const Key& key, std::string_view v);

  // Deletes the key (any record type): a committed delete makes the key absent to
  // subsequent reads and scans and removes it from the ordered index; the physical
  // record is reclaimed later by the epoch sweeper. Deleting an absent key is a
  // serializable no-op. This transaction's own reads/scans observe the delete.
  void Delete(const Key& key);

  // Splittable operations (§4). They return nothing by design.
  void Add(const Key& key, std::int64_t n);
  void Max(const Key& key, std::int64_t n);
  void Min(const Key& key, std::int64_t n);
  void Mult(const Key& key, std::int64_t n);
  void OPut(const Key& key, OrderKey order, std::string_view payload);
  void TopKInsert(const Key& key, OrderKey order, std::string_view payload,
                  std::size_t k = TopKSet::kDefaultK);

  // Serializable range scan over the ordered index of `table` (a Key.hi namespace):
  // visits every logically-present record with key lo in [lo, hi] (inclusive), ascending,
  // calling `fn` for up to `limit` records (0 = unlimited). Returns the number visited.
  // The scan observes all of this transaction's own buffered writes: updates to
  // already-present records are overlaid onto their snapshots, and the transaction's own
  // not-yet-committed inserts (writes to records absent from the index) are merged into
  // the result in key order.
  // Phantom protection is per index partition: under OCC a concurrent committed insert
  // into a traversed partition aborts this transaction at commit; under 2PL partitions
  // are read-locked for the transaction's duration; under Doppel a scan whose window
  // contains a split record during a split phase stashes the transaction (§7: split data
  // is unreadable in a split phase). The scan stops as soon as the transaction is doomed
  // (see Doom), including by a callback that calls UserAbort.
  std::size_t Scan(std::uint64_t table, std::uint64_t lo, std::uint64_t hi,
                   std::size_t limit, ScanFn fn);

  // Aborts the transaction; it will not be retried. Dooms the attempt and returns, so the
  // body should return too: later reads return std::nullopt, later writes are dropped,
  // and a scan stops after the callback that called UserAbort.
  void UserAbort();

  // Identity of the executing worker (also the OPut/TopKInsert core-ID component).
  int worker_id() const;
  // Worker-local RNG, usable for in-transaction payload generation.
  class Rng& rng();

  // ---- Engine API ----
  void Reset(Engine* engine, Worker* worker) {
    engine_ = engine;
    worker_ = worker;
    read_set_.clear();
    write_set_.clear();
    split_writes_.clear();
    arena_.Clear();
    windex_built_ = false;
    locks_.clear();
    scan_set_.clear();
    index_locks_.clear();
    conflict_record = nullptr;
    conflict_op = OpCode::kGet;
    conflicts.clear();
    scan_conflict = false;
    scan_set_conflicts.clear();
    doom_ = TxnStatus::kCommitted;
    doom_record_ = nullptr;
    doom_op_ = OpCode::kGet;
  }

  std::vector<ReadEntry>& read_set() { return read_set_; }
  std::vector<PendingWrite>& write_set() { return write_set_; }
  std::vector<PendingWrite>& split_writes() { return split_writes_; }
  WriteArena& arena() { return arena_; }
  const WriteArena& arena() const { return arena_; }
  std::vector<LockEntry>& locks() { return locks_; }
  std::vector<IndexScanEntry>& scan_set() { return scan_set_; }
  std::vector<IndexLockEntry>& index_locks() { return index_locks_; }

  // Appends `w` to the write set, maintaining the same-record issue-order chain and (once
  // built) the own-write index. Engines must buffer through this, never by mutating
  // write_set() directly, or read-your-own-writes misses the new entry.
  void BufferWrite(PendingWrite&& w);

  // First buffered write to `r` (chain head, issue order) or nullptr. O(1) once the
  // write index is built; linear below the threshold, where linear is faster anyway.
  const PendingWrite* FindOwnWrite(const Record* r) const;

  // Applies this transaction's buffered writes for `r` on top of a fresh snapshot
  // (engines use it so scans observe the transaction's own writes).
  void OverlayPending(Record* r, ReadResult* res) const;

  // Reusable commit-time scratch: the record-address sort order of the write set lives
  // here as indices, so commit never copies or reorders the 32-byte elements themselves
  // (and single-write commits never touch this at all).
  std::vector<std::uint32_t>& commit_order() { return commit_order_; }

  // Commit order for the write set: slot indices sorted by record address, equal
  // records tie-broken on slot so same-record writes keep issue order (stable). Write
  // sets of size <= 1 skip the sort and the scratch vector entirely — `single` is the
  // caller-provided storage the returned pointer aliases in that case. Shared by the
  // OCC and 2PL commit protocols; valid until the next BufferWrite/Reset.
  const std::uint32_t* CommitOrder(std::uint32_t* single);

  // Reusable scan scratch (engine range snapshots / RYOW merge). Callers take the
  // buffer with std::move and return it when done, so a nested scan degrades to a fresh
  // allocation instead of corrupting the outer scan's state.
  std::vector<std::pair<std::uint64_t, Record*>>& scan_batch() { return scan_batch_; }
  std::vector<std::pair<std::uint64_t, Record*>>& scan_own() { return scan_own_; }

  // RAII move-out/move-back lease over a scan scratch buffer (see scan_batch()).
  class ScanScratchLease {
   public:
    explicit ScanScratchLease(std::vector<std::pair<std::uint64_t, Record*>>& home)
        : home_(&home), buf_(std::move(home)) {}
    ScanScratchLease(const ScanScratchLease&) = delete;
    ScanScratchLease& operator=(const ScanScratchLease&) = delete;
    ~ScanScratchLease() { *home_ = std::move(buf_); }
    std::vector<std::pair<std::uint64_t, Record*>>& get() { return buf_; }

   private:
    std::vector<std::pair<std::uint64_t, Record*>>* home_;
    std::vector<std::pair<std::uint64_t, Record*>> buf_;
  };

  Worker& worker() { return *worker_; }
  Engine& engine() { return *engine_; }

  // ---- Cross-transaction route cache ----
  // Key -> Record* memo that deliberately survives Reset: an aborted transaction's
  // retry — the workload Doppel exists for — touches the same records and should not
  // pay the store's hash walk again (ROADMAP item 1 / PR 9). Safety has two layers:
  //  * Liveness: a hit is re-validated by the engine's post-snapshot IsDead check (the
  //    same check every routed pointer gets), so a record the sweeper killed is
  //    detected and re-routed.
  //  * Reclamation: a cached pointer must never outlive the record's free. Frees happen
  //    only after every worker observes two epoch advances past the unlink; the worker
  //    bumps `route_cache_gen_` (InvalidateRouteCache, called by the run loop) whenever
  //    the epoch it *observes* changes, so any entry cached before the unlink's epoch
  //    is stamped with an older generation — and ignored — before the free can occur.
  // Direct-mapped: one probe, no tombstone churn; collisions just evict.
  Record* CachedRoute(const Key& key) const {
    const RouteCacheEntry& e = route_cache_[RouteSlot(key)];
    if (e.gen != route_cache_gen_ || e.record == nullptr || !(e.key == key)) {
      return nullptr;
    }
    return e.record;
  }
  void CacheRoute(const Key& key, Record* r) {
    RouteCacheEntry& e = route_cache_[RouteSlot(key)];
    e.key = key;
    e.record = r;
    e.gen = route_cache_gen_;
  }
  // Generation bump: every existing entry becomes stale in O(1). Run loop calls this
  // when the worker's observed epoch moves (see EpochReclaimer::Tick).
  void InvalidateRouteCache() { ++route_cache_gen_; }

  // Set by commit protocols when the transaction loses a conflict; fed to the classifier.
  // `conflicts` lists every record whose validation failed (a transaction touching
  // several co-hot records — e.g. RUBiS's maxBid/numBids/bidsPerItem — must charge all of
  // them, or the ones behind the first failure are never detected as contended).
  Record* conflict_record = nullptr;
  OpCode conflict_op = OpCode::kGet;
  std::vector<std::pair<Record*, OpCode>> conflicts;
  // Set when scan-set (index partition) validation fails; there is no single record to
  // attribute, so it is reported separately from conflict_record.
  bool scan_conflict = false;
  // Per-partition attribution of scan-related conflicts (phantom inserts and failed
  // validations of scanned records); bounded like `conflicts`.
  std::vector<ScanSetConflict> scan_set_conflicts;

  // ---- The doom slot: the one way an attempt ends early (§4, §5.2) ----
  // An access that cannot proceed dooms the attempt instead of unwinding it: a stash
  // (split data in a split phase), a conflict (2PL lock timeout, OCC read of a reclaimed
  // record), a type mismatch, or UserAbort. The first doom wins. Every accessor checks
  // doomed() before it routes, so later reads return nullopt, writes are dropped and
  // scans stop; the runner then acts on doom_reason(). Nothing is thrown: the exception
  // unwinder serializes threads, and stashes run at tens of thousands per second. A
  // conflict doom also fills conflict_record/conflict_op for the classifier.
  void Doom(TxnStatus reason, Record* r = nullptr, OpCode op = OpCode::kGet) {
    if (doomed()) {
      return;
    }
    doom_ = reason;
    doom_record_ = r;
    doom_op_ = op;
    if (reason == TxnStatus::kConflict) {
      conflict_record = r;
      conflict_op = op;
    }
  }
  bool doomed() const { return doom_ != TxnStatus::kCommitted; }
  // kCommitted while the attempt is not doomed.
  TxnStatus doom_reason() const { return doom_; }
  Record* doom_record() const { return doom_record_; }
  OpCode doom_op() const { return doom_op_; }
  // True only for a stash doom.
  bool stash_doomed() const { return doom_ == TxnStatus::kStashed; }

 private:
  void IssueWrite(const Key& key, OpCode op, std::int64_t n, const OrderKey& order,
                  std::string_view payload, std::size_t topk_k);
  // Routes and reads `key` into `res` with own writes overlaid; false when the key is
  // absent or the attempt is (or becomes) doomed.
  bool ReadKey(const Key& key, RecordType type, std::size_t topk_k, ReadResult* res);

  // Own-write index machinery (see BufferWrite). The open-addressing table maps
  // Record* -> chain head/tail indices; it is built lazily once the write set passes
  // kWriteIndexThreshold and abandoned by Reset (flag flip, no clearing cost).
  struct WriteSlot {
    Record* record = nullptr;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };
  static constexpr std::size_t kWriteIndexThreshold = 8;
  // Route cache geometry: 64 direct-mapped slots covers the handful of records a
  // transaction (and its retries) touches; 3 KiB per worker, reset-free invalidation.
  static constexpr std::size_t kRouteCacheSlots = 64;
  struct RouteCacheEntry {
    Key key{};
    Record* record = nullptr;
    std::uint64_t gen = 0;
  };
  std::size_t RouteSlot(const Key& key) const {
    return key.Hash() & (kRouteCacheSlots - 1);
  }
  void BuildWriteIndex();
  WriteSlot* WindexSlot(const Record* r);
  std::uint32_t OwnWriteHead(const Record* r) const;

  Engine* engine_ = nullptr;
  Worker* worker_ = nullptr;
  std::vector<ReadEntry> read_set_;
  std::vector<PendingWrite> write_set_;
  std::vector<PendingWrite> split_writes_;
  WriteArena arena_;
  std::vector<LockEntry> locks_;
  std::vector<IndexScanEntry> scan_set_;
  std::vector<IndexLockEntry> index_locks_;
  std::vector<std::uint32_t> commit_order_;
  std::vector<std::pair<std::uint64_t, Record*>> scan_batch_;
  std::vector<std::pair<std::uint64_t, Record*>> scan_own_;
  std::vector<WriteSlot> windex_;
  std::size_t windex_mask_ = 0;
  bool windex_built_ = false;
  // Survives Reset by design (see CachedRoute); generation bump is the only eviction.
  RouteCacheEntry route_cache_[kRouteCacheSlots];
  std::uint64_t route_cache_gen_ = 1;
  TxnStatus doom_ = TxnStatus::kCommitted;
  Record* doom_record_ = nullptr;
  OpCode doom_op_ = OpCode::kGet;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_TXN_H_
