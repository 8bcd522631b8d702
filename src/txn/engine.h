// The concurrency-control engine interface.
//
// A Txn routes every data access through its engine; the worker loop calls Commit/Abort
// to finish a transaction. Implementations: OccEngine (Silo-style OCC, §5.1),
// TwoPLEngine, AtomicEngine (baselines, §8.1), and DoppelEngine (phase reconciliation,
// §5).
#ifndef DOPPEL_SRC_TXN_ENGINE_H_
#define DOPPEL_SRC_TXN_ENGINE_H_

#include <cstddef>

#include "src/common/spinlock.h"
#include "src/store/key.h"
#include "src/store/record.h"
#include "src/store/store.h"
#include "src/txn/signals.h"
#include "src/txn/txn.h"
#include "src/txn/worker.h"

namespace doppel {

class Engine {
 public:
  virtual ~Engine() = default;
  virtual const char* name() const = 0;

  // Key -> record, creating a logically-absent record of `type` on first access.
  // When the key already exists with a different type (the record's type is fixed at
  // creation; only a physical reclaim can retire it), dooms the attempt with
  // kTypeMismatch and returns nullptr.
  virtual Record* Route(Worker& w, const Key& key, RecordType type, std::size_t topk_k) = 0;

  // Key -> record for Txn::Delete: adapts to whatever type the key currently has
  // (creating an absent int placeholder for a never-stored key), so deletes never
  // type-mismatch.
  virtual Record* RouteDelete(Worker& w, const Key& key) = 0;

  // Protocol read into `out`. An access that cannot proceed dooms the transaction (a
  // stash under Doppel, a conflict under OCC and 2PL) and leaves `out` unspecified.
  virtual void Read(Worker& w, Txn& txn, Record* r, ReadResult* out) = 0;

  // Protocol write routing. May doom the transaction as Read does; a doomed write is
  // not buffered.
  virtual void Write(Worker& w, Txn& txn, PendingWrite&& pw) = 0;

  // Serializable range scan over the ordered index (see Txn::Scan for the contract).
  // Stops early once the transaction is doomed (a 2PL lock timeout, a split record
  // under Doppel, or `fn` calling UserAbort).
  // `fn` is a borrowed reference (FunctionRef): call it during the scan only.
  virtual std::size_t Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                           std::uint64_t hi, std::size_t limit, ScanFn fn) = 0;

  // Commit protocol; returns kCommitted or kConflict (conflict details left in txn).
  virtual TxnStatus Commit(Worker& w, Txn& txn) = 0;

  // Releases engine resources held by a doomed or degraded-gated attempt.
  virtual void Abort(Worker& w, Txn& txn) = 0;

  // Classifier hooks (Doppel).
  virtual void OnConflict(Worker& w, Txn& txn) {
    (void)w;
    (void)txn;
  }
  virtual void OnStash(Worker& w, const StashSignal& s) {
    (void)w;
    (void)s;
  }

 protected:
  // Shared Route body: resolve the key — worker-local route cache first, then the
  // store's front door — skipping past records the epoch sweeper has marked dead (a
  // dead record is instants from being unlinked — spin until the fresh lookup stops
  // returning it), then enforce the type contract (a mismatch dooms the attempt).
  static Record* RouteInStore(Worker& w, Store& s, const Key& key, RecordType type,
                              std::size_t topk_k) {
    Record* r = RouteAnyType(w, s, key, type, topk_k);
    if (r->type() != type) {
      w.txn.Doom(TxnStatus::kTypeMismatch, r);
      return nullptr;
    }
    return r;
  }

  // Type-agnostic variant for deletes: returns whatever record the key has (possibly a
  // fresh absent placeholder of `fallback` type).
  static Record* RouteAnyType(Worker& w, Store& s, const Key& key, RecordType fallback,
                              std::size_t topk_k) {
    // Cache hit: a pointer this worker resolved earlier in the current epoch window
    // (abort-retry being the payoff case). The IsDead re-check here mirrors the one
    // every freshly-routed pointer gets from the engines after each snapshot; a hit
    // can never alias freed memory because the run loop invalidates the cache on
    // every observed epoch change, ahead of the two-advance free gate.
    if (Record* r = w.txn.CachedRoute(key)) {
      if (!r->IsDead()) {
        return r;
      }
    }
    Record* r = s.Route(key, fallback, topk_k == 0 ? TopKSet::kDefaultK : topk_k);
    while (r->IsDead()) {
      // The sweeper marks a record dead under its bucket's stripe lock and unlinks it
      // before releasing that lock, so a fresh lookup stops observing it as soon as the
      // sweeping thread finishes this bucket.
      CpuRelax();
      r = s.Route(key, fallback, topk_k == 0 ? TopKSet::kDefaultK : topk_k);
    }
    w.txn.CacheRoute(key, r);
    return r;
  }
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_ENGINE_H_
