#include "src/txn/twopl_engine.h"

#include <algorithm>

#include "src/txn/apply.h"

namespace doppel {

TwoPLEngine::TwoPLEngine(Store& store) : TwoPLEngine(store, Limits{}) {}

Record* TwoPLEngine::Route(Worker& w, const Key& key, RecordType type,
                           std::size_t topk_k) {
  return RouteInStore(w, store_, key, type, topk_k);
}

Record* TwoPLEngine::RouteDelete(Worker& w, const Key& key) {
  return RouteAnyType(w, store_, key, RecordType::kInt64, 0);
}

namespace {

// A lock not taken in time is this protocol's access-time conflict: doom the attempt
// (retry with backoff); the locks already held stay in the lock set for Abort to release.
bool Lost(Txn& txn, Record* r, OpCode op) {
  txn.Doom(TxnStatus::kConflict, r, op);
  return false;
}

// A partition-lock timeout is this protocol's scan conflict: record it against the
// stripe (raw telemetry) and in the transaction (sampled attribution), then doom.
bool IndexConflict(Txn& txn, std::uint64_t table, std::uint32_t part_index,
                   IndexPartition* p, OpCode op) {
  p->scan_conflicts.fetch_add(1, std::memory_order_relaxed);
  if (txn.scan_set_conflicts.size() < 8) {
    txn.scan_set_conflicts.push_back(ScanSetConflict{table, part_index});
  }
  return Lost(txn, nullptr, op);
}

}  // namespace

bool TwoPLEngine::EnsureShared(Txn& txn, Record* r) {
  for (const LockEntry& e : txn.locks()) {
    if (e.record == r) {
      return true;  // shared or exclusive: either allows reading
    }
  }
  if (!r->rw.try_lock_shared_for(limits_.shared_spin)) {
    return Lost(txn, r, OpCode::kGet);
  }
  txn.locks().push_back(LockEntry{r, false});
  // The sweeper marks a record dead only while holding rw exclusively, so under our
  // shared lock deadness is stable: dead here means it was unlinked before we locked,
  // and the retry re-routes to a fresh record. Abort's ReleaseAll drops the lock.
  return !r->IsDead() || Lost(txn, r, OpCode::kGet);
}

bool TwoPLEngine::EnsureExclusive(Txn& txn, Record* r, OpCode op) {
  for (LockEntry& e : txn.locks()) {
    if (e.record == r) {
      if (e.exclusive) {
        return true;
      }
      if (!r->rw.try_upgrade_for(limits_.upgrade_spin)) {
        return Lost(txn, r, op);  // upgrade deadlock (two upgraders) resolves here
      }
      e.exclusive = true;
      return true;
    }
  }
  if (!r->rw.try_lock_for(limits_.exclusive_spin)) {
    return Lost(txn, r, op);
  }
  txn.locks().push_back(LockEntry{r, true});
  // Same argument as EnsureShared: a record already in txn.locks() was vetted when
  // first acquired and cannot die while we hold its rw lock.
  return !r->IsDead() || Lost(txn, r, op);
}

bool TwoPLEngine::EnsureIndexShared(Txn& txn, std::uint64_t table,
                                    std::uint32_t part_index, IndexPartition* p) {
  for (const IndexLockEntry& e : txn.index_locks()) {
    if (e.partition == p) {
      return true;
    }
  }
  if (!p->rw.try_lock_shared_for(limits_.shared_spin)) {
    return IndexConflict(txn, table, part_index, p, OpCode::kGet);
  }
  txn.index_locks().push_back(IndexLockEntry{p, false});
  return true;
}

bool TwoPLEngine::EnsureIndexExclusive(Txn& txn, std::uint64_t table,
                                       std::uint32_t part_index, IndexPartition* p,
                                       OpCode op) {
  for (IndexLockEntry& e : txn.index_locks()) {
    if (e.partition == p) {
      if (e.exclusive) {
        return true;
      }
      if (!p->rw.try_upgrade_for(limits_.upgrade_spin)) {
        return IndexConflict(txn, table, part_index, p, op);
      }
      e.exclusive = true;
      return true;
    }
  }
  if (!p->rw.try_lock_for(limits_.exclusive_spin)) {
    return IndexConflict(txn, table, part_index, p, op);
  }
  txn.index_locks().push_back(IndexLockEntry{p, true});
  return true;
}

void TwoPLEngine::Read(Worker& w, Txn& txn, Record* r, ReadResult* out) {
  (void)w;
  if (!EnsureShared(txn, r)) {
    return;
  }
  // Holding at least a shared lock: no 2PL writer can be applying, so the snapshot spin
  // loops never iterate.
  if (r->type() == RecordType::kInt64) {
    const Record::IntSnapshot s = r->ReadInt();
    out->present = s.present;
    out->i = s.value;
    return;
  }
  Record::ComplexSnapshot s = r->ReadComplex();
  out->present = s.present;
  out->complex = std::move(s.value);
}

void TwoPLEngine::Write(Worker& w, Txn& txn, PendingWrite&& pw) {
  (void)w;
  if (!EnsureExclusive(txn, pw.record, pw.op)) {
    return;
  }
  // A write to a logically-absent record is an insert-to-be: commit will add it to the
  // ordered index, so the growing phase must also take the index partition's exclusive
  // lock (2PL phantom protection against concurrent scanners). A delete is the mirror
  // image — commit may remove the key from the index — and needs the same stripe
  // exclusivity. Presence is stable here because it only changes under the record's
  // exclusive lock, which we now hold.
  if (!pw.record->PresentLocked() || pw.op == OpCode::kDelete) {
    const Key& k = pw.record->key();
    OrderedIndex::TableIndex& tab = store_.index().GetOrCreateTable(k.hi);
    const std::size_t p = tab.PartitionOf(k.lo);
    if (!EnsureIndexExclusive(txn, k.hi, static_cast<std::uint32_t>(p),
                              &tab.partitions[p], pw.op)) {
      return;
    }
  }
  txn.BufferWrite(std::move(pw));
}

std::size_t TwoPLEngine::Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                              std::uint64_t hi, std::size_t limit, ScanFn fn) {
  (void)w;
  if (lo > hi) {
    return 0;
  }
  OrderedIndex::TableIndex& tab = store_.index().GetOrCreateTable(table);
  const std::size_t p_lo = tab.PartitionOf(lo);
  const std::size_t p_hi = tab.PartitionOf(hi);
  std::size_t visited = 0;
  Txn::ScanScratchLease lease(txn.scan_batch());
  auto& batch = lease.get();
  for (std::size_t p = p_lo; p <= p_hi; ++p) {
    IndexPartition& part = tab.partitions[p];
    // Held until commit/abort: no insert into this stripe can commit while we run.
    if (!EnsureIndexShared(txn, table, static_cast<std::uint32_t>(p), &part)) {
      return visited;
    }
    batch.clear();
    OrderedIndex::SnapshotRange(part, lo, hi, limit == 0 ? 0 : limit - visited, &batch);
    for (const auto& [key_lo, rec] : batch) {
      (void)key_lo;
      ReadResult res;
      Read(w, txn, rec, &res);  // takes the record's shared lock for the txn's duration
      if (txn.doomed()) {
        return visited;
      }
      txn.OverlayPending(rec, &res);
      if (!res.present) {
        continue;
      }
      ++visited;
      if (!fn(rec->key(), res) || txn.doomed()) {
        return visited;
      }
      if (limit != 0 && visited >= limit) {
        return visited;
      }
    }
  }
  return visited;
}

TxnStatus TwoPLEngine::Commit(Worker& w, Txn& txn) {
  auto& ws = txn.write_set();
  const std::size_t n = ws.size();
  // Record-address commit order as slot indices (Txn::CommitOrder): groups same-record
  // writes in issue order without copying the elements; single-write transactions skip
  // the sort and scratch entirely.
  std::uint32_t single = 0;
  const std::uint32_t* order = txn.CommitOrder(&single);
  // We hold every write record exclusively: the short OCC lock below cannot contend with
  // other 2PL transactions; it exists to keep the record's seqlock/TID discipline intact
  // for external snapshot readers.
  std::uint64_t max_seen = 0;
  for (const PendingWrite& pw : ws) {
    max_seen = std::max(max_seen, Record::TidOf(pw.record->LoadTidWord()));
  }
  const std::uint64_t commit_tid = w.GenerateTid(max_seen);
  for (std::size_t i = 0; i < n; ++i) {
    const PendingWrite& pw = ws[order[i]];
    Record* r = pw.record;
    if (i == 0 || ws[order[i - 1]].record != r) {
      r->LockOcc();
    }
    const bool was_present = r->PresentLocked();
    ApplyWriteToRecord(pw, txn.arena());
    if (pw.op == OpCode::kDelete) {
      // Mirror of the insert path: the partition's exclusive lock was taken at Write()
      // time, so no scanner holds the stripe while the key vanishes.
      if (was_present) {
        store_.index().Remove(r->key());
      }
    } else if (!was_present) {
      // The partition's exclusive lock was taken at Write() time, so no scanner holds
      // the stripe; the version bump keeps OCC-side bookkeeping consistent.
      store_.index().Insert(r->key(), r);
    }
    if (i + 1 == n || ws[order[i + 1]].record != r) {
      r->UnlockOccSetTid(commit_tid);
    }
  }
  ReleaseAll(txn);
  return TxnStatus::kCommitted;
}

void TwoPLEngine::Abort(Worker& w, Txn& txn) {
  (void)w;
  ReleaseAll(txn);
}

void TwoPLEngine::ReleaseAll(Txn& txn) {
  for (const LockEntry& e : txn.locks()) {
    if (e.exclusive) {
      e.record->rw.unlock();
    } else {
      e.record->rw.unlock_shared();
    }
  }
  txn.locks().clear();
  for (const IndexLockEntry& e : txn.index_locks()) {
    if (e.exclusive) {
      e.partition->rw.unlock();
    } else {
      e.partition->rw.unlock_shared();
    }
  }
  txn.index_locks().clear();
}

}  // namespace doppel
