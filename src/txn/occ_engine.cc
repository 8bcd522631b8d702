#include "src/txn/occ_engine.h"

#include <algorithm>

#include "src/txn/apply.h"

namespace doppel {

Record* OccEngine::Route(Worker& w, const Key& key, RecordType type, std::size_t topk_k) {
  return RouteInStore(w, store_, key, type, topk_k);
}

Record* OccEngine::RouteDelete(Worker& w, const Key& key) {
  return RouteAnyType(w, store_, key, RecordType::kInt64, 0);
}

void OccEngine::OccRead(Txn& txn, Record* r, ReadResult* out) {
  std::uint64_t tid = 0;
  if (r->type() == RecordType::kInt64) {
    const Record::IntSnapshot s = r->ReadInt();
    out->present = s.present;
    out->i = s.value;
    tid = s.tid;
  } else {
    Record::ComplexSnapshot s = r->ReadComplex();
    out->present = s.present;
    out->complex = std::move(s.value);
    tid = s.tid;
  }
  // A snapshot of a sweeper-killed record must not enter the read set: the record's TID
  // is frozen from here on (new writes to the key go to a fresh record), so a stale
  // "absent" read would validate forever. The sweeper bumps the TID when it marks the
  // record dead — a snapshot taken *before* the mark carries the old TID and fails
  // commit validation; a snapshot taken *after* carries the bumped TID, whose release
  // store also published the dead flag, so this check (acquire in IsDead) sees it and
  // dooms the attempt to a retry that re-routes to a fresh record.
  if (r->IsDead()) {
    txn.Doom(TxnStatus::kConflict, r, OpCode::kGet);
    return;
  }
  txn.read_set().push_back(ReadEntry{r, tid});
}

void OccEngine::OccBufferWrite(Txn& txn, PendingWrite&& pw) {
  // Read-modify-write operations record the TID they logically read so that commit-time
  // validation serializes them against concurrent writers — the conventional behaviour
  // whose collapse under contention motivates phase reconciliation.
  if (IsReadModifyWrite(pw.op)) {
    txn.read_set().push_back(ReadEntry{pw.record, pw.record->StableTid()});
  }
  txn.BufferWrite(std::move(pw));
}

void OccEngine::Read(Worker& w, Txn& txn, Record* r, ReadResult* out) {
  (void)w;
  OccRead(txn, r, out);
}

void OccEngine::Write(Worker& w, Txn& txn, PendingWrite&& pw) {
  (void)w;
  OccBufferWrite(txn, std::move(pw));
}

std::size_t OccEngine::OccScan(Txn& txn, std::uint64_t table, std::uint64_t lo,
                               std::uint64_t hi, std::size_t limit, ScanFn fn,
                               bool stash_on_split) {
  if (lo > hi) {
    return 0;
  }
  // GetOrCreate (not Find): scanning an empty table must still version-stamp its
  // partitions, or the first insert could slip past this scan unvalidated.
  OrderedIndex::TableIndex& tab = store_.index().GetOrCreateTable(table);
  const std::size_t p_lo = tab.PartitionOf(lo);
  const std::size_t p_hi = tab.PartitionOf(hi);
  std::size_t visited = 0;
  Txn::ScanScratchLease lease(txn.scan_batch());
  auto& batch = lease.get();
  for (std::size_t p = p_lo; p <= p_hi; ++p) {
    IndexPartition& part = tab.partitions[p];
    batch.clear();
    // Snapshot entry pointers under the partition lock, then read the records outside
    // it: index inserters hold their record's OCC lock while taking `part.mu`, so
    // spinning on a record's TID word under `mu` would deadlock.
    const std::uint64_t version = OrderedIndex::SnapshotRange(
        part, lo, hi, limit == 0 ? 0 : limit - visited, &batch);
    txn.scan_set().push_back(
        IndexScanEntry{&part, version, table, static_cast<std::uint32_t>(p)});
    for (const auto& [key_lo, rec] : batch) {
      (void)key_lo;
      if (stash_on_split && rec->IsSplit()) {
        txn.Doom(TxnStatus::kStashed, rec, OpCode::kGet);
        return visited;
      }
      ReadResult res;
      OccRead(txn, rec, &res);
      if (txn.doomed()) {
        return visited;  // a reclaimed record: no read-set entry to tag
      }
      // Tag the read entry with its scan origin so a validation failure on this record
      // is also charged to the partition (per-partition conflict telemetry).
      txn.read_set().back().scan_part = static_cast<std::int32_t>(p);
      txn.OverlayPending(rec, &res);
      if (!res.present) {
        continue;  // index entries are present by construction; defensive only
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

std::size_t OccEngine::Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                            std::uint64_t hi, std::size_t limit, ScanFn fn) {
  (void)w;
  return OccScan(txn, table, lo, hi, limit, fn, /*stash_on_split=*/false);
}

TxnStatus OccEngine::OccCommit(Worker& w, Txn& txn) {
  auto& ws = txn.write_set();
  auto& rs = txn.read_set();
  const std::size_t n = ws.size();

  // Record-address commit order as slot indices (Txn::CommitOrder): groups same-record
  // writes in issue order without copying the elements; the single-write transaction —
  // the common case in the INCR microbenches — skips the sort and scratch entirely.
  std::uint32_t single = 0;
  const std::uint32_t* order = txn.CommitOrder(&single);

  // Part 1: lock the write set in a global order (record address) to prevent deadlock;
  // abort immediately if any record is already locked (§8.1: "Doppel and OCC transactions
  // abort and later retry when they see a locked item").
  std::uint64_t max_seen = 0;
  std::size_t locked_end = 0;  // order slots [0, locked_end) hold their (deduped) locks
  Record* prev = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    PendingWrite& pw = ws[order[i]];
    if (pw.record == prev) {
      locked_end = i + 1;
      continue;
    }
    if (!pw.record->TryLockOcc()) {
      txn.conflict_record = pw.record;
      txn.conflict_op = pw.op;
      txn.conflicts.emplace_back(pw.record, pw.op);
      // Unlock the prefix we own.
      Record* p = nullptr;
      for (std::size_t j = 0; j < locked_end; ++j) {
        Record* r = ws[order[j]].record;
        if (r != p) {
          r->UnlockOcc();
          p = r;
        }
      }
      return TxnStatus::kConflict;
    }
    if (pw.record->IsDead()) {
      // The epoch sweeper unlinked this record between Route and commit; a committed
      // write here would be lost (new lookups reach a fresh record). Treat as a
      // conflict: the retry re-routes.
      pw.record->UnlockOcc();
      txn.conflict_record = pw.record;
      txn.conflict_op = pw.op;
      txn.conflicts.emplace_back(pw.record, pw.op);
      Record* p = nullptr;
      for (std::size_t j = 0; j < locked_end; ++j) {
        Record* r = ws[order[j]].record;
        if (r != p) {
          r->UnlockOcc();
          p = r;
        }
      }
      return TxnStatus::kConflict;
    }
    prev = pw.record;
    locked_end = i + 1;
    max_seen = std::max(max_seen, Record::TidOf(pw.record->LoadTidWord()));
  }

  for (const ReadEntry& e : rs) {
    max_seen = std::max(max_seen, e.tid);
  }
  const std::uint64_t commit_tid = w.GenerateTid(max_seen);

  // Part 2: validate the scan set (phantom protection: any insert into a traversed
  // index partition bumped its version) and the read set. On failure the whole set is
  // still scanned so every conflicting record is reported (the contention classifier
  // needs co-hot records, not just the first failure).
  for (const IndexScanEntry& e : txn.scan_set()) {
    if (e.partition->version.load(std::memory_order_acquire) != e.version) {
      txn.scan_conflict = true;
      // Phantom: a concurrent insert moved the stripe under the scan. No record to
      // blame, so the conflict is charged to the partition itself.
      e.partition->scan_conflicts.fetch_add(1, std::memory_order_relaxed);
      if (txn.scan_set_conflicts.size() < 8) {
        txn.scan_set_conflicts.push_back(ScanSetConflict{e.table, e.part_index});
      }
    }
  }
  for (const ReadEntry& e : rs) {
    const std::uint64_t word = e.record->LoadTidWord();
    const PendingWrite* own = txn.FindOwnWrite(e.record);
    if (Record::TidOf(word) != e.tid ||
        (Record::IsLocked(word) && own == nullptr)) {
      if (txn.conflict_record == nullptr) {
        txn.conflict_record = e.record;
        txn.conflict_op = own != nullptr ? own->op : OpCode::kGet;
      }
      if (txn.conflicts.size() < 8) {
        txn.conflicts.emplace_back(e.record,
                                   own != nullptr ? own->op : OpCode::kGet);
      }
      if (e.scan_part >= 0) {
        // The record was reached through a scan: also charge the scan window's
        // partition, naming the record and the op its winning writers last applied —
        // the classifier's cue that splitting this record would relieve the window.
        const std::uint64_t table = e.record->key().hi;
        if (OrderedIndex::TableIndex* t = store_.index().FindTable(table)) {
          t->partitions[static_cast<std::size_t>(e.scan_part)].scan_conflicts.fetch_add(
              1, std::memory_order_relaxed);
        }
        if (txn.scan_set_conflicts.size() < 8) {
          txn.scan_set_conflicts.push_back(ScanSetConflict{
              table, static_cast<std::uint32_t>(e.scan_part), true, e.record->key(),
              static_cast<OpCode>(e.record->last_write_op())});
        }
      }
    }
  }
  if (txn.conflict_record != nullptr || txn.scan_conflict) {
    Record* p = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      Record* r = ws[order[i]].record;
      if (r != p) {
        r->UnlockOcc();
        p = r;
      }
    }
    return TxnStatus::kConflict;
  }

  // Part 3: apply and release. Same-record writes are adjacent in commit order and
  // applied in issue order (the slot tie-break); the record is unlocked after its last
  // buffered write. A record becoming logically present enters the ordered index before
  // its unlock, so a scan that validates after this commit point either saw the entry
  // or fails on the partition version.
  for (std::size_t i = 0; i < n; ++i) {
    const PendingWrite& pw = ws[order[i]];
    Record* r = pw.record;
    const bool was_present = r->PresentLocked();
    ApplyWriteToRecord(pw, txn.arena());
    if (pw.op == OpCode::kDelete) {
      // Present -> absent: leave the index before the unlock, mirroring the insert
      // ordering — a scan validating after this commit point fails on the bumped
      // partition version instead of resolving a vanished key.
      if (was_present) {
        store_.index().Remove(r->key());
      }
    } else if (!was_present) {
      store_.index().Insert(r->key(), r);
    }
    if (i + 1 == n || ws[order[i + 1]].record != r) {
      r->UnlockOccSetTid(commit_tid);
    }
  }
  return TxnStatus::kCommitted;
}

TxnStatus OccEngine::Commit(Worker& w, Txn& txn) { return OccCommit(w, txn); }

void OccEngine::Abort(Worker& w, Txn& txn) {
  // OCC holds no resources during execution.
  (void)w;
  (void)txn;
}

}  // namespace doppel
