#include "src/txn/atomic_engine.h"

#include <utility>

namespace doppel {

Record* AtomicEngine::Route(Worker& w, const Key& key, RecordType type,
                            std::size_t topk_k) {
  return RouteInStore(w, store_, key, type, topk_k);
}

Record* AtomicEngine::RouteDelete(Worker& w, const Key& key) {
  return RouteAnyType(w, store_, key, RecordType::kInt64, 0);
}

void AtomicEngine::Read(Worker& w, Txn& txn, Record* r, ReadResult* out) {
  (void)w;
  (void)txn;
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

void AtomicEngine::Write(Worker& w, Txn& txn, PendingWrite&& pw) {
  (void)w;
  const WriteArena& arena = txn.arena();
  Record* r = pw.record;
  // Racy first-presence detection (no lock discipline in this engine); the index insert
  // below is idempotent, so a double-detect costs nothing.
  const bool was_present = pw.op != OpCode::kGet && r->PresentLocked();
  if (pw.op == OpCode::kDelete) {
    // The one op this engine runs under the record's OCC lock: the present -> absent
    // transition must be exclusive with the index maintenance (the Insert/Remove
    // callers' contract), and unlike the atomics above it cannot be expressed as a
    // single hardware instruction. Records deleted under this engine stay absent but
    // are never physically reclaimed — the epoch sweeper's dead-flag protocol assumes
    // writers lock, which this engine's other ops do not.
    r->LockOcc();
    const bool present = r->PresentLocked();
    r->SetAbsent();
    r->NoteWriteOp(static_cast<std::uint8_t>(OpCode::kDelete));
    if (present) {
      store_.index().Remove(r->key());
    }
    r->UnlockOcc();
    return;
  }
  switch (pw.op) {
    case OpCode::kAdd:
      r->AtomicAdd(pw.n);
      break;
    case OpCode::kMax:
      r->AtomicMax(pw.n);
      break;
    case OpCode::kMin:
      r->AtomicMin(pw.n);
      break;
    case OpCode::kMult:
      r->AtomicMult(pw.n);
      break;
    case OpCode::kPutInt:
      r->SetInt(pw.n);
      break;
    case OpCode::kPutBytes: {
      const std::string_view payload = pw.PayloadOf(arena);
      r->MutateComplex([&](ComplexValue& cv) {
        std::get<std::string>(cv).assign(payload.data(), payload.size());
      });
      break;
    }
    case OpCode::kOPut:
      r->MutateComplex([&](ComplexValue& cv) {
        auto& cur = std::get<OrderedTuple>(cv);
        OrderedTuple next{pw.OrderOf(arena), pw.core, std::string(pw.PayloadOf(arena))};
        // A never-written OrderedTuple holds order -inf, so the first put wins.
        if (OrderedTuple::Wins(next, cur)) {
          cur = std::move(next);
        }
      });
      break;
    case OpCode::kTopKInsert:
      r->MutateComplex([&](ComplexValue& cv) {
        std::get<TopKSet>(cv).Insert(
            OrderedTuple{pw.OrderOf(arena), pw.core, std::string(pw.PayloadOf(arena))});
      });
      break;
    case OpCode::kDelete:  // handled above the switch
    case OpCode::kGet:
      break;
  }
  if (pw.op != OpCode::kGet && !was_present) {
    store_.index().Insert(r->key(), r);
  }
}

std::size_t AtomicEngine::Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                               std::uint64_t hi, std::size_t limit, ScanFn fn) {
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
    batch.clear();
    OrderedIndex::SnapshotRange(tab.partitions[p], lo, hi,
                                limit == 0 ? 0 : limit - visited, &batch);
    for (const auto& [key_lo, rec] : batch) {
      (void)key_lo;
      ReadResult res;
      Read(w, txn, rec, &res);
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

TxnStatus AtomicEngine::Commit(Worker& w, Txn& txn) {
  (void)w;
  (void)txn;
  return TxnStatus::kCommitted;
}

void AtomicEngine::Abort(Worker& w, Txn& txn) {
  (void)w;
  (void)txn;
}

}  // namespace doppel
