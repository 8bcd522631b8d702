#include "src/txn/txn.h"

#include <algorithm>
#include <utility>

#include "src/common/dassert.h"
#include "src/txn/apply.h"
#include "src/txn/engine.h"
#include "src/txn/worker.h"

namespace doppel {

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kGet:
      return "Get";
    case OpCode::kPutInt:
      return "PutInt";
    case OpCode::kPutBytes:
      return "PutBytes";
    case OpCode::kAdd:
      return "Add";
    case OpCode::kMax:
      return "Max";
    case OpCode::kMin:
      return "Min";
    case OpCode::kMult:
      return "Mult";
    case OpCode::kOPut:
      return "OPut";
    case OpCode::kTopKInsert:
      return "TopKInsert";
    case OpCode::kDelete:
      return "Delete";
  }
  return "?";
}

int Txn::worker_id() const { return worker_->id; }

Rng& Txn::rng() { return worker_->rng; }

// ---- Own-write chains and the lazy write index -----------------------------------------

Txn::WriteSlot* Txn::WindexSlot(const Record* r) {
  // Fibonacci-mix the pointer (low bits are alignment zeros) and linear-probe.
  const std::uintptr_t h = reinterpret_cast<std::uintptr_t>(r) >> 4;
  std::size_t i =
      static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ULL) >> 32) & windex_mask_;
  while (windex_[i].record != nullptr && windex_[i].record != r) {
    i = (i + 1) & windex_mask_;
  }
  return &windex_[i];
}

void Txn::BuildWriteIndex() {
  std::size_t want = 32;
  while (want < write_set_.size() * 4) {
    want <<= 1;
  }
  if (windex_.size() < want) {
    windex_.assign(want, WriteSlot{});
  } else {
    std::fill(windex_.begin(), windex_.end(), WriteSlot{});
  }
  windex_mask_ = windex_.size() - 1;
  for (std::uint32_t i = 0; i < write_set_.size(); ++i) {
    WriteSlot* s = WindexSlot(write_set_[i].record);
    if (s->record == nullptr) {
      s->record = write_set_[i].record;
      s->head = i;
    }
    s->tail = i;  // next-links are already correct; only the chain ends are indexed
  }
  windex_built_ = true;
}

void Txn::BufferWrite(PendingWrite&& w) {
  const std::uint32_t idx = static_cast<std::uint32_t>(write_set_.size());
  w.next = PendingWrite::kNoNext;
  if (windex_built_) {
    WriteSlot* s = WindexSlot(w.record);
    if (s->record == nullptr) {
      s->record = w.record;
      s->head = idx;
    } else {
      write_set_[s->tail].next = idx;
    }
    s->tail = idx;
    write_set_.push_back(w);
    // Keep the table under half load: rebuild re-probes chain ends from the (already
    // correct) next-links, so it must happen after this entry is linked in.
    if (write_set_.size() * 2 >= windex_.size()) {
      BuildWriteIndex();
    }
    return;
  }
  // Below the threshold: link by backward scan (the last entry for the record is the
  // chain tail), then push. Small sets make this cheaper than maintaining the table.
  for (std::uint32_t i = idx; i-- > 0;) {
    if (write_set_[i].record == w.record) {
      write_set_[i].next = idx;
      break;
    }
  }
  write_set_.push_back(w);
  if (write_set_.size() > kWriteIndexThreshold) {
    BuildWriteIndex();
  }
}

std::uint32_t Txn::OwnWriteHead(const Record* r) const {
  if (windex_built_) {
    WriteSlot* s = const_cast<Txn*>(this)->WindexSlot(r);
    return s->record == nullptr ? PendingWrite::kNoNext : s->head;
  }
  for (std::uint32_t i = 0; i < write_set_.size(); ++i) {
    if (write_set_[i].record == r) {
      return i;
    }
  }
  return PendingWrite::kNoNext;
}

const PendingWrite* Txn::FindOwnWrite(const Record* r) const {
  const std::uint32_t head = OwnWriteHead(r);
  return head == PendingWrite::kNoNext ? nullptr : &write_set_[head];
}

const std::uint32_t* Txn::CommitOrder(std::uint32_t* single) {
  const std::size_t n = write_set_.size();
  if (n <= 1) {
    *single = 0;
    return single;
  }
  // Sorting 4-byte indices instead of the 32-byte elements keeps the write set in
  // issue order (the WAL encodes it as issued, and the RYOW chains stay valid) and
  // touches a quarter of the bytes.
  commit_order_.resize(n);
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n); ++i) {
    commit_order_[i] = i;
  }
  const auto& ws = write_set_;
  std::sort(commit_order_.begin(), commit_order_.end(),
            [&ws](std::uint32_t a, std::uint32_t b) {
              if (ws[a].record != ws[b].record) {
                return ws[a].record < ws[b].record;
              }
              return a < b;
            });
  return commit_order_.data();
}

void Txn::OverlayPending(Record* r, ReadResult* res) const {
  for (std::uint32_t i = OwnWriteHead(r); i != PendingWrite::kNoNext;
       i = write_set_[i].next) {
    ApplyWriteToResult(write_set_[i], arena_, res);
  }
}

bool Txn::ReadKey(const Key& key, RecordType type, std::size_t topk_k,
                  ReadResult* res) {
  if (doomed()) {
    return false;
  }
  Record* r = engine_->Route(*worker_, key, type, topk_k);
  if (r == nullptr) {
    return false;  // type mismatch: Route doomed the attempt
  }
  engine_->Read(*worker_, *this, r, res);
  if (doomed()) {
    return false;
  }
  OverlayPending(r, res);
  return res->present;
}

std::optional<std::int64_t> Txn::GetInt(const Key& key) {
  ReadResult res;
  if (!ReadKey(key, RecordType::kInt64, 0, &res)) {
    return std::nullopt;
  }
  return res.i;
}

std::optional<std::string> Txn::GetBytes(const Key& key) {
  ReadResult res;
  if (!ReadKey(key, RecordType::kBytes, 0, &res)) {
    return std::nullopt;
  }
  return std::get<std::string>(std::move(res.complex));
}

std::optional<OrderedTuple> Txn::GetOrdered(const Key& key) {
  ReadResult res;
  if (!ReadKey(key, RecordType::kOrdered, 0, &res)) {
    return std::nullopt;
  }
  return std::get<OrderedTuple>(std::move(res.complex));
}

std::optional<TopKSet> Txn::GetTopK(const Key& key, std::size_t k) {
  ReadResult res;
  if (!ReadKey(key, RecordType::kTopK, k, &res)) {
    return std::nullopt;
  }
  return std::get<TopKSet>(std::move(res.complex));
}

void Txn::IssueWrite(const Key& key, OpCode op, std::int64_t n, const OrderKey& order,
                     std::string_view payload, std::size_t topk_k) {
  if (doomed()) {
    return;  // the attempt is over; all effects are discarded
  }
  Record* r = engine_->Route(*worker_, key, OpRecordType(op), topk_k);
  if (r == nullptr) {
    return;  // type mismatch: Route doomed the attempt
  }
  PendingWrite w;
  w.record = r;
  w.op = op;
  w.n = n;
  w.core = static_cast<std::uint16_t>(worker_->id);
  StoreOperand(arena_, op, order, payload, &w);
  engine_->Write(*worker_, *this, std::move(w));
}

void Txn::Delete(const Key& key) {
  if (doomed()) {
    return;  // the attempt is over; all effects are discarded
  }
  // Deletes adapt to the existing record's type (like kGet), so they route through the
  // type-agnostic path instead of IssueWrite's typed Route. Deleting a never-stored key
  // still buffers a write against the (absent) placeholder: the commit protocol locks
  // and validates it, which is what makes a delete/insert race serializable.
  Record* r = engine_->RouteDelete(*worker_, key);
  PendingWrite w;
  w.record = r;
  w.op = OpCode::kDelete;
  w.core = static_cast<std::uint16_t>(worker_->id);
  StoreOperand(arena_, OpCode::kDelete, OrderKey{}, {}, &w);
  engine_->Write(*worker_, *this, std::move(w));
}

void Txn::PutInt(const Key& key, std::int64_t v) {
  IssueWrite(key, OpCode::kPutInt, v, OrderKey{}, {}, 0);
}

void Txn::PutBytes(const Key& key, std::string_view v) {
  IssueWrite(key, OpCode::kPutBytes, 0, OrderKey{}, v, 0);
}

void Txn::Add(const Key& key, std::int64_t n) {
  IssueWrite(key, OpCode::kAdd, n, OrderKey{}, {}, 0);
}

void Txn::Max(const Key& key, std::int64_t n) {
  IssueWrite(key, OpCode::kMax, n, OrderKey{}, {}, 0);
}

void Txn::Min(const Key& key, std::int64_t n) {
  IssueWrite(key, OpCode::kMin, n, OrderKey{}, {}, 0);
}

void Txn::Mult(const Key& key, std::int64_t n) {
  IssueWrite(key, OpCode::kMult, n, OrderKey{}, {}, 0);
}

void Txn::OPut(const Key& key, OrderKey order, std::string_view payload) {
  IssueWrite(key, OpCode::kOPut, 0, order, payload, 0);
}

void Txn::TopKInsert(const Key& key, OrderKey order, std::string_view payload,
                     std::size_t k) {
  IssueWrite(key, OpCode::kTopKInsert, 0, order, payload, k);
}

std::size_t Txn::Scan(std::uint64_t table, std::uint64_t lo, std::uint64_t hi,
                      std::size_t limit, ScanFn fn) {
  if (doomed()) {
    return 0;  // the attempt is over; execution continues without effects
  }
  // Read-your-own-writes for inserts: a write-set record that is still absent from the
  // index (a not-yet-committed insert) is invisible to the engine scan, so the window's
  // own pending keys are merged into the result stream here, in key order. Write-set
  // entries for records the engine does visit are dropped on the key match below (the
  // engine already overlays pending writes onto visited snapshots).
  // The merge buffer is leased from per-transaction scratch (RAII move-out/move-back):
  // the common case allocates nothing, and a nested scan finds an empty scratch and
  // simply pays a fresh allocation instead of corrupting this frame's merge state.
  ScanScratchLease own_lease(scan_own_);
  auto& own = own_lease.get();
  own.clear();
  for (const PendingWrite& pw : write_set_) {
    const Key& k = pw.record->key();
    if (k.hi == table && k.lo >= lo && k.lo <= hi) {
      own.emplace_back(k.lo, pw.record);
    }
  }
  if (own.empty()) {
    return engine_->Scan(*worker_, *this, table, lo, hi, limit, fn);
  }
  std::sort(own.begin(), own.end());
  own.erase(std::unique(own.begin(), own.end(),
                        [](const auto& a, const auto& b) { return a.first == b.first; }),
            own.end());

  std::size_t emitted = 0;
  bool stopped = false;
  std::size_t oi = 0;
  // Emits one pending-insert row (absent base + this transaction's buffered writes);
  // returns false once the user stops or the limit is reached.
  auto emit_own = [&](Record* r) {
    ReadResult base;  // absent
    OverlayPending(r, &base);
    if (!base.present) {
      return true;  // the buffered ops never made the record logically present
    }
    ++emitted;
    if (!fn(r->key(), base) || doomed() || (limit != 0 && emitted >= limit)) {
      stopped = true;
      return false;
    }
    return true;
  };
  // The limit applies to the merged stream, enforced through the wrapped callback's
  // return value. Passing it through to the engine as well keeps the engine's own
  // bounding (snapshot caps, 2PL partition-lock early-out); its internal limit check
  // can never fire first because `emitted` >= engine-visited rows at every step.
  auto merged = [&](const Key& k, const ReadResult& v) {
    while (oi < own.size() && own[oi].first < k.lo) {
      if (!emit_own(own[oi++].second)) {
        return false;
      }
    }
    if (oi < own.size() && own[oi].first == k.lo) {
      ++oi;  // visited by the engine: the overlay already applied our writes
    }
    ++emitted;
    if (!fn(k, v) || doomed() || (limit != 0 && emitted >= limit)) {
      stopped = true;
      return false;
    }
    return true;
  };
  engine_->Scan(*worker_, *this, table, lo, hi, limit, merged);
  if (doomed()) {
    return emitted;  // doomed mid-scan; all effects are discarded anyway
  }
  while (!stopped && oi < own.size()) {
    if (!emit_own(own[oi++].second)) {
      break;
    }
  }
  return emitted;
}

void Txn::UserAbort() { Doom(TxnStatus::kUserAbort); }

}  // namespace doppel
