#include "src/core/doppel_engine.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "src/common/dassert.h"
#include "src/common/timing.h"

namespace doppel {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kDoppel:
      return "Doppel";
    case Protocol::kOcc:
      return "OCC";
    case Protocol::kTwoPL:
      return "2PL";
    case Protocol::kAtomic:
      return "Atomic";
  }
  return "?";
}

DoppelEngine::DoppelEngine(Store& store, const Options& opts,
                           const std::atomic<bool>& stop)
    : OccEngine(store), opts_(opts), stop_(stop) {
  runner_cfg_.backoff_min_ns = opts.backoff_min_us * 1000;
  runner_cfg_.backoff_max_ns = opts.backoff_max_us * 1000;
}

void DoppelEngine::RegisterWorkers(const std::vector<std::unique_ptr<Worker>>& workers) {
  workers_.clear();
  for (const auto& w : workers) {
    w->ext = std::make_unique<DoppelWorkerState>(opts_.classifier);
    workers_.push_back(w.get());
  }
}

// ---- Access routing -------------------------------------------------------------------

void DoppelEngine::Read(Worker& w, Txn& txn, Record* r, ReadResult* out) {
  // "Recall that split data cannot be read during a split phase" (§7): doom the
  // transaction; it will be stashed and restarted in the next joined phase.
  if (w.LoadPhase() == Phase::kSplit && r->IsSplit()) {
    txn.Doom(TxnStatus::kStashed, r, OpCode::kGet);
    return;
  }
  OccRead(txn, r, out);
}

void DoppelEngine::Write(Worker& w, Txn& txn, PendingWrite&& pw) {
  if (w.LoadPhase() == Phase::kSplit && pw.record->IsSplit()) {
    if (pw.op == static_cast<OpCode>(pw.record->split_op())) {
      txn.split_writes().push_back(std::move(pw));
      return;
    }
    // "within a given phase, any operation but the selected operation causes the
    // containing transaction to abort (and retry in the next joined phase)" (§4).
    txn.Doom(TxnStatus::kStashed, pw.record, pw.op);
    return;
  }
  OccBufferWrite(txn, std::move(pw));
}

std::size_t DoppelEngine::Scan(Worker& w, Txn& txn, std::uint64_t table,
                               std::uint64_t lo, std::uint64_t hi, std::size_t limit,
                               ScanFn fn) {
  return OccScan(txn, table, lo, hi, limit, fn,
                 /*stash_on_split=*/w.LoadPhase() == Phase::kSplit);
}

TxnStatus DoppelEngine::Commit(Worker& w, Txn& txn) {
  // Fig. 3: OCC commit for the read set and reconciled write set; if that succeeds, the
  // split-write set is applied to this core's slices — no locks or version checks, since
  // slices are invisible to concurrently running transactions.
  const TxnStatus status = OccCommit(w, txn);
  if (status != TxnStatus::kCommitted) {
    return status;
  }
  if (!txn.split_writes().empty()) {
    DOPPEL_DCHECK(w.LoadPhase() == Phase::kSplit);
    auto& slices = Ext(w).slices;
    for (const PendingWrite& sw : txn.split_writes()) {
      const std::int32_t idx = sw.record->slice_index();
      DOPPEL_DCHECK(idx >= 0 && static_cast<std::size_t>(idx) < slices.size());
      SliceApply(slices[static_cast<std::size_t>(idx)], sw, txn.arena());
    }
  }
  return TxnStatus::kCommitted;
}

void DoppelEngine::OnConflict(Worker& w, Txn& txn) {
  if (w.LoadPhase() != Phase::kJoined) {
    return;
  }
  ConflictSampler& sampler = Ext(w).sampler;
  if (!txn.conflicts.empty()) {
    for (const auto& [record, op] : txn.conflicts) {
      sampler.RecordConflict(record->key(), op);
    }
  } else if (txn.conflict_record != nullptr) {
    sampler.RecordConflict(txn.conflict_record->key(), txn.conflict_op);
  }
  for (const ScanSetConflict& sc : txn.scan_set_conflicts) {
    if (sc.has_record) {
      sampler.RecordScanConflict(sc.table, sc.partition, sc.key, sc.op);
    } else {
      sampler.RecordScanConflict(sc.table, sc.partition);
    }
  }
}

void DoppelEngine::OnStash(Worker& w, const StashSignal& s) {
  const std::int32_t idx = s.record->slice_index();
  auto& slices = Ext(w).slices;
  if (idx >= 0 && static_cast<std::size_t>(idx) < slices.size()) {
    slices[static_cast<std::size_t>(idx)].stashes++;
  }
  // Pressure gauge feeding the coordinator's hurry heuristic; racy reads fine.
  stash_pressure_.fetch_add(1, std::memory_order_relaxed);
}

// ---- Worker-side phase transitions (§5.4) ---------------------------------------------

void DoppelEngine::BetweenTxns(Worker& w) { MaybeTransition(w); }

void DoppelEngine::MaybeTransition(Worker& w) {
  const std::uint64_t pend = ctrl_.pending();
  if (pend == w.seen_word) {
    return;
  }
  const Phase target = PhaseController::DecodePhase(pend);
  if (w.LoadPhase() == Phase::kSplit) {
    // Leaving the split phase: reconcile this core's slices into the global store.
    MergeWorkerSlices(w);
  }
  if (target == Phase::kSplit) {
    // "our workers delay acknowledging a split phase until they have committed or
    // aborted all previously-stashed transactions."
    DrainStash(w);
  }
  w.acked_word.store(pend, std::memory_order_release);
  // Yield while waiting for the release: the coordinator needs a core to collect acks and
  // run the barrier work, and on machines with as many workers as cores a pure spin here
  // would make every phase change cost scheduler timeslices instead of microseconds.
  std::uint32_t spins = 0;
  while (ctrl_.released() != pend) {
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    HelpCheckpointCapture();
    if (++spins < 64) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  if (target == Phase::kSplit) {
    PrepareSlices(w);
  }
  // Worker-local phase mirror: only this worker reads it for decisions; cross-thread
  // observers (stats) tolerate staleness. The barrier ack provides real ordering.
  w.phase.store(target, std::memory_order_relaxed);
  w.seen_word = pend;
}

void DoppelEngine::MergeWorkerSlices(Worker& w) {
  SplitPlan* plan = plan_.get();
  if (plan == nullptr) {
    return;
  }
  auto& slices = Ext(w).slices;
  const std::size_t n = std::min(plan->entries.size(), slices.size());
  for (std::size_t i = 0; i < n; ++i) {
    SplitEntry& e = plan->entries[i];
    Slice& s = slices[i];
    if (s.writes != 0) {
      // Classifier tallies, read only at the next barrier (workers quiesced):
      // the barrier handshake orders them, relaxed suffices here.
      e.writes.fetch_add(s.writes, std::memory_order_relaxed);
    }
    if (s.stashes != 0) {
      e.stashes.fetch_add(s.stashes, std::memory_order_relaxed);
    }
    if (s.dirty) {
      const std::uint64_t tid = w.GenerateTid(Record::TidOf(e.record->LoadTidWord()));
      MergeSliceToGlobal(e.record, e.op, s, tid, &store_.index());
    }
    // Consume the slice so the merge is idempotent. MaybeTransition can re-enter after
    // its early stop_ return (which acks but leaves seen_word stale); without this, the
    // re-entered transition re-merged the same accumulator and double-applied
    // kAdd/kMult deltas (and double-counted the write/stash samples) at shutdown.
    s.dirty = false;
    s.writes = 0;
    s.stashes = 0;
  }
}

void DoppelEngine::DrainStash(Worker& w) {
  // Relaxed stop poll: reacting an iteration late is harmless.
  while (!w.stash.empty() && !stop_.load(std::memory_order_relaxed)) {
    PendingTxn pt = std::move(w.stash.front());
    w.stash.pop_front();
    // Still in the joined phase (we have not acked yet), so this cannot re-stash.
    RunPendingTxn(*this, runner_cfg_, w, std::move(pt));
  }
}

void DoppelEngine::PrepareSlices(Worker& w) {
  const SplitPlan* plan = plan_.get();
  auto& slices = Ext(w).slices;
  const std::size_t n = plan == nullptr ? 0 : plan->size();
  if (slices.size() < n) {
    slices.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    slices[i].Reset(plan->entries[i].op, plan->entries[i].topk_k);
  }
}

// ---- Coordinator interface ------------------------------------------------------------

void DoppelEngine::MarkSplitManually(const Key& key, OpCode op, std::size_t topk_k) {
  DOPPEL_CHECK(IsSplittable(op));
  Record* r = store_.GetOrCreate(key, OpRecordType(op), topk_k);
  // Manual labels hold this pointer for the engine's lifetime: pin it (never unpinned)
  // so a delete of the key can empty the record but never reclaim it out from under
  // the plan builder.
  r->Pin();
  manual_.push_back(Labeled{r, op});
}

bool DoppelEngine::HasSplitCandidates() const {
  if (!manual_.empty() || !retained_.empty()) {
    return true;
  }
  if (opts_.manual_split_only) {
    return false;
  }
  for (const Worker* w : workers_) {
    const auto& ext = static_cast<const DoppelWorkerState&>(*w->ext);
    if (ext.sampler.ApproxTotal() >= opts_.classifier.min_conflicts) {
      return true;
    }
  }
  return false;
}

void DoppelEngine::WaitForWorkerAcks() const {
  const std::uint64_t pend = ctrl_.pending();
  for (const Worker* w : workers_) {
    std::uint32_t spins = 0;
    while (w->acked_word.load(std::memory_order_acquire) != pend) {
      // Relaxed stop poll: shutdown needs no ordering beyond the acks themselves.
      if (stop_.load(std::memory_order_relaxed)) {
        return;
      }
      if (++spins < 1024) {
        CpuRelax();
      } else {
        std::this_thread::yield();  // let the worker run to its next txn boundary
      }
    }
  }
}

void DoppelEngine::BarrierBuildPlan() {
  const ClassifierOptions& c = opts_.classifier;
  cycle_++;

  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t ops[kNumOps] = {};
  };
  // Per-partition scan-conflict aggregation across workers (the entry universe is tiny:
  // each worker's scan table holds at most 64 stripes, so linear search suffices).
  struct ScanAgg {
    std::uint64_t table = 0;
    std::uint32_t partition = 0;
    std::uint64_t count = 0;
    std::uint64_t phantoms = 0;
    std::uint64_t ops[kNumOps] = {};
    std::vector<std::pair<Key, std::uint64_t>> votes;
  };
  std::unordered_map<Record*, Agg> agg;
  std::vector<ScanAgg> sagg;
  std::uint64_t total = 0;
  if (!opts_.manual_split_only) {
    for (Worker* w : workers_) {
      ConflictSampler& s = Ext(*w).sampler;
      for (const ConflictSampler::ScanEntry& e : s.scan_entries()) {
        if (!e.used) {
          continue;
        }
        ScanAgg* a = nullptr;
        for (ScanAgg& sa : sagg) {
          if (sa.table == e.table && sa.partition == e.partition) {
            a = &sa;
            break;
          }
        }
        if (a == nullptr) {
          sagg.push_back(ScanAgg{});
          a = &sagg.back();
          a->table = e.table;
          a->partition = e.partition;
        }
        // Clamp to what this entry's own tallies account for (space-saving eviction
        // inheritance, same reasoning as the record table below).
        std::uint64_t tally_sum = e.phantoms;
        for (int i = 0; i < kNumOps; ++i) {
          a->ops[i] += e.op_counts[i];
          tally_sum += e.op_counts[i];
        }
        a->count += std::min<std::uint64_t>(e.count, tally_sum);
        a->phantoms += e.phantoms;
        if (e.has_hot && e.hot_votes > 0) {
          bool found = false;
          for (auto& [key, votes] : a->votes) {
            if (key == e.hot_key) {
              votes += e.hot_votes;
              found = true;
              break;
            }
          }
          if (!found) {
            a->votes.emplace_back(e.hot_key, e.hot_votes);
          }
        }
      }
      for (const ConflictSampler::Entry& e : s.entries()) {
        if (!e.used) {
          continue;
        }
        Record* r = store_.Find(e.key);
        if (r == nullptr) {
          continue;
        }
        Agg& a = agg[r];
        // Clamp to the op-tally sum: eviction inheritance (space-saving) can leave
        // e.count above what this key's own sampled ops account for. Counting the raw
        // value skewed min_splittable_fraction both ways — an inflated count made the
        // test refuse genuine heavy hitters, and attributing the inherited mass to an
        // op bucket instead would let a churn key that evicted a big victim qualify.
        std::uint64_t op_sum = 0;
        for (int i = 0; i < kNumOps; ++i) {
          a.ops[i] += e.op_counts[i];
          op_sum += e.op_counts[i];
        }
        const std::uint64_t counted = std::min<std::uint64_t>(e.count, op_sum);
        a.count += counted;
        total += counted;
      }
      s.Clear();
    }
  }

  struct Candidate {
    Record* record;
    OpCode op;
    std::uint64_t score;
  };
  std::vector<Candidate> cands;
  // Most-sampled splittable op in `ops`, plus the splittable mass; -1 if none.
  auto best_splittable_op = [](const std::uint64_t (&ops)[kNumOps],
                               std::uint64_t* splittable_sum) {
    std::uint64_t sum = 0;
    int best = -1;
    std::uint64_t best_count = 0;
    for (int i = 0; i < kNumOps; ++i) {
      if (!IsSplittable(static_cast<OpCode>(i))) {
        continue;
      }
      sum += ops[i];
      if (ops[i] > best_count) {
        best_count = ops[i];
        best = i;
      }
    }
    if (splittable_sum != nullptr) {
      *splittable_sum = sum;
    }
    return best;
  };
  // Inside an un-split suppression window (§5.5 damping)? Expired windows are erased.
  auto is_suppressed = [&](Record* r) {
    const auto it = suppressed_until_.find(r);
    if (it == suppressed_until_.end()) {
      return false;
    }
    if (cycle_ < it->second) {
      return true;
    }
    suppressed_until_.erase(it);
    return false;
  };
  for (const auto& [record, a] : agg) {
    std::uint64_t splittable = 0;
    const int best = best_splittable_op(a.ops, &splittable);
    if (best < 0 || a.ops[best] == 0) {
      continue;  // contended, but only on unsplittable operations
    }
    if (a.count < c.min_conflicts ||
        static_cast<double>(a.count) <
            c.split_conflict_fraction * static_cast<double>(total) ||
        static_cast<double>(splittable) <
            c.min_splittable_fraction * static_cast<double>(a.count)) {
      continue;
    }
    if (is_suppressed(record)) {
      continue;
    }
    cands.push_back(Candidate{record, static_cast<OpCode>(best), a.count});
  }
  // Scan-window votes: a contended partition whose conflicts concentrate on one interior
  // record nominates that record for splitting on its winning writers' operation. This
  // is the signal record-level sampling cannot produce — scanners losing validation
  // charge kGet, so min_splittable_fraction would keep a scan-contended record
  // reconciled forever.
  for (const ScanAgg& a : sagg) {
    if (a.count < c.min_scan_conflicts) {
      continue;
    }
    const std::pair<Key, std::uint64_t>* top = nullptr;
    for (const auto& kv : a.votes) {
      if (top == nullptr || kv.second > top->second) {
        top = &kv;
      }
    }
    if (top == nullptr ||
        static_cast<double>(top->second) <
            c.scan_vote_fraction * static_cast<double>(a.count)) {
      continue;
    }
    Record* r = store_.Find(top->first);
    if (r == nullptr) {
      continue;
    }
    // Split on the voted record's own last committed write op — not the partition-wide
    // op aggregate, which can carry a different record's writers (splitting X on Y's op
    // would stash every one of X's writers for up to a phase each).
    const OpCode op = static_cast<OpCode>(r->last_write_op());
    if (!IsSplittable(op)) {
      continue;  // phantoms only, or unsplittable writers: narrowing territory instead
    }
    if (is_suppressed(r)) {
      continue;
    }
    cands.push_back(Candidate{r, op, a.count});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

  auto plan = std::make_unique<SplitPlan>();
  plan->version = cycle_;
  auto add = [&](Record* r, OpCode op) {
    if (r->IsSplit() ||
        plan->entries.size() >= static_cast<std::size_t>(c.max_split_records)) {
      return;
    }
    plan->entries.emplace_back(r, op, r->topk_k());
    r->MarkSplit(static_cast<std::uint8_t>(op),
                 static_cast<std::int32_t>(plan->entries.size() - 1));
  };
  for (const Labeled& m : manual_) {
    add(m.record, m.op);
  }
  for (const Labeled& rt : retained_) {
    add(rt.record, rt.op);
    // The cross-phase pin taken at BarrierAfterReconcile has done its job: the record
    // is now either split-marked (sweeper-exempt) or dropped from the plan (no pointer
    // outlives this loop). Workers — including the sweeping one — are parked at this
    // barrier, so the pin transition cannot race a sweep.
    rt.record->Unpin();
  }
  for (const Candidate& cand : cands) {
    add(cand.record, cand.op);
  }
  retained_.clear();
  // Stats gauge; racy readers by contract.
  last_plan_size_.store(plan->size(), std::memory_order_relaxed);
  {
    plan_snapshot_mu_.lock();
    plan_snapshot_.clear();
    for (const SplitEntry& e : plan->entries) {
      plan_snapshot_.emplace_back(e.record->key(), e.op);
    }
    plan_snapshot_mu_.unlock();
  }
  plan_ = std::move(plan);

  // Gauge reset at the barrier (workers quiesced; no ordering needed).
  stash_pressure_.store(0, std::memory_order_relaxed);
  split_start_commits_ = SampleCommits();

  // Workers are still quiesced at this barrier: the only moment adaptive boundary
  // narrowing (which re-bins keys under the partition lock set) is race-free.
  TuneAdaptiveTables();
}

// ---- Adaptive index partitioning ------------------------------------------------------

DoppelEngine::TuneDeltas DoppelEngine::ComputeTuneDeltas(
    const OrderedIndex::TableIndex& t) {
  TuneDeltas d;
  // Barrier-time telemetry reads (workers quiesced, every counter author parked):
  // the barrier handshake orders them, relaxed suffices.
  for (std::size_t i = 0; i < t.partitions.size(); ++i) {
    const std::uint64_t ins = t.partitions[i].inserts.load(std::memory_order_relaxed);
    const std::uint64_t delta = ins - t.tune_insert_marks[i];
    d.inserts += delta;
    d.hot_inserts = std::max(d.hot_inserts, delta);
    d.conflict_total += t.partitions[i].scan_conflicts.load(std::memory_order_relaxed);
  }
  d.conflicts = d.conflict_total - t.tune_conflict_mark;
  return d;
}

unsigned DoppelEngine::NarrowTargetShift(const OrderedIndex::TableIndex& t) {
  // Spread [0, 2 * max_key] over the table's stripe capacity. The doubling is growth
  // headroom: narrowing is irreversible (no widening), so an append-style table whose
  // ids keep climbing must be able to at least double before new keys start clamping
  // into the last stripe and re-serializing there.
  const std::uint64_t max_key = t.max_key.load(std::memory_order_relaxed);
  const unsigned log2_cap =
      static_cast<unsigned>(std::bit_width(t.partitions.size()) - 1);
  const unsigned need = static_cast<unsigned>(std::bit_width(max_key)) + 1;
  return need > log2_cap ? need - log2_cap : 0;
}

bool DoppelEngine::WouldNarrow(const OrderedIndex::TableIndex& t,
                               const TuneDeltas& d) const {
  if (t.partitions.size() < 2) {
    return false;  // NarrowTable would refuse; don't trigger useless quiesce barriers
  }
  const IndexTuneOptions& tu = opts_.index_tune;
  const bool insert_skew =
      d.inserts >= tu.min_inserts &&
      static_cast<double>(d.hot_inserts) >=
          tu.hot_stripe_fraction * static_cast<double>(d.inserts);
  const bool phantom_pressure = d.conflicts >= tu.scan_conflict_pressure;
  if (!insert_skew && !phantom_pressure) {
    return false;
  }
  // Barrier-time read (coordinator is the only shift writer); relaxed suffices.
  return NarrowTargetShift(t) < t.shift.load(std::memory_order_relaxed);
}

bool DoppelEngine::IndexTunePending() {
  if (!opts_.index_tune.adaptive_enabled) {
    return false;
  }
  bool pending = false;
  store_.index().ForEachTable([&](OrderedIndex::TableIndex& t) {
    if (!pending && t.adaptive) {
      pending = WouldNarrow(t, ComputeTuneDeltas(t));
    }
  });
  return pending;
}

void DoppelEngine::TuneAdaptiveTables() {
  if (!opts_.index_tune.adaptive_enabled) {
    return;
  }
  const IndexTuneOptions& tu = opts_.index_tune;
  store_.index().ForEachTable([&](OrderedIndex::TableIndex& t) {
    if (!t.adaptive) {
      return;
    }
    const TuneDeltas d = ComputeTuneDeltas(t);
    // Leave a trickle accumulating across barriers; evaluate (and start a fresh
    // interval) only once either telemetry stream has enough mass to mean something.
    if (d.inserts < tu.min_inserts && d.conflicts < tu.scan_conflict_pressure) {
      return;
    }
    if (WouldNarrow(t, d)) {
      store_.index().NarrowTable(t, NarrowTargetShift(t));
    }
    for (std::size_t i = 0; i < t.partitions.size(); ++i) {
      // Barrier-time telemetry mark (workers quiesced); relaxed suffices.
      t.tune_insert_marks[i] = t.partitions[i].inserts.load(std::memory_order_relaxed);
    }
    t.tune_conflict_mark = d.conflict_total;
  });
}

void DoppelEngine::BarrierAfterReconcile() {
  // Normally empty here (BarrierBuildPlan consumed-and-unpinned it); on a shutdown path
  // that skipped plan building, drop the stale pins so the balance stays exact.
  for (const Labeled& rt : retained_) {
    rt.record->Unpin();
  }
  retained_.clear();
  if (plan_ == nullptr) {
    return;
  }
  const ClassifierOptions& c = opts_.classifier;
  for (SplitEntry& e : plan_->entries) {
    // Barrier-time classifier reads (workers quiesced past their merges): the
    // barrier handshake orders them, relaxed suffices.
    const std::uint64_t writes = e.writes.load(std::memory_order_relaxed);
    const std::uint64_t stashes = e.stashes.load(std::memory_order_relaxed);
    const bool stash_heavy =
        static_cast<double>(stashes) > c.unsplit_stash_ratio * static_cast<double>(writes);
    if (writes >= c.min_split_writes && !stash_heavy) {
      // retained_ carries this pointer across the coming joined phase, during which the
      // record is no longer split-marked (ClearSplit below) and so would be fair game
      // for the epoch sweeper if its key were deleted. Pin before clearing the split
      // mark; BarrierBuildPlan unpins once the next plan is built. Workers are parked
      // at this barrier, so pin-before-clear cannot race a sweep.
      e.record->Pin();
      retained_.push_back(Labeled{e.record, e.op});
    } else if (stash_heavy && stashes > 0) {
      // Reads dominate: move the record back to reconciled and damp oscillation.
      suppressed_until_[e.record] = cycle_ + c.resplit_suppress_phases;
    }
    e.record->ClearSplit();
  }
  plan_.reset();
}

bool DoppelEngine::CheckpointDue() {
  if (wal_ == nullptr || wal_->failed()) {
    // Degraded (permanent WAL failure): a checkpoint could not update the manifest, so
    // stop asking for barriers on its behalf.
    return false;
  }
  // One checkpoint at a time: while the previous image is still being written, a
  // request (sticky flag) or an elapsed interval waits for a later barrier.
  if (wal_->checkpoint_in_flight()) {
    return false;
  }
  CheckpointStats persisted;
  if (wal_->TakeCheckpointResult(&persisted)) {
    if (persisted.ok()) {
      checkpoint_consecutive_failures_ = 0;
      checkpoint_backoff_until_ns_ = 0;
    } else {
      OnCheckpointFailed();
    }
  }
  // A failed checkpoint backs off before the next attempt (see OnCheckpointFailed);
  // until then, don't request barriers that would just retry into the same full disk.
  // Coordinator thread only — the plain reads are safe.
  if (NowNanos() < checkpoint_backoff_until_ns_) {
    return false;
  }
  // Sticky request flag; polled at barriers, no payload rides on it.
  if (checkpoint_requested_.load(std::memory_order_relaxed)) {
    return true;
  }
  if (opts_.checkpoint_interval_us == 0) {
    return false;
  }
  // First barrier after Start checkpoints immediately (last_checkpoint_ns_ == 0), then
  // the cadence applies.
  return last_checkpoint_ns_ == 0 ||
         NowNanos() - last_checkpoint_ns_ >= opts_.checkpoint_interval_us * 1000;
}

void DoppelEngine::OnCheckpointFailed() {
  // The checkpoint rolled back (tmp removed, manifest untouched, old checkpoint
  // live): retry at a later barrier with exponential backoff so a full disk isn't
  // hammered every interval. Re-arm the sticky request so the retry happens even
  // when the cadence alone wouldn't ask again.
  checkpoint_consecutive_failures_ =
      std::min<std::uint32_t>(checkpoint_consecutive_failures_ + 1, 6);
  const std::uint64_t base_ns =
      std::max<std::uint64_t>(opts_.checkpoint_interval_us * 1000, 100'000'000ull);
  checkpoint_backoff_until_ns_ =
      NowNanos() + (base_ns << (checkpoint_consecutive_failures_ - 1));
  // Sticky re-arm read only by this coordinator thread at the next barrier.
  checkpoint_requested_.store(true, std::memory_order_relaxed);
}

void DoppelEngine::BarrierMaybeCheckpoint() {
  if (!CheckpointDue()) {
    return;
  }
  // Flag consume at the barrier; no payload rides on it.
  checkpoint_requested_.store(false, std::memory_order_relaxed);
  CheckpointStats sealed;
  if (!wal_->BeginCheckpoint(&sealed)) {
    OnCheckpointFailed();
    return;
  }
  last_checkpoint_ns_ = NowNanos();
  // Parallel capture: publish the shard queue to the parked workers (they poll it in
  // MaybeTransition's release wait) and work it from here too. The seq_cst publish
  // also orders the workers' pre-ack record writes — which this thread acquired
  // through their acks — before their shard reads.
  CheckpointCapture capture(store_);
  capture_.store(&capture);
  capture.Work();
  std::uint32_t spins = 0;
  while (!capture.Done()) {
    if (++spins < 1024) {
      CpuRelax();
    } else {
      std::this_thread::yield();  // a helper was descheduled mid-shard
    }
  }
  // Unpublish, then wait out helpers that may still hold the pointer. Both sides are
  // seq_cst (store/load here, increment/load in HelpCheckpointCapture), so a helper
  // either sees null or is counted here.
  capture_.store(nullptr);
  while (capture_helpers_.load() != 0) {
    CpuRelax();
  }
  wal_->PersistCheckpointAsync(capture.TakeImage());
}

void DoppelEngine::HelpCheckpointCapture() {
  // Cheap peek on every wait-loop spin; the seq_cst protocol below decides.
  if (capture_.load(std::memory_order_relaxed) == nullptr) {
    return;
  }
  capture_helpers_.fetch_add(1);
  if (CheckpointCapture* capture = capture_.load()) {
    capture->Work();
  }
  capture_helpers_.fetch_sub(1);
}

bool DoppelEngine::ReplicationCutDue() const {
  return wal_ != nullptr && wal_->logging() &&
         (opts_.replication_cuts || wal_->retention_leases() > 0);
}

void DoppelEngine::BarrierEmitReplicationCut() {
  if (!ReplicationCutDue()) {
    return;
  }
  // Workers are parked at the barrier and their acks give happens-before, so plain
  // reads of each worker's TID clock see its final pre-barrier value; the max is the
  // newest committed TID the cut covers.
  std::uint64_t max_tid = 0;
  for (const Worker* w : workers_) {
    max_tid = std::max(max_tid, w->last_tid);
  }
  wal_->AppendCut(max_tid);
}

bool DoppelEngine::ShouldHurrySplitEnd() const {
  // Pressure-gauge peek; a slightly stale value just shifts the heuristic a tick.
  const std::uint64_t stashes = stash_pressure_.load(std::memory_order_relaxed);
  if (stashes >= opts_.stash_hard_limit) {
    return true;
  }
  if (stashes < 1000) {
    return false;
  }
  const std::uint64_t commits = SampleCommits() - split_start_commits_;
  return static_cast<double>(stashes) >
         opts_.hurry_stash_fraction * static_cast<double>(stashes + commits);
}

std::vector<std::pair<Key, OpCode>> DoppelEngine::LastPlanEntries() const {
  plan_snapshot_mu_.lock();
  std::vector<std::pair<Key, OpCode>> out = plan_snapshot_;
  plan_snapshot_mu_.unlock();
  return out;
}

std::uint64_t DoppelEngine::SampleCommits() const {
  std::uint64_t sum = 0;
  for (const Worker* w : workers_) {
    sum += w->shared_commits.Load();
  }
  return sum;
}

}  // namespace doppel
