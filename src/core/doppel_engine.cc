#include "src/core/doppel_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/dassert.h"

namespace doppel {
namespace {

// Classifier scan-window signal: a partition's sampled scan conflicts over one joined
// phase must reach this floor before the classifier acts on it, and one interior
// record must pin at least this share of them (the sampler's majority vote) to become
// a split candidate on its winning writers' operation — even if its own record-level
// conflicts are all reads (scanners losing validation charge kGet, which
// min_splittable_fraction would otherwise refuse forever).
constexpr std::uint64_t kMinScanConflicts = 8;
constexpr double kScanVoteFraction = 0.5;

// Split-phase feedback (§5.4): hurry the next joined phase once this many stashes
// accumulated, or once at least kHurryMinStashes stashes exceed this share of
// split-phase transactions (they are deferred work that only the next joined phase can
// retire).
constexpr std::uint64_t kStashHardLimit = std::uint64_t{1} << 16;
constexpr std::uint64_t kHurryMinStashes = 1000;
constexpr double kHurryStashFraction = 0.3;
// Joined-phase feedback: a split phase is clean when its stashes are at most this
// share of its transactions, and after a clean split phase with a carried plan the
// joined phase lasts phase_us / kJoinedFloorDivisor — long enough for the classifier's
// samplers to see a new hot key (§5.5), short enough that the plan runs most of the time.
constexpr double kCleanStashFraction = 0.01;
constexpr std::uint64_t kJoinedFloorDivisor = 10;

}  // namespace

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

DoppelEngine::DoppelEngine(Store& store, const Options& opts)
    : OccEngine(store), opts_(opts) {}

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

// ---- Barrier hooks (§5.4) -------------------------------------------------------------

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
    // Consume the slice so the merge is idempotent. A transition can re-enter after its
    // early stop return (which acks but leaves the seen word stale); without this, the
    // re-entered transition re-merged the same accumulator and double-applied
    // kAdd/kMult deltas (and double-counted the write/stash samples) at shutdown.
    s.dirty = false;
    s.writes = 0;
    s.stashes = 0;
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
    if (a.count < kMinScanConflicts) {
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
            kScanVoteFraction * static_cast<double>(a.count)) {
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

bool DoppelEngine::ShouldHurrySplitEnd(FunctionRef<std::uint64_t()> split_commits) const {
  // Pressure-gauge peek; a slightly stale value just shifts the heuristic a tick.
  const std::uint64_t stashes = stash_pressure_.load(std::memory_order_relaxed);
  if (stashes >= kStashHardLimit) {
    return true;
  }
  if (stashes < kHurryMinStashes) {
    return false;
  }
  return static_cast<double>(stashes) >
         kHurryStashFraction * static_cast<double>(stashes + split_commits());
}

std::uint64_t DoppelEngine::NextJoinedPhaseNs(std::uint64_t phase_ns,
                                              std::uint64_t split_commits) const {
  // Barrier-time gauge read (workers parked); relaxed suffices.
  const std::uint64_t stashes = stash_pressure_.load(std::memory_order_relaxed);
  const bool clean = static_cast<double>(stashes) <=
                     kCleanStashFraction * static_cast<double>(stashes + split_commits);
  const bool carries_plan = !manual_.empty() || !retained_.empty();
  return clean && carries_plan ? phase_ns / kJoinedFloorDivisor : phase_ns;
}

std::vector<std::pair<Key, OpCode>> DoppelEngine::LastPlanEntries() const {
  plan_snapshot_mu_.lock();
  std::vector<std::pair<Key, OpCode>> out = plan_snapshot_;
  plan_snapshot_mu_.unlock();
  return out;
}

}  // namespace doppel
