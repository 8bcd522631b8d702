#include "src/core/coordinator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/timing.h"
#include "src/core/database.h"

namespace doppel {
namespace {

constexpr std::uint64_t kPollChunkNs = 200 * 1000;  // 200us stop/feedback polling

// Joined-phase sleeps poll more coarsely: the only signal they react to is stop,
// so the 200us cadence buys nothing — and on machines with as many workers as
// cores every coordinator wakeup preempts a worker mid-transaction (measurable
// on the 1-vCPU perf class). Split phases keep the fine cadence because drain
// and the stash-pressure hurry signal live there.
constexpr std::uint64_t kJoinedPollChunkNs = 1000 * 1000;  // 1ms stop polling

// Narrow an adaptive table when one stripe absorbed at least this share of the
// interval's inserts.
constexpr double kHotStripeFraction = 0.5;

// ---- Adaptive index partitioning (coordinator thread, barriers only) ----

// Telemetry deltas for one table since its last tuning evaluation.
struct TuneDeltas {
  std::uint64_t inserts = 0;        // new structural inserts across all stripes
  std::uint64_t hot_inserts = 0;    // ... the busiest single stripe's share of them
  std::uint64_t conflicts = 0;      // new scan conflicts across all stripes
  std::uint64_t conflict_total = 0; // cumulative (the next interval's mark)
};

TuneDeltas ComputeTuneDeltas(const OrderedIndex::TableIndex& t) {
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

unsigned NarrowTargetShift(const OrderedIndex::TableIndex& t) {
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

bool WouldNarrow(const OrderedIndex::TableIndex& t, const TuneDeltas& d,
                 const IndexTuneOptions& tu) {
  if (t.partitions.size() < 2) {
    return false;  // NarrowTable would refuse; don't trigger useless quiesce barriers
  }
  const bool insert_skew =
      d.inserts >= tu.min_inserts &&
      static_cast<double>(d.hot_inserts) >=
          kHotStripeFraction * static_cast<double>(d.inserts);
  const bool phantom_pressure = d.conflicts >= tu.scan_conflict_pressure;
  if (!insert_skew && !phantom_pressure) {
    return false;
  }
  // Barrier-time read (coordinator is the only shift writer); relaxed suffices.
  return NarrowTargetShift(t) < t.shift.load(std::memory_order_relaxed);
}

}  // namespace

bool IndexTunePending(Store& store, const IndexTuneOptions& tune) {
  bool pending = false;
  store.index().ForEachTable([&](OrderedIndex::TableIndex& t) {
    if (!pending && t.adaptive) {
      pending = WouldNarrow(t, ComputeTuneDeltas(t), tune);
    }
  });
  return pending;
}

void TuneAdaptiveTables(Store& store, const IndexTuneOptions& tune) {
  store.index().ForEachTable([&](OrderedIndex::TableIndex& t) {
    if (!t.adaptive) {
      return;
    }
    const TuneDeltas d = ComputeTuneDeltas(t);
    // Leave a trickle accumulating across barriers; evaluate (and start a fresh
    // interval) only once either telemetry stream has enough mass to mean something.
    if (d.inserts < tune.min_inserts && d.conflicts < tune.scan_conflict_pressure) {
      return;
    }
    if (WouldNarrow(t, d, tune)) {
      store.index().NarrowTable(t, NarrowTargetShift(t));
    }
    for (std::size_t i = 0; i < t.partitions.size(); ++i) {
      // Barrier-time telemetry mark (workers quiesced); relaxed suffices.
      t.tune_insert_marks[i] = t.partitions[i].inserts.load(std::memory_order_relaxed);
    }
    t.tune_conflict_mark = d.conflict_total;
  });
}

// ---- The coordinator thread ----------------------------------------------------------

void Coordinator::SleepJoined(std::uint64_t ns) const {
  // No drain check here: a draining database *wants* to sit in the joined phase (that is
  // where workers retire stashed transactions), so only stop cuts this sleep short.
  const std::uint64_t deadline = NowNanos() + ns;
  while (!db_.stop_coord_.load(std::memory_order_relaxed)) {
    const std::uint64_t now = NowNanos();
    if (now >= deadline) {
      return;
    }
    const std::uint64_t chunk = std::min(deadline - now, kJoinedPollChunkNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
  }
}

void Coordinator::SleepSplit(std::uint64_t ns) const {
  const std::uint64_t deadline = NowNanos() + ns;
  // Relaxed flag polls: reacting a chunk late is fine, and the barrier protocol (not
  // these loads) provides all ordering for the transition that follows.
  while (!db_.stop_coord_.load(std::memory_order_relaxed) &&
         !db_.draining_.load(std::memory_order_relaxed)) {
    const std::uint64_t now = NowNanos();
    if (now >= deadline || db_.doppel_->ShouldHurrySplitEnd([this] {
          return db_.SampleTotalCommits() - split_start_commits_;
        })) {
      return;
    }
    const std::uint64_t chunk = std::min(deadline - now, kPollChunkNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
  }
}

void Coordinator::Run() {
  const std::uint64_t phase_ns = db_.opts_.phase_us * 1000;
  DoppelEngine* doppel = db_.doppel_;

  // Relaxed stop/drain polls throughout this loop: a transition observed one
  // iteration late is harmless, and the barriers order everything that matters.
  // Stage-time counters are stats (racy readers by contract).
  next_joined_ns_ = phase_ns;
  while (!db_.stop_coord_.load(std::memory_order_relaxed)) {
    const std::uint64_t t0 = NowNanos();
    // A joined phase lasts phase_us unless the split phase before it earned the floor
    // (DoppelEngine::NextJoinedPhaseNs); either way only this one.
    SleepJoined(std::exchange(next_joined_ns_, phase_ns));
    const std::uint64_t t1 = NowNanos();
    joined_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (db_.stop_coord_.load(std::memory_order_relaxed)) {
      break;
    }
    // "If, in a joined phase, no records appear contended ... the coordinator delays the
    // next split phase." While draining for Stop, never start one: a new split phase
    // could stash the very submissions Stop is waiting to retire. Without a split phase
    // the workers still quiesce when a joined-barrier duty is due — insert-heavy
    // adaptive tables rarely conflict, and a due checkpoint or cut needs a consistency
    // point on an uncontended system (or an engine without phases) too.
    const bool draining = db_.draining_.load(std::memory_order_relaxed);
    const bool split = doppel != nullptr && !draining && doppel->HasSplitCandidates();
    if (!split && (draining || !JoinedDutiesDue())) {
      continue;
    }

    std::uint64_t t3 = t1;
    if (split) {
      Barrier(Phase::kSplit);
      const std::uint64_t t2 = NowNanos();
      // Stage-time stats counter; racy readers by contract.
      to_split_barrier_ns_.fetch_add(t2 - t1, std::memory_order_relaxed);
      SleepSplit(phase_ns);
      t3 = NowNanos();
      // Stage-time stats counter; racy readers by contract.
      split_ns_.fetch_add(t3 - t2, std::memory_order_relaxed);
    }

    // After a split phase this runs even when stopping: every slice must reconcile
    // before shutdown so committed effects reach the global store.
    Barrier(Phase::kJoined);
    if (split) {
      // Stage-time / cycle stats counters; racy readers by contract.
      to_joined_barrier_ns_.fetch_add(NowNanos() - t3, std::memory_order_relaxed);
      cycles_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  db_.stop_workers_.store(true, std::memory_order_release);
}

void Coordinator::Barrier(Phase target) {
  QuiesceBarrier& barrier = *db_.barrier_;
  const bool leaving_split = barrier.CurrentReleasedPhase() == Phase::kSplit;
  barrier.BeginTransition(target);
  barrier.WaitForAcks();
  if (target == Phase::kSplit) {
    db_.doppel_->BarrierBuildPlan();
    split_start_commits_ = db_.SampleTotalCommits();
  } else {
    if (leaving_split) {
      db_.doppel_->BarrierAfterReconcile();
      // Sampled with the workers parked, so the count covers exactly the split phase.
      next_joined_ns_ = db_.doppel_->NextJoinedPhaseNs(
          db_.opts_.phase_us * 1000, db_.SampleTotalCommits() - split_start_commits_);
    }
    // Workers are parked and every slice is merged: the joined-phase barrier is a free
    // transaction-consistent point. Skipped while draining — Stop is waiting on
    // in-flight submissions and a snapshot would only stretch that wait.
    if (!db_.draining_.load(std::memory_order_relaxed)) {
      TuneAdaptiveTables(db_.store_, db_.opts_.index_tune);
      EmitReplicationCut();
      MaybeCheckpoint();
    }
  }
  barrier.Release();
}

bool Coordinator::JoinedDutiesDue() {
  return IndexTunePending(db_.store_, db_.opts_.index_tune) || CheckpointDue() ||
         ReplicationCutDue();
}

// ---- Checkpoints ---------------------------------------------------------------------

bool Coordinator::CheckpointDue() {
  WriteAheadLog* wal = db_.wal_.get();
  if (wal == nullptr || wal->failed()) {
    // Degraded (permanent WAL failure): a checkpoint could not update the manifest, so
    // stop asking for barriers on its behalf.
    return false;
  }
  // One checkpoint at a time: while the previous image is still being written, a
  // request (sticky flag) or an elapsed interval waits for a later barrier.
  if (wal->checkpoint_in_flight()) {
    return false;
  }
  CheckpointStats persisted;
  if (wal->TakeCheckpointResult(&persisted)) {
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
  const std::uint64_t interval_us = db_.opts_.checkpoint_interval_us;
  if (interval_us == 0) {
    return false;
  }
  // First barrier after Start checkpoints immediately (last_checkpoint_ns_ == 0), then
  // the cadence applies.
  return last_checkpoint_ns_ == 0 ||
         NowNanos() - last_checkpoint_ns_ >= interval_us * 1000;
}

void Coordinator::OnCheckpointFailed() {
  // The checkpoint rolled back (tmp removed, manifest untouched, old checkpoint
  // live): retry at a later barrier with exponential backoff so a full disk isn't
  // hammered every interval. Re-arm the sticky request so the retry happens even
  // when the cadence alone wouldn't ask again.
  checkpoint_consecutive_failures_ =
      std::min<std::uint32_t>(checkpoint_consecutive_failures_ + 1, 6);
  const std::uint64_t base_ns =
      std::max<std::uint64_t>(db_.opts_.checkpoint_interval_us * 1000, 100'000'000ull);
  checkpoint_backoff_until_ns_ =
      NowNanos() + (base_ns << (checkpoint_consecutive_failures_ - 1));
  // Sticky re-arm read only by this coordinator thread at the next barrier.
  checkpoint_requested_.store(true, std::memory_order_relaxed);
}

void Coordinator::MaybeCheckpoint() {
  if (!CheckpointDue()) {
    return;
  }
  // Flag consume at the barrier; no payload rides on it.
  checkpoint_requested_.store(false, std::memory_order_relaxed);
  CheckpointStats sealed;
  if (!db_.wal_->BeginCheckpoint(&sealed)) {
    OnCheckpointFailed();
    return;
  }
  last_checkpoint_ns_ = NowNanos();
  CheckpointCapture capture(db_.store_);
  db_.barrier_->Capture(capture);
  db_.wal_->PersistCheckpointAsync(capture.TakeImage());
}

// ---- Replication cuts ----------------------------------------------------------------

bool Coordinator::ReplicationCutDue() const {
  const WriteAheadLog* wal = db_.wal_.get();
  return wal != nullptr && wal->logging() &&
         (db_.opts_.replication_cuts || wal->retention_leases() > 0);
}

void Coordinator::EmitReplicationCut() {
  if (!ReplicationCutDue()) {
    return;
  }
  // Workers are parked at the barrier and their acks give happens-before, so plain
  // reads of each worker's TID clock see its final pre-barrier value; the max is the
  // newest committed TID the cut covers.
  db_.wal_->AppendCut(db_.MaxCommittedTid());
}

}  // namespace doppel
