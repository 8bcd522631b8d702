// Phase reconciliation (§4-5): the paper's contribution.
//
// DoppelEngine layers phases on top of the Silo OCC protocol it inherits:
//  * joined phase — every access is plain OCC (OccEngine), while commit-time conflicts
//    feed the per-worker conflict samplers (§5.5);
//  * split phase — accesses to split records either accumulate into the worker's per-core
//    slice (the record's selected operation) or stash the transaction (anything else,
//    including all reads); everything else is still OCC;
//  * reconciliation — while acknowledging the SPLIT -> JOINED transition each worker
//    merges its dirty slices into the global store (Fig. 4) and reports write/stash
//    samples that drive un-split decisions.
//
// The coordinator thread (src/core/coordinator.h) owns the phase clock and runs the
// classifier at the two barriers via BarrierBuildPlan / BarrierAfterReconcile.
#ifndef DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_
#define DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/options.h"
#include "src/core/phase_controller.h"
#include "src/core/runner.h"
#include "src/core/sampler.h"
#include "src/core/slice.h"
#include "src/core/split_plan.h"
#include "src/txn/occ_engine.h"

namespace doppel {

class DoppelEngine : public OccEngine {
 public:
  DoppelEngine(Store& store, const Options& opts, const std::atomic<bool>& stop);

  const char* name() const override { return "doppel"; }

  // Must be called once, before any worker runs; installs per-worker Doppel state.
  void RegisterWorkers(const std::vector<std::unique_ptr<Worker>>& workers);

  // Optional redo log used when draining stashed transactions (must match Database's).
  // Also the checkpoint target: the coordinator snapshots the store into it at
  // joined-phase quiesce barriers.
  void SetWal(WriteAheadLog* wal) {
    runner_cfg_.wal = wal;
    wal_ = wal;
  }

  // Database's degraded latch, so drained stashes honor read-only mode like every
  // other RunPendingTxn site (must match Database's runner config).
  void SetDegradedFlag(const std::atomic<bool>* degraded) {
    runner_cfg_.degraded = degraded;
  }

  // ---- Engine interface ----
  void Read(Worker& w, Txn& txn, Record* r, ReadResult* out) override;
  void Write(Worker& w, Txn& txn, PendingWrite&& pw) override;
  // Joined phase: plain OCC scan. Split phase: a scan whose window contains a split
  // record dooms the transaction for stashing (§7) — the stash feeds the same pressure
  // signal (ShouldHurrySplitEnd) as split-record point reads.
  std::size_t Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                   std::uint64_t hi, std::size_t limit, ScanFn fn) override;
  TxnStatus Commit(Worker& w, Txn& txn) override;
  void BetweenTxns(Worker& w) override;
  Phase CurrentPhase(const Worker& w) const override { return w.LoadPhase(); }
  void OnConflict(Worker& w, Txn& txn) override;
  void OnStash(Worker& w, const StashSignal& s) override;

  // ---- Manual data labeling (§5.5): always split `key` for `op` ----
  void MarkSplitManually(const Key& key, OpCode op, std::size_t topk_k = TopKSet::kDefaultK);

  // ---- Coordinator interface ----
  PhaseController& controller() { return ctrl_; }
  // Racy peek between barriers: is a split phase worth starting?
  bool HasSplitCandidates() const;
  // At the JOINED -> SPLIT barrier (workers quiesced): classify, build + publish the plan.
  void BarrierBuildPlan();
  // At the SPLIT -> JOINED barrier (all slices merged): retention / un-split decisions.
  void BarrierAfterReconcile();
  // Racy peek between barriers: would TuneAdaptiveTables narrow any adaptive table's
  // boundaries right now? Lets the coordinator run a tune-only quiesce barrier for
  // insert-heavy tables that never produce split candidates.
  bool IndexTunePending();
  // At any quiesce barrier (workers acked, not yet released): adaptive narrowing.
  // BarrierBuildPlan runs it too; this entry point serves tune-only barriers.
  void BarrierTuneIndexes() { TuneAdaptiveTables(); }
  // Peek between barriers (coordinator thread): is a checkpoint due (interval elapsed
  // or explicitly requested)? Lets the coordinator run a checkpoint-only quiesce
  // barrier when no split candidates exist. Never while the previous checkpoint is
  // still persisting — a request then stays pending for a later barrier. Collects the
  // previous persist's outcome, arming the retry backoff if it failed.
  bool CheckpointDue();
  // At a joined-phase quiesce barrier (slices merged, workers acked, not yet
  // released): if a checkpoint is due, seal the log and capture the store — sharded
  // across the coordinator and the parked workers — then hand the image to the WAL's
  // flusher to persist after the barrier is released. The barrier is the free
  // consistency point phase reconciliation gives us — the store holds exactly the
  // committed prefix, and every commit's redo entry is already in the WAL buffers.
  void BarrierMaybeCheckpoint();
  // Racy peek between barriers: should joined-phase barriers emit replication cuts?
  // True while logging and either Options::replication_cuts forces it or a replica
  // holds a retention lease. Like CheckpointDue, lets the coordinator run a cut-only
  // quiesce barrier on an uncontended system (which otherwise skips barriers
  // entirely — and a replica would never see a publishable cut).
  bool ReplicationCutDue() const;
  // At a joined-phase quiesce barrier (slices merged, workers acked, not yet
  // released): append a replication-cut record at the max committed TID. Runs before
  // BarrierMaybeCheckpoint at the same sites, so a checkpoint's sealed log ends at the
  // cut and a bootstrapping replica starts cut-aligned.
  void BarrierEmitReplicationCut();
  // Marks a checkpoint due at the next quiesce barrier (Database::RequestCheckpoint).
  void RequestCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_relaxed);
  }
  // Split-phase feedback (§5.4): too many stashes => hurry the next joined phase.
  bool ShouldHurrySplitEnd() const;
  void WaitForWorkerAcks() const;  // spins until every worker acked `pending`

  // ---- Introspection (tests, reports) ----
  std::size_t LastPlanSize() const { return last_plan_size_.load(std::memory_order_relaxed); }
  // Snapshot of the most recent split plan: (key, selected op). Thread-safe.
  std::vector<std::pair<Key, OpCode>> LastPlanEntries() const;
  std::uint64_t cycles() const { return cycle_; }
  std::uint64_t stash_pressure() const {
    return stash_pressure_.load(std::memory_order_relaxed);
  }

 private:
  struct DoppelWorkerState : WorkerExt {
    explicit DoppelWorkerState(const ClassifierOptions& c) : sampler(c.sample_every) {}
    std::vector<Slice> slices;
    ConflictSampler sampler;
  };

  static DoppelWorkerState& Ext(Worker& w) {
    return static_cast<DoppelWorkerState&>(*w.ext);
  }

  // Worker-side transition protocol (§5.4), called between transactions.
  void MaybeTransition(Worker& w);
  void MergeWorkerSlices(Worker& w);  // reconciliation, Fig. 4
  void DrainStash(Worker& w);         // restart stashed txns before acking a split phase
  void PrepareSlices(Worker& w);      // size + reset slices from the published plan
  // Parked at a barrier: encode shards of a checkpoint capture, if one is published.
  void HelpCheckpointCapture();
  // A checkpoint failed (seal or persist): back off, and re-arm the request.
  void OnCheckpointFailed();

  // ---- Adaptive index partitioning (coordinator thread, barriers only) ----
  // Telemetry deltas for one table since its last tuning evaluation.
  struct TuneDeltas {
    std::uint64_t inserts = 0;        // new structural inserts across all stripes
    std::uint64_t hot_inserts = 0;    // ... the busiest single stripe's share of them
    std::uint64_t conflicts = 0;      // new scan conflicts across all stripes
    std::uint64_t conflict_total = 0; // cumulative (the next interval's mark)
  };
  static TuneDeltas ComputeTuneDeltas(const OrderedIndex::TableIndex& t);
  // Spread [0, max_key] over the table's stripe capacity.
  static unsigned NarrowTargetShift(const OrderedIndex::TableIndex& t);
  bool WouldNarrow(const OrderedIndex::TableIndex& t, const TuneDeltas& d) const;
  void TuneAdaptiveTables();

  std::uint64_t SampleCommits() const;

  Options opts_;
  RunnerConfig runner_cfg_;
  WriteAheadLog* wal_ = nullptr;
  std::atomic<bool> checkpoint_requested_{false};
  std::uint64_t last_checkpoint_ns_ = 0;  // coordinator thread only (barriers)
  // Checkpoint-failure retry state (coordinator thread only, like last_checkpoint_ns_):
  // after a rolled-back checkpoint, no retry before backoff_until, doubling per
  // consecutive failure up to 2^5 x the base interval.
  std::uint64_t checkpoint_backoff_until_ns_ = 0;
  std::uint32_t checkpoint_consecutive_failures_ = 0;
  // The capture in progress at the current barrier (null otherwise), and how many
  // parked workers are inside HelpCheckpointCapture: the coordinator unpublishes the
  // capture and waits for the count to drain before the capture goes out of scope.
  std::atomic<CheckpointCapture*> capture_{nullptr};
  std::atomic<int> capture_helpers_{0};
  const std::atomic<bool>& stop_;
  PhaseController ctrl_;
  std::vector<Worker*> workers_;

  // Valid from BarrierBuildPlan until BarrierAfterReconcile; workers read it only inside
  // the split phase those barriers bracket.
  std::unique_ptr<SplitPlan> plan_;
  std::atomic<std::size_t> last_plan_size_{0};
  mutable Spinlock plan_snapshot_mu_;
  std::vector<std::pair<Key, OpCode>> plan_snapshot_ GUARDED_BY(plan_snapshot_mu_);

  // Classifier cross-cycle state (coordinator thread only).
  struct Labeled {
    Record* record;
    OpCode op;
  };
  std::vector<Labeled> manual_;
  std::vector<Labeled> retained_;
  std::unordered_map<Record*, std::uint64_t> suppressed_until_;
  std::uint64_t cycle_ = 0;

  // Split-phase feedback.
  std::atomic<std::uint64_t> stash_pressure_{0};
  std::uint64_t split_start_commits_ = 0;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_
