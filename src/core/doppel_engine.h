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
// classifier at the two barriers via BarrierBuildPlan / BarrierAfterReconcile; the
// quiesce barrier (src/core/quiesce.h) calls the per-worker hooks MergeWorkerSlices and
// PrepareSlices.
#ifndef DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_
#define DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/function_ref.h"
#include "src/core/options.h"
#include "src/core/sampler.h"
#include "src/core/slice.h"
#include "src/core/split_plan.h"
#include "src/txn/occ_engine.h"

namespace doppel {

class DoppelEngine : public OccEngine {
 public:
  DoppelEngine(Store& store, const Options& opts);

  const char* name() const override { return "doppel"; }

  // Must be called once, before any worker runs; installs per-worker Doppel state.
  void RegisterWorkers(const std::vector<std::unique_ptr<Worker>>& workers);

  // ---- Engine interface ----
  void Read(Worker& w, Txn& txn, Record* r, ReadResult* out) override;
  void Write(Worker& w, Txn& txn, PendingWrite&& pw) override;
  // Joined phase: plain OCC scan. Split phase: a scan whose window contains a split
  // record dooms the transaction for stashing (§7) — the stash feeds the same pressure
  // signal (ShouldHurrySplitEnd) as split-record point reads.
  std::size_t Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                   std::uint64_t hi, std::size_t limit, ScanFn fn) override;
  TxnStatus Commit(Worker& w, Txn& txn) override;
  void OnConflict(Worker& w, Txn& txn) override;
  void OnStash(Worker& w, const StashSignal& s) override;

  // ---- Manual data labeling (§5.5): always split `key` for `op` ----
  void MarkSplitManually(const Key& key, OpCode op, std::size_t topk_k = TopKSet::kDefaultK);

  // ---- Coordinator interface ----
  // Racy peek between barriers: is a split phase worth starting?
  bool HasSplitCandidates() const;
  // At the JOINED -> SPLIT barrier (workers quiesced): classify, build + publish the plan.
  void BarrierBuildPlan();
  // At the SPLIT -> JOINED barrier (all slices merged): retention / un-split decisions.
  void BarrierAfterReconcile();
  // Split-phase feedback (§5.4): too many stashes among the transactions committed
  // since the split phase began (`split_commits`, sampled only when the stash count
  // makes it matter) => hurry the next joined phase.
  bool ShouldHurrySplitEnd(FunctionRef<std::uint64_t()> split_commits) const;
  // Joined-phase feedback, at the SPLIT -> JOINED barrier after BarrierAfterReconcile
  // (before the next BarrierBuildPlan resets the stash gauge): the length of the coming
  // joined phase. A clean split phase — stashes at most a small share of its
  // transactions (`split_commits` committed) — whose plan carries into the next cycle
  // (manual labels or retained records) earns only a floor of `phase_ns`: nothing
  // waits for joined time, and the split phase is where the contended records scale.
  // Otherwise the full `phase_ns`, so stashed work retires and the classifier samples.
  std::uint64_t NextJoinedPhaseNs(std::uint64_t phase_ns,
                                  std::uint64_t split_commits) const;

  // ---- Barrier hooks (the worker's own thread, inside its transition) ----
  // Leaving a split phase: reconcile this worker's slices (Fig. 4). Idempotent.
  void MergeWorkerSlices(Worker& w);
  // Entering a split phase: size + reset slices from the published plan.
  void PrepareSlices(Worker& w);

  // ---- Introspection (tests, reports) ----
  std::size_t LastPlanSize() const { return last_plan_size_.load(std::memory_order_relaxed); }
  // Snapshot of the most recent split plan: (key, selected op). Thread-safe.
  std::vector<std::pair<Key, OpCode>> LastPlanEntries() const;
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

  Options opts_;
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
};

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_DOPPEL_ENGINE_H_
