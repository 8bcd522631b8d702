// The public facade: a Doppel database instance.
//
// Transactions are submitted asynchronously: Submit hands the transaction to one of the
// per-worker MPSC inboxes (round-robin) and immediately returns a TxnHandle — a
// lightweight future that can be waited on (Wait/TryGet) or given a completion callback
// (OnComplete, invoked on the committing worker's thread). SubmitBatch amortises cursor
// traffic across a whole batch, and TrySubmit exposes backpressure: when every inbox is
// full it returns SubmitStatus::kQueueFull instead of queueing unboundedly, so open-loop
// clients see overload instead of hiding it in memory.
//
//   doppel::Options opts;
//   opts.protocol = doppel::Protocol::kDoppel;
//   doppel::Database db(opts);
//   db.store().LoadInt(doppel::Key::FromU64(1), 0);
//   db.Start();
//
//   // Asynchronous: pipeline many transactions, then wait.
//   std::vector<doppel::TxnHandle> handles;
//   for (int i = 0; i < 1000; ++i) {
//     handles.push_back(db.Submit([](doppel::Txn& txn) {
//       txn.Add(doppel::Key::FromU64(1), 1);
//     }));
//   }
//   for (auto& h : handles) h.Wait();
//
//   // Synchronous convenience (Submit + Wait):
//   db.Execute([](doppel::Txn& txn) { txn.Add(doppel::Key::FromU64(1), 1); });
//   db.Stop();  // drains in-flight submissions before joining workers
//
// See examples/quickstart.cpp and examples/async_pipeline.cpp. Benchmarks instead attach
// a per-worker TxnSource: each worker generates transactions as if it were a client and
// executes them closed-loop (§8.1); the open-loop driver (src/workload/driver.h) uses
// Submit from external threads at a paced offered load.
#ifndef DOPPEL_SRC_CORE_DATABASE_H_
#define DOPPEL_SRC_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/core/coordinator.h"
#include "src/core/doppel_engine.h"
#include "src/core/inbox.h"
#include "src/core/options.h"
#include "src/core/quiesce.h"
#include "src/core/runner.h"
#include "src/persist/wal.h"
#include "src/store/epoch.h"
#include "src/store/store.h"
#include "src/txn/engine.h"

namespace doppel {

// Per-worker transaction generator (closed-loop client). Next() is called on the worker's
// own thread; it should fill args.tag and may use w.rng.
class TxnSource {
 public:
  virtual ~TxnSource() = default;
  virtual TxnRequest Next(Worker& w) = 0;
};

using SourceFactory = std::function<std::unique_ptr<TxnSource>(int worker_id)>;

// Future for one submitted transaction. Cheap to copy (one shared_ptr); thread-safe.
class TxnHandle {
 public:
  TxnHandle() = default;

  bool valid() const { return ticket_ != nullptr; }
  // True once the transaction reached a terminal state (committed or user-aborted).
  bool done() const;
  // Blocks until terminal (parks on an atomic wait, no spinning).
  TxnResult Wait() const;
  // Non-blocking: fills *out and returns true iff already terminal.
  bool TryGet(TxnResult* out) const;
  // Registers `cb` to run exactly once with the terminal result. If the transaction is
  // still in flight the callback runs on the worker thread that finishes it (it must not
  // block); if it already finished, `cb` runs inline on the calling thread. At most one
  // callback per handle.
  void OnComplete(std::function<void(const TxnResult&)> cb);

 private:
  friend class Database;
  explicit TxnHandle(std::shared_ptr<SubmitTicket> t) : ticket_(std::move(t)) {}

  std::shared_ptr<SubmitTicket> ticket_;
};

enum class SubmitStatus {
  kOk = 0,
  kQueueFull,  // every worker inbox is at capacity; retry later (backpressure)
  kStopped,    // Stop() has begun; no new submissions are accepted
  kReadOnly,   // permanent WAL failure: only read_only submissions are accepted
};

// Snapshot of the durability state (see Database::durability_health). `op` names the
// syscall whose permanent failure tripped the latch (static string, never null).
struct DurabilityHealth {
  bool degraded = false;
  int error = 0;  // errno of the first permanent failure (0 while healthy)
  const char* op = "";
};

class Database {
 public:
  explicit Database(Options opts);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Options& options() const { return opts_; }
  Store& store() { return store_; }
  const Store& store() const { return store_; }
  Engine& engine() { return *engine_; }
  // Non-null iff options().protocol == kDoppel.
  DoppelEngine* doppel() { return doppel_; }
  const Coordinator* coordinator() const { return coordinator_.get(); }
  const QuiesceBarrier& barrier() const { return *barrier_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Manual data labeling (§5.5); Doppel only. Call before Start.
  void MarkSplitManually(const Key& key, OpCode op,
                         std::size_t topk_k = TopKSet::kDefaultK);

  // Spawns worker threads and the coordinator. `factory`, if provided, creates one
  // TxnSource per worker for closed-loop generation; each worker calls it on its own
  // thread, so it must be safe to call concurrently.
  //
  // When Options::wal_dir is set, Start first runs recovery: the directory's latest
  // checkpoint is loaded, live log segments are replayed in commit-TID order (work
  // partitioned by key stripe across up to four threads), ordered-index
  // partitions are rebuilt, and every worker's TID clock is seeded past the maximum
  // recovered TID — only then does logging resume on a fresh segment and do workers
  // spawn. Call pre-population loaders before Start: recovery overwrites any record the
  // durable state knows about, so reloading the same initial data is harmless.
  void Start(SourceFactory factory = nullptr);
  // Stops accepting submissions, drains every inbox and in-flight handle (stashed
  // transactions are replayed in a final joined phase), then joins all threads.
  // Idempotent.
  void Stop();
  bool started() const { return started_; }

  // ---- Asynchronous submission (thread-safe; requires Start() first) ----
  // Places `req` on a worker inbox (round-robin, with failover to the other inboxes) and
  // returns a handle. `req.args.submit_ns` is stamped at acceptance so reported latency
  // includes queueing delay; `req.on_complete`, if set, fires on the committing worker.
  // Blocks only when every inbox is full. If Stop() begins while blocked (or has already
  // begun), returns a handle that reports committed == false.
  TxnHandle Submit(TxnRequest req);
  // std::function convenience body (heap-allocates one ticket, like Execute always did).
  TxnHandle Submit(std::function<void(Txn&)> fn);
  // Non-blocking variant: kQueueFull leaves *handle invalid and the request unqueued.
  SubmitStatus TrySubmit(const TxnRequest& req, TxnHandle* handle);
  // Submits a batch with one cursor reservation: request i lands on inbox
  // (start + i) % num_workers, preserving submission order within each inbox. Blocks
  // until all requests are accepted; returns one handle per request, in order.
  std::vector<TxnHandle> SubmitBatch(std::span<const TxnRequest> reqs);

  // Synchronous wrapper: Submit(fn).Wait(). Blocks until the transaction commits
  // (internally retrying conflicts and stashes) or user-aborts.
  TxnResult Execute(std::function<void(Txn&)> fn);

  // ---- Metrics ----
  // Racy sum of per-worker commit counters; safe to call while running (Fig. 10 series).
  std::uint64_t SampleTotalCommits() const;
  // Racy count of accepted-but-unfinished external submissions.
  std::uint64_t InflightSubmissions() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::uint64_t committed = 0;
    std::uint64_t committed_split_phase = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t stash_events = 0;
    std::uint64_t user_aborts = 0;
    std::uint64_t type_mismatch_aborts = 0;
    std::uint64_t durability_aborts = 0;  // terminated by the degraded-mode gate
    std::uint64_t committed_by_tag[kNumTags] = {};
    LatencyHistogram latency_by_tag[kNumTags];
  };
  // Aggregated per-worker metrics; call after Stop() for exact values.
  Stats CollectStats() const;

  // Doppel introspection: split records in the most recent plan (0 otherwise).
  std::size_t LastPlanSize() const { return doppel_ ? doppel_->LastPlanSize() : 0; }

  // Epoch reclaimer introspection; nullptr when reclamation is off (Options::reclaim
  // disabled, or the Atomic protocol).
  const EpochReclaimer* reclaimer() const { return reclaimer_.get(); }

  // Non-null when Options::wal_dir is set.
  WriteAheadLog* wal() { return wal_.get(); }
  const WriteAheadLog* wal() const { return wal_.get(); }

  // True after a permanent WAL failure: the database is in read-only degraded mode.
  // One-way for the process lifetime. Reads keep committing and replicas keep tailing
  // whatever the log holds; writes bounce at submission (SubmitStatus::kReadOnly) and
  // in-flight writers terminate with TxnAbort::kDurabilityLost.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  // Degraded flag plus the first permanent failure's errno and operation name.
  DurabilityHealth durability_health() const;

  // What Start()'s recovery pass restored (all-zero when no wal_dir / recovery ran).
  const RecoveryResult& recovery() const { return recovery_; }

  // Asks the coordinator to take a consistent checkpoint at its next joined quiesce
  // barrier (in addition to any Options::checkpoint_interval_us cadence), under every
  // protocol. Returns false when there is nothing to checkpoint with (no WAL).
  bool RequestCheckpoint();

 private:
  friend class Coordinator;

  void WorkerMain(Worker& w, TxnSource* source);
  // Pops up to kWorkerBatch submissions from the worker's inbox in one cursor pass and
  // runs them back to back; returns how many ran.
  std::size_t TryRunSubmitted(Worker& w);
  // Highest TID any worker committed. Only exact while the workers are parked at a
  // barrier (the coordinator's cuts) or joined (Stop).
  std::uint64_t MaxCommittedTid() const;
  // Stamps submit_ns, charges the drain counter, and pushes onto the inbox at
  // `start_inbox` (trying the others too when `failover` is set — batch submission
  // disables failover to keep per-inbox FIFO order under backpressure). On
  // kQueueFull/kStopped nothing is queued or charged.
  SubmitStatus TrySubmitPending(PendingTxn&& pt, std::uint32_t start_inbox, bool failover,
                                TxnHandle* handle);
  TxnHandle SubmitPendingBlocking(PendingTxn&& pt, std::uint32_t start_inbox,
                                  bool failover);

  // Transactions a worker runs per hot-loop pass before re-checking the barrier and
  // re-reading the clock: inbox pops are batched and the per-transaction fixed costs
  // (barrier check, retry-heap due check, timestamp reads) amortize across the batch.
  // Batches are executed back to back in microseconds, so barrier acknowledgement
  // latency stays far below any sane phase_us.
  static constexpr int kWorkerBatch = 16;

  Options opts_;
  Store store_;
  std::unique_ptr<EpochReclaimer> reclaimer_;  // null: reclamation off (Atomic, opt-out)
  std::unique_ptr<WriteAheadLog> wal_;
  RecoveryResult recovery_;
  std::atomic<bool> stop_coord_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> draining_{false};  // Stop() in progress: coordinator hurries phases
  std::unique_ptr<Engine> engine_;
  DoppelEngine* doppel_ = nullptr;  // borrowed view of engine_ when protocol is Doppel
  RunnerConfig runner_cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<QuiesceBarrier> barrier_;  // acknowledged by every worker loop
  std::vector<std::unique_ptr<TxnSource>> sources_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopped_ = false;

  // ---- Submission path ----
  std::vector<std::unique_ptr<SubmitInbox>> inboxes_;  // one per worker
  std::atomic<std::uint32_t> next_inbox_{0};           // round-robin placement cursor
  std::atomic<std::uint64_t> inflight_{0};             // accepted, not yet terminal
  std::atomic<bool> accepting_{false};                 // false before Start / after Stop
  // One-way read-only latch, set by the WAL's durability-lost callback (permanent I/O
  // failure). Release store so the WAL failure details (failed_errno/failed_op) are
  // visible to anyone who acquires the flag.
  std::atomic<bool> degraded_{false};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_DATABASE_H_
