// Durability: a persistence *directory* of segmented redo logs plus consistent
// checkpoints (an extension the paper points to in §3: "Existing work suggests that
// asynchronous batched logging could be added to Doppel without becoming a
// bottleneck").
//
// Logging: workers append *logical* operations (not values) with their Silo commit TID
// to per-worker buffers at commit time; a background flusher batches buffers to the
// active log segment on a fixed interval (group commit, optionally fsynced). Commits do
// not wait for disk — durability is asynchronous, matching the paper's assumption.
// Segments rotate at a size threshold; the directory's MANIFEST names the checkpoint
// and the live segments and is replaced atomically on every transition.
//
// Logging operations rather than states is what makes this compatible with phase
// reconciliation: a split-phase commit knows only its operation (e.g. Add(k, 1)), never
// the record's global value. Recovery replays entries in commit-TID order; TID order is
// consistent with the serial order for conflicting non-commutative writes (the later
// writer's GenerateTid absorbs the earlier TID), and commutative split-phase operations
// are order-insensitive by definition (§4).
//
// Checkpoints take two steps so the quiesce barrier never waits for the disk. At a
// joined-phase barrier (slices merged, workers parked) the coordinator calls
// BeginCheckpoint, which flushes and seals the active segment, then captures the store
// into an in-memory CheckpointImage — the parked workers help encode it — and hands
// the image to PersistCheckpointAsync before releasing the barrier. The flusher thread
// then writes, fsyncs and renames the checkpoint file while transactions run again,
// and finally repoints the MANIFEST and deletes the sealed segments the checkpoint
// subsumes — bounding recovery cost by the log volume since the last barrier-aligned
// snapshot rather than by database lifetime. Until that swap the old checkpoint and
// every live segment stay the recoverable state, so a crash mid-persist loses nothing.
//
// Recovery (Database::Start): load the checkpoint (if any), replay the live segments in
// commit-TID order — partitioned by key stripe across threads, since per-record redo
// order is all that final state depends on — rebuild ordered-index partitions as
// records regain presence, and seed worker TID clocks past the maximum recovered TID so
// the next log generation's TIDs sort after everything recovered.
#ifndef DOPPEL_SRC_PERSIST_WAL_H_
#define DOPPEL_SRC_PERSIST_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/function_ref.h"
#include "src/common/spinlock.h"
#include "src/persist/checkpoint.h"
#include "src/persist/io_env.h"
#include "src/persist/log_reader.h"
#include "src/persist/manifest.h"
#include "src/store/store.h"
#include "src/txn/txn.h"

namespace doppel {

struct WalOptions {
  // Group-commit cadence for the background flusher.
  std::uint64_t flush_interval_us = 2000;
  // fsync the active segment on every group-commit flush (and on segment seal). Off by
  // default: flushed data then survives process death but not OS/power failure, which
  // is the paper's asynchronous-durability regime. See Options::wal_fsync.
  bool fsync = false;
  // Seal the active segment and open a fresh one once it exceeds this size.
  std::uint64_t segment_bytes = 8ull << 20;
  // I/O environment every syscall routes through; nullptr = passthrough default.
  // Tests inject a FaultInjectingIoEnv here.
  IoEnv* env = nullptr;
  // Bounded-retry policy for transient I/O errors (EINTR/EAGAIN/short write).
  IoRetryPolicy retry;
};

struct RecoveryResult {
  bool had_checkpoint = false;
  std::uint64_t checkpoint_records = 0;
  std::uint64_t checkpoint_tables = 0;
  std::uint64_t replayed_txns = 0;
  std::uint64_t replayed_segments = 0;
  // Highest TID restored from checkpoint or segment replay; Database seeds every
  // worker's TID clock past this.
  std::uint64_t max_tid = 0;
  // Records whose replayed history ends in a delete, freed by the end-of-recovery
  // sweep (nothing else runs against the store yet, so no grace period is needed).
  std::uint64_t reclaimed_records = 0;
  int replay_threads = 0;
};

class WriteAheadLog {
 public:
  // Opens (creating if needed) the persistence directory and reads its MANIFEST. Does
  // not start logging: the open/recover lifecycle is
  //   WriteAheadLog wal(dir);          // read manifest
  //   wal.Recover(&store);             // checkpoint + segment replay into the store
  //   wal.StartLogging();              // fresh active segment + background flusher
  explicit WriteAheadLog(std::string dir, WalOptions opts = WalOptions{});
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Replays the directory's durable state (checkpoint, then live segments in commit-TID
  // order) into `store`, which must not be receiving concurrent transactional writes.
  // `replay_threads` <= 0 picks a default; replay work is partitioned by key stripe, so
  // any thread count produces the same final state as serial replay. Must precede
  // StartLogging. Tolerates torn tails and CRC-failing entries: replay stops at the
  // first damaged entry and ignores all later segments too, so what is applied is
  // exactly a prefix of the logged history — never a state with a gap in the middle.
  RecoveryResult Recover(Store* store, int replay_threads = 0) EXCLUDES(file_mu_);

  // Opens a fresh active segment, registers it in the MANIFEST, and starts the
  // background flusher. Called once (Database::Start does this after recovery).
  void StartLogging() EXCLUDES(file_mu_);
  bool logging() const { return logging_; }

  // Declares the directory's durable state abandoned: drops the checkpoint and every
  // live segment from the manifest (segment numbering keeps climbing, so stale files
  // can never be confused with fresh ones; the files themselves are swept when logging
  // starts). Required before StartLogging when recovery was intentionally skipped —
  // appending a new generation with reset TID clocks into a manifest that still lists
  // the old generation's segments would interleave the generations' TIDs and corrupt
  // any later recovery. Must precede StartLogging.
  void DiscardDurableState() EXCLUDES(file_mu_);

  // Worker-side: append one committed transaction's buffered writes (`arena` holds
  // their byte/ordered operands). `worker_id` selects the per-worker buffer; safe to
  // call concurrently from distinct workers.
  void Append(int worker_id, std::uint64_t commit_tid,
              const std::vector<PendingWrite>& writes,
              const std::vector<PendingWrite>& split_writes, const WriteArena& arena);

  // Forces all buffered bytes to the active segment (fsyncing when configured). Called
  // by the flusher, on Stop, and by tests/clients that need a durability point.
  void Flush() EXCLUDES(file_mu_);

  // Appends a replication-cut record carrying `cut_tid` (the maximum committed TID at
  // the quiesce point). Flushes every buffered entry first, so the physical log prefix
  // ending at the cut contains exactly the transactions the cut covers. PRECONDITION:
  // workers quiesced (coordinator barrier, or post-join in Database::Stop) — otherwise
  // the prefix would not be transaction-consistent. No-op before StartLogging.
  void AppendCut(std::uint64_t cut_tid) EXCLUDES(file_mu_);

  // ---- Retention leases (replica log shipping) ----
  //
  // A lease pins sealed segments on disk from the holder's position onward: while any
  // lease's next-needed segment is <= S, a checkpoint moves S (and every later sealed
  // segment) to the manifest's retained set instead of unlinking it. The holder
  // advances its lease as it finishes shipping each segment; segments every lease has
  // passed are pruned. Acquire returns a lease id; the lease initially needs the
  // oldest live segment (a new replica bootstraps from the current checkpoint, whose
  // redo tail starts there).
  int AcquireRetentionLease() EXCLUDES(file_mu_);
  void AdvanceRetentionLease(int lease_id, std::uint64_t next_needed_segment)
      EXCLUDES(file_mu_);
  void ReleaseRetentionLease(int lease_id) EXCLUDES(file_mu_);
  int retention_leases() const { return lease_count_.load(std::memory_order_acquire); }

  // ---- Checkpoints ----
  //
  // Step 1, BeginCheckpoint: flush + seal the active segment, so the sealed set is
  // exactly the past of the store state captured next. PRECONDITION: no worker may be
  // mutating records or appending (quiesce barrier), and no checkpoint in flight.
  // Returns false — with stats->failure set and the failure counted — when the log is
  // degraded or the seal latched a failure; nothing is then in flight.
  bool BeginCheckpoint(CheckpointStats* stats) EXCLUDES(file_mu_);
  // Step 2: hand the image captured after BeginCheckpoint (a CheckpointCapture, which
  // the barrier shards over its parked workers) to the flusher thread and return at
  // once. The flusher writes it — group-committing the log between its writes — then
  // swaps the MANIFEST to it and deletes the sealed segments and the previous
  // checkpoint. A failed persist rolls back (tmp removed, MANIFEST untouched, sealed
  // segments stay live); a permanent WAL failure latched meanwhile also leaves the
  // MANIFEST untouched. The outcome is collected with TakeCheckpointResult.
  void PersistCheckpointAsync(CheckpointImage image) EXCLUDES(ckpt_mu_);
  // True from a successful BeginCheckpoint until its persist has finished.
  bool checkpoint_in_flight() const {
    return ckpt_in_flight_.load(std::memory_order_acquire);
  }
  // Collects the outcome of the last finished PersistCheckpointAsync, once; false when
  // there is none to collect.
  bool TakeCheckpointResult(CheckpointStats* out) EXCLUDES(ckpt_mu_);
  // Blocks until no checkpoint is in flight (Database::Stop, before the final cut).
  void WaitForCheckpoint() const;

  // Both steps on the calling thread (single-threaded capture, synchronous persist),
  // after waiting out any checkpoint in flight. PRECONDITION: no worker may be mutating
  // records or appending — tests and tools call it with workers stopped.
  CheckpointStats WriteCheckpoint(const Store& store) EXCLUDES(file_mu_);

  // ---- Durability-failure latch ----
  //
  // The first permanent I/O failure on the append path (segment open/write, fsync,
  // manifest replace, torn-tail truncate) latches the log into a failed state: the
  // active fd is closed, every later Append/Flush/AppendCut becomes a no-op, and no
  // checkpoint can be taken (there is no durable log to align it with). The latch is
  // one-way — the page-cache state after a failed fsync is unknowable, so the log
  // never resumes claiming durability. Clients (Database) observe the latch and run
  // read-only degraded. Losing the in-flight group-commit window is within the
  // asynchronous-durability contract: those commits were never durably acknowledged.
  bool failed() const { return failed_errno_.load(std::memory_order_acquire) != 0; }
  // Positive errno / syscall class of the first permanent failure (0 / kWrite when
  // healthy).
  int failed_errno() const { return failed_errno_.load(std::memory_order_acquire); }
  IoOp failed_op() const {
    return static_cast<IoOp>(failed_op_.load(std::memory_order_acquire));
  }
  // Invoked exactly once, from inside the failing call (flusher, appender, or
  // coordinator thread), when the latch trips. Must be non-blocking and must not
  // re-enter the log. Set before StartLogging; if the log already failed (e.g. mkdir
  // in the constructor), the callback fires immediately.
  void SetDurabilityLostCallback(std::function<void(int, IoOp)> cb) EXCLUDES(file_mu_);

  // ---- Stats (relaxed monotonic counters; racy reads are the contract) ----
  std::uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkpoint_failures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t appended_txns() const {
    return appended_.load(std::memory_order_relaxed);
  }
  std::uint64_t flushed_batches() const {
    return flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t flushed_bytes() const {
    return flushed_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t segments_created() const {
    return segments_created_.load(std::memory_order_relaxed);
  }
  // Once a checkpoint is counted here, checkpoint_in_flight() reads false for it.
  std::uint64_t checkpoints_taken() const {
    return checkpoints_.load(std::memory_order_acquire);
  }
  std::uint64_t cuts_emitted() const { return cuts_.load(std::memory_order_relaxed); }
  // Checkpoint cost split by where it is paid: capture is the barrier part (flush,
  // seal and store encode, while workers are parked), persist the background part
  // (CRC, write, fsync, rename, MANIFEST swap). Totals over every checkpoint begun.
  std::uint64_t checkpoint_capture_ns() const {
    return ckpt_capture_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkpoint_persist_ns() const {
    return ckpt_persist_ns_.load(std::memory_order_relaxed);
  }
  // File size of the most recently captured checkpoint image.
  std::uint64_t checkpoint_image_bytes() const {
    return ckpt_image_bytes_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return dir_; }

 private:
  struct Buffer {
    Spinlock mu;
    // Entries are encoded directly into `bytes` with a backpatched length/CRC header —
    // no per-entry staging buffer, no second copy (`bytes` is contiguous, so the CRC
    // runs over the freshly encoded region in place).
    std::vector<char> bytes GUARDED_BY(mu);
    // Emptied-but-grown vector recycled by the flusher (see FlushLocked): steals and
    // returns are both O(1) swaps, and steady-state appends never re-grow from zero.
    std::vector<char> spare GUARDED_BY(mu);
  };

  struct Lease {
    int id;
    std::uint64_t next_needed_segment;
  };

  void FlusherMain() EXCLUDES(file_mu_, ckpt_mu_);
  // Flusher side of PersistCheckpointAsync: persists a handed-over image, if any.
  void RunPendingCheckpoint() EXCLUDES(file_mu_, ckpt_mu_);
  // Counts the capture time and image size of the in-flight checkpoint.
  void NoteCaptured(const CheckpointImage& image);
  // Ends the in-flight checkpoint: clears the flag, then counts it if it succeeded.
  void EndCheckpoint(const CheckpointStats& stats);
  // Writes the in-flight checkpoint's image and swaps the MANIFEST. `between_writes`
  // runs between the image's file writes.
  CheckpointStats PersistInFlight(const CheckpointImage& image,
                                  FunctionRef<void()> between_writes) EXCLUDES(file_mu_);
  // The MANIFEST swap that ends a persisted checkpoint (or its rollback).
  CheckpointStats FinishCheckpointLocked(CheckpointStats persisted,
                                         const std::string& name) REQUIRES(file_mu_);
  void FlushLocked() REQUIRES(file_mu_);  // gathers buffers and writes them
  // create file + header (+fsync); false = latched failed
  bool OpenSegmentLocked(std::uint64_t number) REQUIRES(file_mu_);
  // seal active, open next, save manifest; false = latched failed
  bool RotateLocked() REQUIRES(file_mu_);
  // Trips the durability-failure latch: closes the active fd, records the first
  // failure's errno/op, and fires the durability-lost callback. Idempotent.
  void FailLocked(int err, IoOp op) REQUIRES(file_mu_);
  // WriteFullyRetry against the active fd; on permanent failure latches via
  // FailLocked and returns false.
  bool WriteRetryLocked(const char* data, std::size_t n) REQUIRES(file_mu_);
  // Deletes wal/ckpt/tmp files the manifest does not reference (garbage left by a
  // crash between a manifest repoint and the unlink of what it replaced).
  void SweepUnreferencedLocked() REQUIRES(file_mu_);
  // Unlinks retained segments every lease has advanced past (manifest resaved when
  // anything was pruned).
  void PruneRetainedLocked() REQUIRES(file_mu_);

  const std::string dir_;
  const WalOptions opts_;
  IoEnv* const env_;  // never null (defaults to IoEnv::Default())

  // file_mu_ serializes every durable-state transition: the active segment's fd and
  // byte count, the manifest (and its on-disk replacement), the torn-tail fixup, and
  // the retention-lease table. Ordering: buffer spinlocks (Buffer::mu) nest inside
  // file_mu_ (FlushLocked takes them); never the reverse.
  Spinlock file_mu_;
  Manifest manifest_ GUARDED_BY(file_mu_);
  int fd_ GUARDED_BY(file_mu_) = -1;
  std::uint64_t active_segment_ GUARDED_BY(file_mu_) = 0;
  std::uint64_t active_bytes_ GUARDED_BY(file_mu_) = 0;
  // Lifecycle flag, not shared state: written on the open/recover/start path before
  // any concurrent appender or the flusher exists, then read-only.
  bool logging_ = false;
  // Torn tail of the last live segment found by Recover: StartLogging truncates the
  // file to the valid prefix so the next generation's recovery (and a tailing replica)
  // never sees damaged bytes between two good generations.
  std::uint64_t torn_segment_ GUARDED_BY(file_mu_) = 0;
  std::uint64_t torn_valid_bytes_ GUARDED_BY(file_mu_) = 0;
  bool has_torn_tail_ GUARDED_BY(file_mu_) = false;

  static constexpr int kBuffers = 64;  // worker_id % kBuffers
  std::vector<Buffer> buffers_{kBuffers};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> flushed_bytes_{0};
  std::atomic<std::uint64_t> segments_created_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> cuts_{0};
  std::atomic<std::uint64_t> io_retries_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  // Failure latch: 0 = healthy, else the positive errno of the first permanent
  // failure. Written once under file_mu_ (FailLocked); read lock-free. failed_op_ is
  // stored before failed_errno_ (the release store readers acquire on), so a reader
  // that sees the latch set also sees the op that tripped it.
  std::atomic<int> failed_errno_{0};
  std::atomic<std::uint8_t> failed_op_{0};
  std::function<void(int, IoOp)> on_durability_lost_ GUARDED_BY(file_mu_);
  std::vector<Lease> leases_ GUARDED_BY(file_mu_);
  // The checkpoint in flight (BeginCheckpoint to its MANIFEST swap): the segment opened
  // at its seal (which names it) and the segments sealed then, which only its swap may
  // retain or delete — size-based rotation keeps adding live segments meanwhile.
  std::uint64_t ckpt_segment_ GUARDED_BY(file_mu_) = 0;
  std::vector<std::uint64_t> ckpt_sealed_ GUARDED_BY(file_mu_);
  // Set by BeginCheckpoint, read by NoteCaptured on the same thread (the capture-time
  // counter spans the two).
  std::uint64_t ckpt_begin_ns_ = 0;
  std::atomic<bool> ckpt_in_flight_{false};
  // ckpt_mu_ hands a captured image to the flusher and the outcome back. It is never
  // held together with file_mu_ or a buffer lock.
  Spinlock ckpt_mu_;
  std::unique_ptr<CheckpointImage> ckpt_job_ GUARDED_BY(ckpt_mu_);
  std::optional<CheckpointStats> ckpt_result_ GUARDED_BY(ckpt_mu_);
  std::atomic<std::uint64_t> ckpt_capture_ns_{0};
  std::atomic<std::uint64_t> ckpt_persist_ns_{0};
  std::atomic<std::uint64_t> ckpt_image_bytes_{0};
  int next_lease_id_ GUARDED_BY(file_mu_) = 1;
  std::atomic<int> lease_count_{0};
  std::thread flusher_;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_PERSIST_WAL_H_
