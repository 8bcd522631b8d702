#include "src/persist/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/common/dassert.h"
#include "src/common/timing.h"
#include "src/persist/crc32.h"
#include "src/persist/encoding.h"
#include "src/persist/log_reader.h"
#include "src/store/epoch.h"
#include "src/txn/apply.h"

namespace doppel {
namespace {

// Segment and entry wire format: see log_reader.h (constants and both decoders live
// there, shared with the replica tailer; this file owns only the encoders).

void PutOp(std::vector<char>& out, const PendingWrite& w, const WriteArena& arena) {
  PutRaw(out, static_cast<std::uint8_t>(w.op));
  PutRaw(out, w.record->key().hi);
  PutRaw(out, w.record->key().lo);
  PutRaw(out, w.n);
  const OrderKey order = w.OrderOf(arena);
  PutRaw(out, order.primary);
  PutRaw(out, order.secondary);
  PutRaw(out, static_cast<std::uint32_t>(w.core));
  PutRaw(out, static_cast<std::uint32_t>(w.record->topk_k()));
  const std::string_view payload = w.PayloadOf(arena);
  PutRaw(out, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    PutSpan(out, payload.data(), payload.size());
  }
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions opts)
    : dir_(std::move(dir)),
      opts_(opts),
      env_(opts.env != nullptr ? opts.env : IoEnv::Default()) {
  DOPPEL_CHECK(!dir_.empty());
  const int rc = env_->Mkdir(dir_.c_str(), 0755);
  if (rc != 0 && rc != -EEXIST) {
    // Cannot even create the persistence directory: latch failed from birth. The
    // database still starts (degraded, serving whatever was recoverable — here
    // nothing) instead of aborting the process.
    SpinlockGuard lock(file_mu_);
    FailLocked(-rc, IoOp::kMkdir);
  }
  Manifest::Load(dir_, &manifest_);  // fresh directory leaves the default manifest
}

WriteAheadLog::~WriteAheadLog() {
  if (logging_) {
    stop_.store(true, std::memory_order_release);
    flusher_.join();
    Flush();
  }
  if (fd_ >= 0) {
    env_->Close(fd_);
  }
}

void WriteAheadLog::SetDurabilityLostCallback(std::function<void(int, IoOp)> cb) {
  file_mu_.lock();
  on_durability_lost_ = std::move(cb);
  // If the latch already tripped (e.g. mkdir failed in the constructor, before any
  // callback could be registered), deliver the notification now so the client never
  // misses the transition.
  std::function<void(int, IoOp)> fire;
  if (failed() && on_durability_lost_ != nullptr) {
    fire = on_durability_lost_;
  }
  const int err = failed_errno();
  const IoOp op = failed_op();
  file_mu_.unlock();
  if (fire != nullptr) {
    fire(err, op);
  }
}

void WriteAheadLog::FailLocked(int err, IoOp op) {
  if (failed()) {
    return;  // the latch is one-way; only the first failure is recorded
  }
  if (fd_ >= 0) {
    env_->Close(fd_);
    fd_ = -1;
  }
  // Op first, then errno with release: failed_errno_ is the latch readers acquire on,
  // so a reader that sees it set also sees the op.
  failed_op_.store(static_cast<std::uint8_t>(op), std::memory_order_relaxed);
  failed_errno_.store(err, std::memory_order_release);
  if (on_durability_lost_ != nullptr) {
    on_durability_lost_(err, op);
  }
}

bool WriteAheadLog::WriteRetryLocked(const char* data, std::size_t n) {
  const int rc = WriteFullyRetry(env_, fd_, data, n, opts_.retry, &io_retries_);
  if (rc != 0) {
    FailLocked(-rc, IoOp::kWrite);
    return false;
  }
  return true;
}

RecoveryResult WriteAheadLog::Recover(Store* store, int replay_threads) {
  DOPPEL_CHECK(!logging_);
  // Recovery runs before the flusher or any appender exists, but it reads the
  // manifest and records the torn tail — file_mu_-guarded state — so it takes the
  // (uncontended) lock to keep the guarded contract total rather than escape it.
  SpinlockGuard file_lock(file_mu_);
  RecoveryResult result;
  if (!manifest_.checkpoint.empty()) {
    const CheckpointStats ck =
        Checkpoint::Load(dir_ + "/" + manifest_.checkpoint, store, env_);
    result.had_checkpoint = true;
    result.checkpoint_records = ck.records;
    result.checkpoint_tables = ck.tables;
    result.max_tid = ck.max_tid;
  }

  std::vector<WalTxn> txns;
  std::vector<WalCut> cuts;
  for (std::uint64_t seg : manifest_.live_segments) {
    const std::size_t before = txns.size();
    std::uint64_t valid_prefix = 0;
    const bool clean = ParseWalSegment(dir_ + "/" + Manifest::SegmentFileName(seg),
                                       &txns, &cuts, &valid_prefix);
    if (txns.size() != before) {
      result.replayed_segments++;
    }
    if (!clean) {
      // A tear here ends the recoverable history: entries in later segments were
      // logged *after* the ones this segment lost, and replaying them over the gap
      // would produce a state matching no committed prefix. (For the last — active —
      // segment this is the ordinary crash tail.) Remember the tear so StartLogging
      // can truncate the file back to its valid prefix: leaving damaged bytes in a
      // still-live segment would make the *next* crash's recovery stop there and
      // silently drop every generation logged after it.
      if (seg == manifest_.live_segments.back() &&
          valid_prefix >= kWalSegmentHeaderBytes) {
        torn_segment_ = seg;
        torn_valid_bytes_ = valid_prefix;
        has_torn_tail_ = true;
      }
      break;
    }
  }
  // Redo in commit-TID order (TIDs are unique: worker id lives in the low bits).
  std::sort(txns.begin(), txns.end(),
            [](const WalTxn& a, const WalTxn& b) { return a.tid < b.tid; });
  result.replayed_txns = txns.size();
  for (const WalTxn& t : txns) {
    result.max_tid = std::max(result.max_tid, t.tid);
  }
  for (const WalCut& c : cuts) {
    result.max_tid = std::max(result.max_tid, c.cut_tid);
  }

  int threads = replay_threads;
  if (threads <= 0) {
    threads = static_cast<int>(
        std::min<unsigned>(4, std::max<unsigned>(1, std::thread::hardware_concurrency())));
  }
  if (txns.size() < 256) {
    threads = 1;  // not worth the fan-out
  }
  result.replay_threads = threads;

  if (threads <= 1) {
    WriteArena arena;
    for (const WalTxn& t : txns) {
      for (const WalOp& op : t.ops) {
        ApplyWalOp(store, op, t.tid, &arena);
      }
    }
  } else {
    // Parallel replay: partition ops by key stripe so each record's redo sequence is
    // applied by exactly one thread, in TID order (the txn list is already sorted).
    // Final state per record depends only on that per-record sequence, so this matches
    // serial replay; cross-record interleaving is unobservable in the recovered
    // snapshot.
    struct StripedOp {
      std::uint64_t tid;
      const WalOp* op;
    };
    std::vector<std::vector<StripedOp>> striped(static_cast<std::size_t>(threads));
    for (const WalTxn& t : txns) {
      for (const WalOp& op : t.ops) {
        const std::size_t stripe =
            static_cast<std::size_t>(op.key.Hash()) % static_cast<std::size_t>(threads);
        striped[stripe].push_back(StripedOp{t.tid, &op});
      }
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([store, &striped, i] {
        WriteArena arena;
        for (const StripedOp& s : striped[static_cast<std::size_t>(i)]) {
          ApplyWalOp(store, *s.op, s.tid, &arena);
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  // Keys whose replayed history ends in a delete are logically absent but still
  // allocated and linked. Nothing runs against the store until Start spawns workers,
  // so free them now instead of waiting for the epoch machinery (a recovered log of
  // churn would otherwise resurrect the leak it was fixed to avoid).
  result.reclaimed_records = EpochReclaimer::SweepQuiescent(*store);
  return result;
}

bool WriteAheadLog::OpenSegmentLocked(std::uint64_t number) {
  const std::string path = dir_ + "/" + Manifest::SegmentFileName(number);
  const int fd =
      OpenRetry(env_, path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644, opts_.retry,
                &io_retries_);
  if (fd < 0) {
    FailLocked(-fd, IoOp::kOpen);
    return false;
  }
  fd_ = fd;
  std::vector<char> header;
  PutRaw(header, kWalSegmentMagic);
  PutRaw(header, kWalSegmentVersion);
  PutRaw(header, number);
  if (!WriteRetryLocked(header.data(), header.size())) {
    return false;
  }
  // Make the (possibly empty) segment durable before the manifest references it, so a
  // crash between the two never leaves the manifest naming a missing file. A failed
  // fsync is permanent by policy (io_env.h) — never retried.
  const int rc = env_->Fsync(fd_);
  if (rc != 0) {
    FailLocked(-rc, IoOp::kFsync);
    return false;
  }
  active_segment_ = number;
  active_bytes_ = kWalSegmentHeaderBytes;
  // Monotonic stats counter; readers are racy by contract.
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WriteAheadLog::SweepUnreferencedLocked() {
  // Files the manifest does not name are garbage from an interrupted transition (a
  // crash between repointing the manifest and unlinking what it replaced, or a torn
  // tmp write). Only files matching our own naming are touched.
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return;  // sweeping is best-effort garbage collection; recovery never needs it
  }
  std::vector<std::string> doomed;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const bool wal_file =
        name.size() > 4 && name.compare(0, 4, "wal-") == 0 &&
        name.compare(name.size() - 4, 4, ".log") == 0;
    const bool ckpt_file =
        name.size() > 5 && name.compare(0, 5, "ckpt-") == 0 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0;
    const bool tmp_file =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (!wal_file && !ckpt_file && !tmp_file) {
      continue;
    }
    bool referenced = name == manifest_.checkpoint;
    for (std::uint64_t seg : manifest_.live_segments) {
      referenced = referenced || name == Manifest::SegmentFileName(seg);
    }
    for (std::uint64_t seg : manifest_.retained_segments) {
      referenced = referenced || name == Manifest::SegmentFileName(seg);
    }
    if (!referenced) {
      doomed.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    env_->Unlink((dir_ + "/" + name).c_str());
  }
}

void WriteAheadLog::DiscardDurableState() {
  DOPPEL_CHECK(!logging_);
  file_mu_.lock();
  manifest_.checkpoint.clear();
  manifest_.live_segments.clear();
  manifest_.retained_segments.clear();
  has_torn_tail_ = false;
  if (const IoFailure f = Manifest::Save(dir_, manifest_, env_, &io_retries_)) {
    FailLocked(f.err, f.op);
  }
  file_mu_.unlock();
}

void WriteAheadLog::StartLogging() {
  DOPPEL_CHECK(!logging_);
  file_mu_.lock();
  if (has_torn_tail_ && !failed()) {
    // Trim the crash tear found by Recover back to its valid prefix. The file keeps
    // its durable header (manifest-listed segments are fsynced before being named), so
    // the segment now parses clean end-to-end and a future recovery — or a replica
    // tailer — reads straight through it into the segments this generation appends.
    const int rc = TruncateRetry(
        env_, (dir_ + "/" + Manifest::SegmentFileName(torn_segment_)).c_str(),
        torn_valid_bytes_, opts_.retry, &io_retries_);
    if (rc != 0) {
      // Cannot repair the tear: appending a new generation after damaged bytes would
      // poison the next recovery, so the log starts degraded instead.
      FailLocked(-rc, IoOp::kTruncate);
    } else {
      has_torn_tail_ = false;
    }
  }
  if (!failed()) {
    SweepUnreferencedLocked();
    const std::uint64_t seg = manifest_.next_segment;
    if (OpenSegmentLocked(seg)) {
      manifest_.live_segments.push_back(seg);
      manifest_.next_segment = seg + 1;
      if (const IoFailure f = Manifest::Save(dir_, manifest_, env_, &io_retries_)) {
        // The in-memory manifest now references a segment the on-disk one never
        // will; harmless — nothing more is saved after the latch trips, and
        // recovery trusts only the on-disk manifest.
        FailLocked(f.err, f.op);
      }
    }
  }
  file_mu_.unlock();
  // The flusher starts even when degraded: it idles on fd_ < 0, and the lifecycle
  // (Stop/join) stays uniform for the caller.
  logging_ = true;
  flusher_ = std::thread([this] { FlusherMain(); });
}

void WriteAheadLog::Append(int worker_id, std::uint64_t commit_tid,
                           const std::vector<PendingWrite>& writes,
                           const std::vector<PendingWrite>& split_writes,
                           const WriteArena& arena) {
  const std::size_t n_ops = writes.size() + split_writes.size();
  if (n_ops == 0) {
    return;  // read-only transactions need no redo entry
  }
  if (failed()) {
    return;  // durability lost: buffering more bytes would only grow memory forever
  }
  // The entry header carries the op count as u16; silently truncating it would make a
  // CRC-valid entry that replays only a subset of a committed transaction's writes.
  DOPPEL_CHECK(n_ops <= 0xffff);
  Buffer& buf = buffers_[static_cast<std::size_t>(worker_id) % kBuffers];
  buf.mu.lock();
  // Encode straight into the batch buffer: reserve the length/CRC header, lay the entry
  // body down after it, then backpatch the header from the in-place bytes. One encode,
  // zero staging copies per logged commit.
  const std::size_t header_at = buf.bytes.size();
  PutRaw(buf.bytes, std::uint32_t{0});  // payload_len, backpatched
  PutRaw(buf.bytes, std::uint32_t{0});  // payload_crc, backpatched
  const std::size_t body_at = buf.bytes.size();
  PutRaw(buf.bytes, static_cast<std::uint8_t>(WalEntryType::kTxn));
  PutRaw(buf.bytes, commit_tid);
  PutRaw(buf.bytes, static_cast<std::uint16_t>(n_ops));
  for (const PendingWrite& w : writes) {
    PutOp(buf.bytes, w, arena);
  }
  for (const PendingWrite& w : split_writes) {
    PutOp(buf.bytes, w, arena);
  }
  const std::uint32_t len = static_cast<std::uint32_t>(buf.bytes.size() - body_at);
  const std::uint32_t crc = Crc32(buf.bytes.data() + body_at, len);
  std::memcpy(buf.bytes.data() + header_at, &len, sizeof(len));
  std::memcpy(buf.bytes.data() + header_at + sizeof(len), &crc, sizeof(crc));
  buf.mu.unlock();
  // Monotonic stats counter; readers are racy by contract.
  appended_.fetch_add(1, std::memory_order_relaxed);
}

void WriteAheadLog::FlushLocked() {
  if (fd_ < 0) {
    return;  // degraded: buffered bytes are never written (Append stopped adding more)
  }
  // Steal each buffer with an O(1) swap instead of copying under its spinlock: a
  // worker appending into a buffer whose accumulated batch is being gathered must not
  // stall behind a multi-megabyte memcpy. The buffer gets last cycle's recycled
  // vector (empty, grown) in exchange, so appends keep their amortized capacity.
  struct TakenChunk {
    Buffer* buf;
    std::vector<char> bytes;
  };
  std::vector<TakenChunk> taken;
  for (Buffer& buf : buffers_) {
    buf.mu.lock();
    if (!buf.bytes.empty()) {
      taken.push_back(TakenChunk{&buf, {}});
      taken.back().bytes.swap(buf.bytes);
      buf.bytes.swap(buf.spare);
    }
    buf.mu.unlock();
  }
  if (taken.empty()) {
    return;
  }
  std::size_t total = 0;
  bool ok = true;
  for (TakenChunk& chunk : taken) {
    // A mid-batch permanent failure latches (fd closed); remaining chunks are
    // dropped — a partial tail write is the same torn tail recovery already trims.
    if (ok) {
      ok = WriteRetryLocked(chunk.bytes.data(), chunk.bytes.size());
      if (ok) {
        total += chunk.bytes.size();
      }
    }
    // Return the grown vector as the buffer's next spare.
    chunk.bytes.clear();
    chunk.buf->mu.lock();
    chunk.buf->spare.swap(chunk.bytes);
    chunk.buf->mu.unlock();
  }
  if (ok && opts_.fsync) {
    // A failed fsync is permanent by policy (io_env.h) — never retried.
    const int rc = env_->Fsync(fd_);
    if (rc != 0) {
      FailLocked(-rc, IoOp::kFsync);
      ok = false;
    }
  }
  if (!ok) {
    return;
  }
  active_bytes_ += total;
  // Monotonic stats counters; readers are racy by contract.
  flushes_.fetch_add(1, std::memory_order_relaxed);
  flushed_bytes_.fetch_add(total, std::memory_order_relaxed);
  if (active_bytes_ >= opts_.segment_bytes) {
    RotateLocked();
  }
}

bool WriteAheadLog::RotateLocked() {
  // Seal the active segment. Its bytes' durability follows the fsync policy: with
  // wal_fsync off, sealed data still rides on OS writeback (asynchronous durability).
  if (opts_.fsync) {
    const int frc = env_->Fsync(fd_);
    if (frc != 0) {
      FailLocked(-frc, IoOp::kFsync);
      return false;
    }
  }
  env_->Close(fd_);
  fd_ = -1;
  const std::uint64_t seg = manifest_.next_segment;
  if (!OpenSegmentLocked(seg)) {
    return false;
  }
  manifest_.live_segments.push_back(seg);
  manifest_.next_segment = seg + 1;
  if (const IoFailure f = Manifest::Save(dir_, manifest_, env_, &io_retries_)) {
    FailLocked(f.err, f.op);
    return false;
  }
  return true;
}

void WriteAheadLog::Flush() {
  file_mu_.lock();
  if (fd_ >= 0) {
    FlushLocked();
  }
  file_mu_.unlock();
}

void WriteAheadLog::AppendCut(std::uint64_t cut_tid) {
  file_mu_.lock();
  if (fd_ < 0) {
    file_mu_.unlock();
    return;
  }
  // Workers are quiesced (caller's precondition), so every pre-barrier commit is fully
  // encoded in the buffers; flushing first makes the cut physically follow all of them
  // in the segment. A concurrent tailer then sees a log prefix ending at this cut that
  // is exactly the barrier's transaction-consistent state.
  FlushLocked();
  if (fd_ < 0) {
    file_mu_.unlock();
    return;  // the flush latched a failure; the cut has nothing durable to align
  }
  std::vector<char> entry;
  PutRaw(entry, std::uint32_t{0});  // payload_len, backpatched
  PutRaw(entry, std::uint32_t{0});  // payload_crc, backpatched
  const std::size_t body_at = entry.size();
  PutRaw(entry, static_cast<std::uint8_t>(WalEntryType::kCut));
  PutRaw(entry, cut_tid);
  PutRaw(entry, NowNanos());
  const std::uint32_t len = static_cast<std::uint32_t>(entry.size() - body_at);
  const std::uint32_t crc = Crc32(entry.data() + body_at, len);
  std::memcpy(entry.data(), &len, sizeof(len));
  std::memcpy(entry.data() + sizeof(len), &crc, sizeof(crc));
  if (!WriteRetryLocked(entry.data(), entry.size())) {
    file_mu_.unlock();
    return;
  }
  if (opts_.fsync) {
    // A failed fsync is permanent by policy (io_env.h) — never retried.
    const int rc = env_->Fsync(fd_);
    if (rc != 0) {
      FailLocked(-rc, IoOp::kFsync);
      file_mu_.unlock();
      return;
    }
  }
  active_bytes_ += entry.size();
  // Monotonic stats counters; readers are racy by contract.
  flushed_bytes_.fetch_add(entry.size(), std::memory_order_relaxed);
  cuts_.fetch_add(1, std::memory_order_relaxed);
  file_mu_.unlock();
}

int WriteAheadLog::AcquireRetentionLease() {
  file_mu_.lock();
  const int id = next_lease_id_++;
  // A fresh lease needs the oldest live segment: the current checkpoint's redo tail
  // starts there, and a bootstrapping replica ships forward from that point.
  const std::uint64_t first =
      manifest_.live_segments.empty() ? manifest_.next_segment
                                      : manifest_.live_segments.front();
  leases_.push_back(Lease{id, first});
  lease_count_.store(static_cast<int>(leases_.size()), std::memory_order_release);
  file_mu_.unlock();
  return id;
}

void WriteAheadLog::AdvanceRetentionLease(int lease_id,
                                          std::uint64_t next_needed_segment) {
  file_mu_.lock();
  for (Lease& l : leases_) {
    if (l.id == lease_id) {
      l.next_needed_segment = std::max(l.next_needed_segment, next_needed_segment);
    }
  }
  PruneRetainedLocked();
  file_mu_.unlock();
}

void WriteAheadLog::ReleaseRetentionLease(int lease_id) {
  file_mu_.lock();
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    if (leases_[i].id == lease_id) {
      leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  lease_count_.store(static_cast<int>(leases_.size()), std::memory_order_release);
  PruneRetainedLocked();
  file_mu_.unlock();
}

void WriteAheadLog::PruneRetainedLocked() {
  if (manifest_.retained_segments.empty()) {
    return;
  }
  std::uint64_t min_needed = ~std::uint64_t{0};
  for (const Lease& l : leases_) {
    min_needed = std::min(min_needed, l.next_needed_segment);
  }
  std::vector<std::uint64_t> keep;
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t seg : manifest_.retained_segments) {
    (seg >= min_needed ? keep : doomed).push_back(seg);
  }
  if (doomed.empty()) {
    return;
  }
  manifest_.retained_segments = std::move(keep);
  // Repoint the manifest before unlinking, same ordering as every other transition:
  // a crash in between leaves unreferenced files for the sweep, never a manifest
  // naming missing ones. If the save fails, the on-disk manifest still references the
  // doomed segments — so they must NOT be unlinked.
  if (const IoFailure f = Manifest::Save(dir_, manifest_, env_, &io_retries_)) {
    FailLocked(f.err, f.op);
    return;
  }
  for (std::uint64_t seg : doomed) {
    env_->Unlink((dir_ + "/" + Manifest::SegmentFileName(seg)).c_str());
  }
}

bool WriteAheadLog::BeginCheckpoint(CheckpointStats* stats) {
  DOPPEL_CHECK(logging_);
  DOPPEL_CHECK(!checkpoint_in_flight());
  const std::uint64_t t0 = NowNanos();
  file_mu_.lock();
  // Everything committed is in the buffers (workers are quiesced past their last
  // commit); flush it, then seal so the sealed set is exactly the checkpoint's past.
  // Degraded log (fd_ < 0): there is no durable consistency point to seal against.
  if (fd_ >= 0) {
    FlushLocked();
  }
  if (fd_ >= 0) {
    RotateLocked();
  }
  if (fd_ < 0) {
    *stats = CheckpointStats{};
    stats->failure = IoFailure{failed_errno(), failed_op()};
    // Stats counter: racy reads are the contract.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    file_mu_.unlock();
    return false;
  }
  ckpt_sealed_.assign(manifest_.live_segments.begin(), manifest_.live_segments.end() - 1);
  ckpt_segment_ = active_segment_;  // the freshly-opened active segment stays live
  ckpt_begin_ns_ = t0;
  ckpt_in_flight_.store(true, std::memory_order_release);
  file_mu_.unlock();
  return true;
}

CheckpointStats WriteAheadLog::PersistInFlight(const CheckpointImage& image,
                                               FunctionRef<void()> between_writes) {
  const std::uint64_t t0 = NowNanos();
  file_mu_.lock();
  const std::string name = Manifest::CheckpointFileName(ckpt_segment_);
  file_mu_.unlock();
  const CheckpointStats persisted =
      Checkpoint::Persist(dir_, name, image, env_, &io_retries_, between_writes);
  file_mu_.lock();
  const CheckpointStats stats = FinishCheckpointLocked(persisted, name);
  file_mu_.unlock();
  // Stats counter: racy reads are the contract.
  ckpt_persist_ns_.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
  return stats;
}

CheckpointStats WriteAheadLog::FinishCheckpointLocked(CheckpointStats stats,
                                                      const std::string& name) {
  if (stats.ok() && failed()) {
    // The log latched a permanent failure while the image was being written: it
    // cannot make durable transitions any more, so the MANIFEST keeps naming the old
    // checkpoint and segments, and the new file is just unreferenced garbage.
    env_->Unlink((dir_ + "/" + name).c_str());
    stats.failure = IoFailure{failed_errno(), failed_op()};
  }
  if (!stats.ok()) {
    // Checkpoint failure is NOT a WAL failure: the tmp file was removed, the MANIFEST
    // never saw the new name, and the old checkpoint stays live, so logging continues
    // unharmed. The seal is benign — the sealed segments stay in live_segments and
    // replay fine. The coordinator retries at a later barrier.
    // Stats counter: racy reads are the contract.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return stats;
  }

  // Segments sealed at capture that a retention lease still needs move to the retained
  // set (kept on disk for replica shipping, never replayed — the checkpoint subsumes
  // them); the rest are deleted below. Retained numbers stay ascending: sealed
  // segments are always newer than anything already retained.
  std::uint64_t min_needed = ~std::uint64_t{0};
  for (const Lease& l : leases_) {
    min_needed = std::min(min_needed, l.next_needed_segment);
  }
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t seg : ckpt_sealed_) {
    if (!leases_.empty() && seg >= min_needed) {
      manifest_.retained_segments.push_back(seg);
    } else {
      doomed.push_back(seg);
    }
  }

  const std::string old_ckpt = manifest_.checkpoint;
  manifest_.checkpoint = name;
  // Everything from the seal onward stays live: rotation may have opened more
  // segments while the image was being written.
  std::vector<std::uint64_t> live;
  for (std::uint64_t seg : manifest_.live_segments) {
    if (seg >= ckpt_segment_) {
      live.push_back(seg);
    }
  }
  manifest_.live_segments = std::move(live);
  if (const IoFailure f = Manifest::Save(dir_, manifest_, env_, &io_retries_)) {
    // The new checkpoint file exists but no manifest names it; the on-disk manifest
    // still references every old segment, so nothing may be unlinked. Escalate: a log
    // whose manifest cannot be replaced cannot make further durable transitions.
    FailLocked(f.err, f.op);
    stats.failure = f;
    // Stats counter: racy reads are the contract.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return stats;
  }

  // Only now are the dropped segments (and the previous checkpoint) unreferenced by
  // any manifest a crash could resurrect.
  for (std::uint64_t seg : doomed) {
    env_->Unlink((dir_ + "/" + Manifest::SegmentFileName(seg)).c_str());
  }
  if (!old_ckpt.empty()) {
    env_->Unlink((dir_ + "/" + old_ckpt).c_str());
  }
  return stats;
}

void WriteAheadLog::EndCheckpoint(const CheckpointStats& stats) {
  ckpt_in_flight_.store(false, std::memory_order_release);
  if (stats.ok()) {
    // Release after the flag: a reader that sees the new count sees the flag down.
    checkpoints_.fetch_add(1, std::memory_order_release);
  }
}

void WriteAheadLog::NoteCaptured(const CheckpointImage& image) {
  DOPPEL_CHECK(checkpoint_in_flight());
  // Stats counters: racy reads are the contract.
  ckpt_capture_ns_.fetch_add(NowNanos() - ckpt_begin_ns_, std::memory_order_relaxed);
  ckpt_image_bytes_.store(image.file_bytes(), std::memory_order_relaxed);
}

void WriteAheadLog::PersistCheckpointAsync(CheckpointImage image) {
  NoteCaptured(image);
  auto job = std::make_unique<CheckpointImage>(std::move(image));
  ckpt_mu_.lock();
  ckpt_job_ = std::move(job);
  ckpt_mu_.unlock();
}

void WriteAheadLog::RunPendingCheckpoint() {
  ckpt_mu_.lock();
  std::unique_ptr<CheckpointImage> job = std::move(ckpt_job_);
  ckpt_mu_.unlock();
  if (job == nullptr) {
    return;
  }
  // Keep group commit going while the image is written: between its writes, flush the
  // log buffers on the usual cadence (try_lock, as in FlusherMain).
  std::uint64_t last_flush = NowNanos();
  const CheckpointStats stats = PersistInFlight(*job, [&] {
    const std::uint64_t now = NowNanos();
    if (now - last_flush < opts_.flush_interval_us * 1000) {
      return;
    }
    last_flush = now;
    if (file_mu_.try_lock()) {
      if (fd_ >= 0) {
        FlushLocked();
      }
      file_mu_.unlock();
    }
  });
  job.reset();  // the image is never kept for the next checkpoint
  ckpt_mu_.lock();
  ckpt_result_ = stats;
  ckpt_mu_.unlock();
  EndCheckpoint(stats);
}

bool WriteAheadLog::TakeCheckpointResult(CheckpointStats* out) {
  ckpt_mu_.lock();
  const std::optional<CheckpointStats> result = std::exchange(ckpt_result_, std::nullopt);
  ckpt_mu_.unlock();
  if (result) {
    *out = *result;
  }
  return result.has_value();
}

void WriteAheadLog::WaitForCheckpoint() const {
  while (checkpoint_in_flight()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

CheckpointStats WriteAheadLog::WriteCheckpoint(const Store& store) {
  WaitForCheckpoint();
  CheckpointStats stats;
  if (!BeginCheckpoint(&stats)) {
    return stats;
  }
  const CheckpointImage image = Checkpoint::Capture(store);
  NoteCaptured(image);
  stats = PersistInFlight(image, [] {});
  EndCheckpoint(stats);
  return stats;
}

void WriteAheadLog::FlusherMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(opts_.flush_interval_us));
    RunPendingCheckpoint();
    // try_lock, not lock: the coordinator holds file_mu_ for a checkpoint's flush +
    // seal or a cut, and a background cadence tick must skip that window instead of
    // burning a core spinning on it. The buffers just carry over to the next tick.
    if (file_mu_.try_lock()) {
      if (fd_ >= 0) {
        FlushLocked();
      }
      file_mu_.unlock();
    }
  }
  // An image handed over just before shutdown still gets persisted: its capture
  // already paid for the consistency point.
  RunPendingCheckpoint();
}

}  // namespace doppel
