#include "src/replica/replica.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>

#include "src/common/dassert.h"
#include "src/common/timing.h"
#include "src/core/database.h"
#include "src/persist/checkpoint.h"
#include "src/persist/manifest.h"
#include "src/persist/wal.h"
#include "src/store/epoch.h"

namespace doppel {
namespace {

bool FileSize(const std::string& path, std::uint64_t* size) {
  struct stat sb;
  if (::stat(path.c_str(), &sb) != 0) {
    return false;
  }
  *size = static_cast<std::uint64_t>(sb.st_size);
  return true;
}

}  // namespace

Replica::Replica(std::string dir, ReplicaOptions opts)
    : dir_(std::move(dir)), opts_(std::move(opts)), store_(opts_.store_capacity) {
  DOPPEL_CHECK(!dir_.empty());
}

Replica::~Replica() { Stop(); }

void Replica::AttachPrimary(WriteAheadLog* wal) {
  DOPPEL_CHECK(wal != nullptr);
  DOPPEL_CHECK(!started_ && primary_ == nullptr);
  primary_ = wal;
  // The lease pins sealed segments from the oldest live one onward, so nothing this
  // replica will need can be truncated out from under it — acquire before the first
  // manifest read, closing the window where a checkpoint could race bootstrap.
  lease_id_ = wal->AcquireRetentionLease();
}

void Replica::Start() {
  DOPPEL_CHECK(!started_);
  started_ = true;
  stop_.store(false, std::memory_order_release);
  tailer_ = std::thread([this] { TailerMain(); });
}

void Replica::Stop() {
  if (started_) {
    stop_.store(true, std::memory_order_release);
    tailer_.join();
    started_ = false;
  }
  if (primary_ != nullptr && lease_id_ >= 0) {
    primary_->ReleaseRetentionLease(lease_id_);
    lease_id_ = -1;
  }
}

void Replica::PublishWindow(std::vector<WalTxn>* window, const WalCut& cut) {
  // Within one cut window, per-record TID order matches the serial order (conflicting
  // later writers absorb the earlier TID), so TID-sorted replay reproduces the
  // barrier state — the same argument as crash-recovery replay.
  std::sort(window->begin(), window->end(),
            [](const WalTxn& a, const WalTxn& b) { return a.tid < b.tid; });
  {
    WriterMutexLock lock(publish_mu_);
    WriteArena arena;
    for (const WalTxn& t : *window) {
      for (const WalOp& op : t.ops) {
        ApplyWalOp(&store_, op, t.tid, &arena);
        if (op.op == OpCode::kDelete) {
          ++deletes_since_sweep_;
        }
      }
    }
    if (deletes_since_sweep_ >= kSweepAfterDeletes) {
      // The exclusive publish lock excludes every View reader, so the store is
      // quiescent here: deleted records are unlinked and freed immediately. Stats
      // gauge below is racy-read by contract (progress()) — relaxed.
      reclaimed_records_.fetch_add(EpochReclaimer::SweepQuiescent(store_),
                                   std::memory_order_relaxed);
      deletes_since_sweep_ = 0;
    }
    // Progress counters are stats: only applied_cut_tid_ / published_cuts_ carry
    // release ordering (View readers acquire them); the rest are racy-read gauges.
    DOPPEL_CHECK(cut.cut_tid >= applied_cut_tid_.load(std::memory_order_relaxed));
    applied_cut_tid_.store(cut.cut_tid, std::memory_order_release);
    applied_txns_.fetch_add(window->size(), std::memory_order_relaxed);
    pending_txns_.fetch_sub(window->size(), std::memory_order_relaxed);
    published_cuts_.fetch_add(1, std::memory_order_release);
    last_cut_wall_ns_.store(cut.wall_ns, std::memory_order_relaxed);
  }
  const std::uint64_t now = NowNanos();
  if (now > cut.wall_ns && cut.wall_ns != 0) {
    SpinlockGuard lock(hist_mu_);
    publish_lag_.Record(now - cut.wall_ns);
  }
  window->clear();
  if (opts_.on_publish) {
    opts_.on_publish();  // outside the lock: the hook may open Views or block
  }
}

void Replica::TailerMain() {
  const auto poll = std::chrono::microseconds(opts_.poll_us);

  // ---- Bootstrap: latest checkpoint, retried through concurrent replacement ----
  Manifest m;
  while (!stop_.load(std::memory_order_acquire)) {
    if (Manifest::Load(dir_, &m) && !m.live_segments.empty()) {
      if (m.checkpoint.empty()) {
        break;  // no checkpoint yet: the live segments are the full history
      }
      CheckpointStats ck;
      bool loaded = false;
      {
        WriterMutexLock lock(publish_mu_);
        loaded = Checkpoint::TryLoad(dir_ + "/" + m.checkpoint, &store_, &ck,
                                     opts_.io_env);
      }
      if (loaded) {
        // The checkpoint was taken right after a cut at the same barrier, so its
        // max_tid IS a cut TID: the replica starts cut-aligned. The record count is
        // a stats gauge (relaxed); the cut TID store is the release publication.
        applied_cut_tid_.store(ck.max_tid, std::memory_order_release);
        bootstrap_records_.store(ck.records, std::memory_order_relaxed);
        break;
      }
      // Lost the open race: the primary replaced (and unlinked) the checkpoint our
      // manifest snapshot named. Reload and try the new one.
    }
    std::this_thread::sleep_for(poll);
  }
  if (stop_.load(std::memory_order_acquire)) {
    return;
  }

  // ---- Tail: live.front() onward; segment numbers are contiguous ----
  std::uint64_t cur = m.live_segments.front();
  if (primary_ != nullptr) {
    primary_->AdvanceRetentionLease(lease_id_, cur);
  }
  auto seg_path = [this](std::uint64_t n) {
    return dir_ + "/" + Manifest::SegmentFileName(n);
  };
  auto tailer = std::make_unique<SegmentTailer>(seg_path(cur), opts_.io_env);
  tail_segment_.store(cur, std::memory_order_release);
  std::uint64_t shipped_base = 0;  // payload bytes from fully-shipped segments
  std::uint64_t retry_base = 0;    // EINTR retries from fully-shipped segments
  std::uint32_t read_error_streak = 0;  // consecutive hard read errors (backoff shift)
  std::vector<WalTxn> window;      // applied-at-next-cut buffer

  while (!stop_.load(std::memory_order_acquire)) {
    WalEntry e;
    const SegmentTailer::Status st = tailer->Next(&e);
    if (st == SegmentTailer::Status::kEntry) {
      read_error_streak = 0;
      // Gauge for progress(); racy readers by contract — relaxed.
      read_retries_.store(retry_base + tailer->read_retries(),
                          std::memory_order_relaxed);
      // Shipping gauges for progress(): single-writer (tailer thread), racy readers
      // tolerate any interleaving, nothing is published through them — relaxed.
      shipped_entries_.fetch_add(1, std::memory_order_relaxed);
      shipped_bytes_.store(shipped_base + tailer->payload_consumed(),
                           std::memory_order_relaxed);
      tail_consumed_.store(tailer->consumed_bytes(), std::memory_order_relaxed);
      if (e.type == WalEntryType::kTxn) {
        pending_txns_.fetch_add(1, std::memory_order_relaxed);
        window.push_back(std::move(e.txn));
      } else {
        PublishWindow(&window, e.cut);
      }
      continue;
    }

    if (st == SegmentTailer::Status::kNeedMore) {
      if (const int err = tailer->TakeLastReadError(); err != 0) {
        // Hard read error (EIO, ...), as opposed to "no new bytes yet": back off with
        // a bounded exponential and reissue from the same position — the tailer's
        // consumed offset did not move, so cut alignment is preserved. A persistently
        // sick disk just shows up as growing read_retries / lag, never a halt: the
        // primary's durable state is intact, only this replica's view of it stalls.
        last_read_errno_.store(err, std::memory_order_relaxed);
        retry_base += 1;
        read_retries_.store(retry_base + tailer->read_retries(),
                            std::memory_order_relaxed);
        read_error_streak = std::min(read_error_streak + 1, 6u);
        std::this_thread::sleep_for(poll * (1u << read_error_streak));
        continue;
      }
      read_error_streak = 0;
    }

    // Stalled (kNeedMore) or damaged (kCorrupt): consult the manifest. A live
    // segment newer than ours means ours is sealed — fully written, nothing more
    // coming.
    Manifest fresh;
    const bool sealed = Manifest::Load(dir_, &fresh) &&
                        !fresh.live_segments.empty() &&
                        fresh.live_segments.back() > cur;
    std::uint64_t size = 0;
    const bool size_known = FileSize(seg_path(cur), &size);

    if (st == SegmentTailer::Status::kNeedMore) {
      if (sealed && size_known && size <= tailer->consumed_bytes()) {
        // Shipped the sealed segment end to end: move to the next one.
        shipped_base += tailer->payload_consumed();
        retry_base += tailer->read_retries();
        ++cur;
        tailer = std::make_unique<SegmentTailer>(seg_path(cur), opts_.io_env);
        tail_segment_.store(cur, std::memory_order_release);
        // Gauge reset; readers pair it with the release store of tail_segment_.
        tail_consumed_.store(0, std::memory_order_relaxed);
        if (primary_ != nullptr) {
          primary_->AdvanceRetentionLease(lease_id_, cur);
        }
        continue;
      }
      std::this_thread::sleep_for(poll);
      continue;
    }

    // kCorrupt. In a sealed segment with bytes beyond our position this is genuine
    // corruption — no future write can repair a sealed file — so freeze at the last
    // published cut rather than serve a damaged prefix.
    if (sealed && size_known && size > tailer->consumed_bytes()) {
      halted_.store(true, std::memory_order_release);
      return;
    }
    // Active-segment tear: the primary crashed mid-flush. This is the end of durable
    // history until a restarted primary truncates the tear away — back to exactly the
    // valid prefix where this tailer already stands (same parse, same prefix) — and
    // opens its next segment. Drop the buffered tail so the re-read sees the
    // truncated file, then wait.
    tailer->ResetTail();
    std::this_thread::sleep_for(poll);
  }
}

bool Replica::View::Get(const Key& key, Value* out) const {
  const Record::ValueSnapshot s = r_.store_.ReadSnapshot(key);
  if (!s.present) {
    return false;
  }
  if (out != nullptr) {
    *out = s.value;
  }
  return true;
}

std::size_t Replica::View::Scan(std::uint64_t table, std::uint64_t lo, std::uint64_t hi,
                                std::size_t limit,
                                FunctionRef<bool(const Key&, const Value&)> fn) const {
  OrderedIndex::TableIndex* t = r_.store_.index().FindTable(table);
  if (t == nullptr) {
    return 0;
  }
  // Partitions are contiguous ascending key ranges, so walking them low to high (keys
  // sorted within each) yields a globally ascending scan. The publish lock (held by
  // this View) excludes the tailer, so the snapshot cannot shift mid-scan.
  const std::size_t p_lo = t->PartitionOf(lo);
  const std::size_t p_hi = t->PartitionOf(hi);
  std::vector<std::pair<std::uint64_t, Record*>> items;
  std::size_t visited = 0;
  for (std::size_t p = p_lo; p <= p_hi; ++p) {
    items.clear();
    const std::size_t max_items = limit == 0 ? 0 : limit - visited;
    OrderedIndex::SnapshotRange(t->partitions[p], lo, hi, max_items, &items);
    for (const auto& [key_lo, rec] : items) {
      const Record::ValueSnapshot s = rec->ReadValue();
      if (!s.present) {
        continue;
      }
      ++visited;
      if (!fn(Key(t->table, key_lo), s.value)) {
        return visited;
      }
      if (limit != 0 && visited >= limit) {
        return visited;
      }
    }
  }
  return visited;
}

bool Replica::Get(const Key& key, Value* out) const {
  return View(*this).Get(key, out);
}

std::size_t Replica::Scan(std::uint64_t table, std::uint64_t lo, std::uint64_t hi,
                          std::size_t limit,
                          FunctionRef<bool(const Key&, const Value&)> fn) const {
  return View(*this).Scan(table, lo, hi, limit, fn);
}

ReplicaProgress Replica::progress() const {
  ReplicaProgress p;
  p.attached = primary_ != nullptr;
  p.halted = halted_.load(std::memory_order_acquire);
  p.applied_cut_tid = applied_cut_tid_.load(std::memory_order_acquire);
  p.published_cuts = published_cuts_.load(std::memory_order_acquire);
  // The remaining fields are racy gauges (progress() is documented point-in-time
  // racy); only the cut TID / cut count above pair with the publisher's releases.
  p.applied_txns = applied_txns_.load(std::memory_order_relaxed);
  p.pending_txns = pending_txns_.load(std::memory_order_relaxed);
  p.shipped_entries = shipped_entries_.load(std::memory_order_relaxed);
  p.shipped_bytes = shipped_bytes_.load(std::memory_order_relaxed);
  p.bootstrap_records = bootstrap_records_.load(std::memory_order_relaxed);
  p.reclaimed_records = reclaimed_records_.load(std::memory_order_relaxed);
  p.last_cut_wall_ns = last_cut_wall_ns_.load(std::memory_order_relaxed);
  p.read_retries = read_retries_.load(std::memory_order_relaxed);
  p.last_read_errno = last_read_errno_.load(std::memory_order_relaxed);
  const std::uint64_t tail_seg = tail_segment_.load(std::memory_order_acquire);
  p.tailing = tail_seg != 0;
  if (p.tailing) {
    // On-disk bytes ahead of the tailer: the rest of its current segment plus every
    // later segment up to the newest live one. Segment numbers are contiguous and the
    // retention lease keeps the files stat-able; a freshly opened segment contributes
    // only its 16-byte header, which counts as already consumed.
    Manifest m;
    if (Manifest::Load(dir_, &m) && !m.live_segments.empty()) {
      const std::uint64_t consumed = tail_consumed_.load(std::memory_order_relaxed);
      for (std::uint64_t seg = tail_seg; seg <= m.live_segments.back(); ++seg) {
        std::uint64_t size = 0;
        if (!FileSize(dir_ + "/" + Manifest::SegmentFileName(seg), &size)) {
          continue;
        }
        const std::uint64_t done =
            seg == tail_seg
                ? std::max<std::uint64_t>(consumed, kWalSegmentHeaderBytes)
                : kWalSegmentHeaderBytes;
        p.lag_bytes += size > done ? size - done : 0;
      }
    }
  }
  if (primary_ != nullptr) {
    const std::uint64_t appended = primary_->appended_txns();
    const std::uint64_t seen = p.applied_txns + p.pending_txns;
    p.lag_entries = appended > seen ? appended - seen : 0;
  }
  if (p.last_cut_wall_ns != 0) {
    const std::uint64_t now = NowNanos();
    p.lag_us = now > p.last_cut_wall_ns ? (now - p.last_cut_wall_ns) / 1000 : 0;
  }
  return p;
}

LatencyHistogram Replica::PublishLagHistogram() const {
  SpinlockGuard lock(hist_mu_);
  return publish_lag_;
}

bool Replica::WaitForCutTid(std::uint64_t tid, std::uint64_t timeout_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (applied_cut_tid_.load(std::memory_order_acquire) < tid) {
    if (halted_.load(std::memory_order_acquire) ||
        std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

bool Replica::WaitCaughtUp(std::uint64_t timeout_ms) const {
  DOPPEL_CHECK(primary_ != nullptr);  // "caught up to what?" needs a primary
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const ReplicaProgress p = progress();
    if (p.halted) {
      return false;
    }
    if (p.tailing && p.lag_bytes == 0 && p.pending_txns == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::unique_ptr<Replica> AttachReplica(Database& db, ReplicaOptions opts) {
  WriteAheadLog* wal = db.wal();
  DOPPEL_CHECK(wal != nullptr && wal->logging());  // requires wal_dir and Start()
  auto replica = std::make_unique<Replica>(wal->dir(), std::move(opts));
  replica->AttachPrimary(wal);
  replica->Start();
  return replica;
}

}  // namespace doppel
