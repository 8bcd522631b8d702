#include "src/core/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/cpu.h"
#include "src/common/timing.h"
#include "src/txn/atomic_engine.h"
#include "src/txn/occ_engine.h"
#include "src/txn/twopl_engine.h"

namespace doppel {

// ---- TxnHandle ----

bool TxnHandle::done() const {
  DOPPEL_CHECK(ticket_ != nullptr);
  return ticket_->state.load(std::memory_order_acquire) != 0;
}

TxnResult TxnHandle::Wait() const {
  DOPPEL_CHECK(ticket_ != nullptr);
  int state = ticket_->state.load(std::memory_order_acquire);
  while (state == 0) {
    ticket_->state.wait(0, std::memory_order_acquire);
    state = ticket_->state.load(std::memory_order_acquire);
  }
  return ticket_->result();
}

bool TxnHandle::TryGet(TxnResult* out) const {
  DOPPEL_CHECK(ticket_ != nullptr);
  const int state = ticket_->state.load(std::memory_order_acquire);
  if (state == 0) {
    return false;
  }
  *out = ticket_->result();
  return true;
}

void TxnHandle::OnComplete(std::function<void(const TxnResult&)> cb) {
  DOPPEL_CHECK(ticket_ != nullptr);
  SubmitTicket& t = *ticket_;
  t.cb_mu.lock();
  if (!t.finished) {
    DOPPEL_CHECK(!t.callback);  // at most one callback per handle
    t.callback = std::move(cb);
    t.cb_mu.unlock();
    return;
  }
  t.cb_mu.unlock();
  cb(t.result());  // already terminal: deliver inline on the caller's thread
}

// ---- Database ----

Database::Database(Options opts) : opts_(opts), store_(opts.store_capacity) {
  if (opts_.num_workers <= 0) {
    opts_.num_workers = NumCpus();
  }
  // A worker id lives in the TID's low kWorkerTidBits bits (Silo-style decentralized
  // TID generation). One id past the limit would alias worker 0's TIDs — silently
  // corrupting commit order, WAL replay, and recovery — so refuse loudly up front.
  constexpr int kMaxWorkers = 1 << Worker::kWorkerTidBits;
  if (opts_.num_workers > kMaxWorkers) {
    std::fprintf(stderr,
                 "doppel: num_workers=%d exceeds the %d-worker limit (worker ids must "
                 "fit in the TID's low %d bits)\n",
                 opts_.num_workers, kMaxWorkers, Worker::kWorkerTidBits);
    std::abort();
  }
  runner_cfg_.backoff_min_ns = opts_.backoff_min_us * 1000;
  runner_cfg_.backoff_max_ns = opts_.backoff_max_us * 1000;
  if (opts_.wal_dir != nullptr && opts_.wal_dir[0] != '\0') {
    WalOptions wo;
    wo.flush_interval_us = opts_.wal_flush_us;
    wo.fsync = opts_.wal_fsync;
    wo.segment_bytes = opts_.wal_segment_bytes;
    wo.env = opts_.io_env;
    wal_ = std::make_unique<WriteAheadLog>(opts_.wal_dir, wo);
    runner_cfg_.wal = wal_.get();
    runner_cfg_.degraded = &degraded_;
    // Fires on the thread that hit the permanent failure (flusher, a committing worker,
    // or — if the WAL constructor already failed on mkdir — inline right here). The
    // errno/op details live in the WAL's own latch; this flag just routes the hot paths.
    wal_->SetDurabilityLostCallback(
        [this](int, IoOp) { degraded_.store(true, std::memory_order_release); });
  }

  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        i, 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1)));
    inboxes_.push_back(std::make_unique<SubmitInbox>(opts_.submit_inbox_capacity));
  }

  barrier_ = std::make_unique<QuiesceBarrier>(opts_.num_workers, stop_workers_);

  switch (opts_.protocol) {
    case Protocol::kDoppel: {
      auto engine = std::make_unique<DoppelEngine>(store_, opts_);
      doppel_ = engine.get();
      doppel_->RegisterWorkers(workers_);
      engine_ = std::move(engine);
      break;
    }
    case Protocol::kOcc:
      engine_ = std::make_unique<OccEngine>(store_);
      break;
    case Protocol::kTwoPL:
      engine_ = std::make_unique<TwoPLEngine>(store_);
      break;
    case Protocol::kAtomic:
      engine_ = std::make_unique<AtomicEngine>(store_);
      break;
  }
  coordinator_ = std::make_unique<Coordinator>(*this);
  // Epoch reclamation rides the worker loop of every locking protocol. The Atomic
  // engine is excluded: its writers flip presence without any lock, so the sweeper's
  // try-lock proof of quiescence does not hold there.
  if (opts_.reclaim.enabled && opts_.protocol != Protocol::kAtomic) {
    reclaimer_ = std::make_unique<EpochReclaimer>(
        store_, static_cast<std::size_t>(opts_.num_workers), opts_.reclaim);
  }
}

Database::~Database() { Stop(); }

void Database::MarkSplitManually(const Key& key, OpCode op, std::size_t topk_k) {
  DOPPEL_CHECK(doppel_ != nullptr);
  DOPPEL_CHECK(!started_);
  doppel_->MarkSplitManually(key, op, topk_k);
}

void Database::Start(SourceFactory factory) {
  DOPPEL_CHECK(!started_);
  started_ = true;
  if (wal_ != nullptr) {
    if (opts_.recover_on_start) {
      recovery_ = wal_->Recover(&store_);
      // Seed TID clocks past everything recovered: a fresh worker would otherwise mint
      // TIDs below already-logged ones, corrupting the replay order of the next log
      // generation (non-commutative redo entries sort by TID).
      for (auto& w : workers_) {
        w->last_tid = std::max(w->last_tid, recovery_.max_tid);
      }
    } else {
      // Ignoring the durable state means abandoning it: this generation's TID clocks
      // restart, so its entries must never share a manifest with the old segments (a
      // later recovery would sort the generations' TIDs into one bogus history).
      wal_->DiscardDurableState();
    }
    wal_->StartLogging();
  }
  sources_.clear();
  sources_.resize(static_cast<std::size_t>(opts_.num_workers));
  accepting_.store(true);
  for (auto& w : workers_) {
    // Each worker builds its own source: the client state it writes on every
    // transaction then comes from its own thread's allocator, instead of possibly
    // sharing a cache line with another worker's source on the heap.
    threads_.emplace_back([this, w = w.get(), factory] {
      std::unique_ptr<TxnSource>& source = sources_[static_cast<std::size_t>(w->id)];
      if (factory) {
        source = factory(w->id);
      }
      WorkerMain(*w, source.get());
    });
  }
  threads_.emplace_back([this] { coordinator_->Run(); });
}

void Database::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  // Phase 1: refuse new submissions, then drain the ones already accepted. Workers and
  // the coordinator are still running, so queued, retried, and stashed transactions all
  // reach a terminal state (stashes need the coordinator to reach a joined phase).
  // `draining_` makes the coordinator end any running split phase immediately and start
  // no new one: otherwise a submission stashed on split data keeps this wait pinned for
  // up to a full phase length (or, with recurring splits, indefinitely).
  accepting_.store(false);
  draining_.store(true, std::memory_order_release);
  // Wait while the drain makes progress; give up only if the in-flight count stalls
  // outright (a wedged worker or queue). Bailing out here is what makes the post-join
  // sweep below reachable — it then completes the stuck handles as aborted instead of
  // this loop spinning on them forever.
  std::uint64_t last_inflight = inflight_.load();
  auto stall_start = std::chrono::steady_clock::now();
  while (last_inflight != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    const std::uint64_t cur = inflight_.load();
    if (cur != last_inflight) {
      last_inflight = cur;
      stall_start = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - stall_start >
               std::chrono::seconds(2)) {
      break;
    }
  }
  // Phase 2: coordinator next. It finishes any split phase (reconciling all slices) and
  // then releases the workers.
  stop_coord_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  // Safety net: no ticketed transaction may be left pending after Stop — a leaked ticket
  // hangs TxnHandle::Wait forever. Workers are joined, so their queues are ours to sweep;
  // anything still holding a live SubmitTicket completes as aborted.
  for (auto& w : workers_) {
    while (!w->stash.empty()) {
      AbandonPendingTxn(std::move(w->stash.front()));
      w->stash.pop_front();
    }
    for (RetryItem& item : w->retry_heap) {
      AbandonPendingTxn(std::move(item.txn));
    }
    w->retry_heap.clear();
  }
  for (auto& inbox : inboxes_) {
    PendingTxn pt;
    while (inbox->TryPop(&pt)) {
      AbandonPendingTxn(std::move(pt));
    }
  }
  if (reclaimer_ != nullptr) {
    // Workers are joined: free the pending limbo generation and run one final full-map
    // sweep so post-Stop observers (tests, reports) see the exact reclaimed state.
    Worker& w0 = *workers_.front();
    reclaimer_->DrainAtShutdown(
        [&w0](std::uint64_t max_seen) { return w0.GenerateTid(max_seen); });
  }
  if (wal_ != nullptr) {
    // The coordinator is joined, so no checkpoint can begin any more; let one still
    // persisting finish, so a clean Stop leaves its MANIFEST swap done and no tmp file.
    wal_->WaitForCheckpoint();
    // Workers are joined: every committed transaction has been appended, and the
    // system is fully quiesced — the strongest consistency point there is. Seal the
    // log generation with a final replication cut at the max committed TID (all
    // protocols; AppendCut flushes first), so a tailing replica converges to exactly
    // the primary's final state instead of stalling just short of it at the last
    // barrier cut. A clean Stop therefore never loses acknowledged work to the
    // group-commit window either.
    wal_->AppendCut(MaxCommittedTid());
  }
}

std::uint64_t Database::MaxCommittedTid() const {
  std::uint64_t max_tid = 0;
  for (const auto& w : workers_) {
    max_tid = std::max(max_tid, w->last_tid);
  }
  return max_tid;
}

bool Database::RequestCheckpoint() {
  if (wal_ == nullptr) {
    return false;
  }
  coordinator_->RequestCheckpoint();
  return true;
}

std::size_t Database::TryRunSubmitted(Worker& w) {
  PendingTxn batch[kWorkerBatch];
  const std::size_t n =
      inboxes_[static_cast<std::size_t>(w.id)]->TryPopBatch(batch, kWorkerBatch);
  for (std::size_t i = 0; i < n; ++i) {
    RunPendingTxn(*engine_, runner_cfg_, w, std::move(batch[i]));
  }
  return n;
}

void Database::WorkerMain(Worker& w, TxnSource* source) {
  if (opts_.pin_threads) {
    PinThreadToCpu(w.id);
  }
  // The hot loop is batched: each pass pays the fixed costs — the barrier check, one
  // clock read, the retry/stash/inbox checks — once, then runs up to kWorkerBatch
  // transactions back to back. A batch lasts microseconds, so barriers (ms-scale) are
  // acknowledged promptly; within a pass the priority order (due retries, stashed,
  // submitted, source-generated) is unchanged.
  while (!stop_workers_.load(std::memory_order_relaxed)) {
    barrier_->Acknowledge(w, doppel_, runner_cfg_);
    if (reclaimer_ != nullptr) {
      // Transaction boundary: this worker holds no record pointers, the moment the
      // epoch protocol counts. Worker 0's tick additionally drives sweep/free steps.
      const std::uint64_t seen = reclaimer_->Tick(
          static_cast<std::size_t>(w.id),
          [&w](std::uint64_t max_seen) { return w.GenerateTid(max_seen); });
      if (seen != w.epoch_seen) {
        // The observed epoch moved: generations cached under the old epoch may cover
        // records the sweeper has since unlinked. Invalidating here — before the free
        // gate (two advances, each requiring every worker to pass this line) can open —
        // is what makes Txn's cross-transaction route cache safe.
        w.epoch_seen = seen;
        w.txn.InvalidateRouteCache();
      }
    }

    const std::uint64_t now = NowNanos();
    w.clock_ns = now;
    bool ran = false;
    for (int i = 0; i < kWorkerBatch && w.HasDueRetry(w.clock_ns); ++i) {
      std::pop_heap(w.retry_heap.begin(), w.retry_heap.end());
      PendingTxn pt = std::move(w.retry_heap.back().txn);
      w.retry_heap.pop_back();
      RunPendingTxn(*engine_, runner_cfg_, w, std::move(pt));
      ran = true;
    }
    if (ran) {
      continue;
    }
    for (int i = 0;
         i < kWorkerBatch && !w.stash.empty() && w.LoadPhase() == Phase::kJoined;
         ++i) {
      PendingTxn pt = std::move(w.stash.front());
      w.stash.pop_front();
      RunPendingTxn(*engine_, runner_cfg_, w, std::move(pt));
      ran = true;
    }
    if (ran) {
      continue;
    }
    if (TryRunSubmitted(w) != 0) {
      continue;
    }
    if (source != nullptr) {
      for (int i = 0; i < kWorkerBatch; ++i) {
        TxnRequest req = source->Next(w);
        // Stamp from the worker's clock cache: refreshed at the pass boundary above and
        // by each commit's latency read, so the stamp is the previous transaction's end
        // time — the moment this closed-loop "client" issued the next request — without
        // a second clock read per transaction.
        req.args.submit_ns = w.clock_ns;
        PendingTxn pt;
        pt.req = req;
        RunPendingTxn(*engine_, runner_cfg_, w, std::move(pt));
      }
      continue;
    }
    // Idle (submission-only mode): nap briefly, staying responsive to phase changes and
    // fresh inbox arrivals.
    std::this_thread::sleep_for(std::chrono::microseconds(w.retry_heap.empty() ? 20 : 5));
  }
}

SubmitStatus Database::TrySubmitPending(PendingTxn&& pt, std::uint32_t start_inbox,
                                        bool failover, TxnHandle* handle) {
  DOPPEL_CHECK(started_);
  DOPPEL_CHECK(pt.ticket != nullptr);
  // Charge the drain counter before the accepting_ check (both sides seq_cst): Stop()'s
  // drain loop then observes either this in-flight submission or nothing at all — never
  // a push it has already stopped waiting for.
  pt.ticket->inflight = &inflight_;
  inflight_.fetch_add(1);
  if (!accepting_.load()) {
    inflight_.fetch_sub(1);
    return SubmitStatus::kStopped;
  }
  if (!pt.req.read_only && degraded_.load(std::memory_order_acquire)) {
    // Read-only degraded mode: bounce writes at the door instead of queueing work that
    // the runner's commit-time gate would only terminate with kDurabilityLost anyway.
    // Submissions declared read_only pass; a lying body is still caught at commit.
    inflight_.fetch_sub(1);
    return SubmitStatus::kReadOnly;
  }
  // Stamp at acceptance, not first execution: reported latency must include queueing.
  pt.req.args.submit_ns = NowNanos();
  std::shared_ptr<SubmitTicket> ticket = pt.ticket;
  const std::size_t n = inboxes_.size();
  const std::size_t attempts = failover ? n : 1;
  for (std::size_t i = 0; i < attempts; ++i) {
    if (inboxes_[(start_inbox + i) % n]->TryPush(pt)) {
      *handle = TxnHandle(std::move(ticket));
      return SubmitStatus::kOk;
    }
  }
  inflight_.fetch_sub(1);
  return SubmitStatus::kQueueFull;
}

TxnHandle Database::SubmitPendingBlocking(PendingTxn&& pt, std::uint32_t start_inbox,
                                          bool failover) {
  TxnHandle handle;
  while (true) {
    const SubmitStatus s = TrySubmitPending(std::move(pt), start_inbox, failover, &handle);
    if (s == SubmitStatus::kOk) {
      return handle;
    }
    if (s == SubmitStatus::kStopped) {
      // Stop() began while we were blocked on backpressure (or the caller raced Stop):
      // reject gracefully with a handle that reports the abort, never a crash.
      pt.ticket->Finish(TxnAbort::kUser);
      return TxnHandle(std::move(pt.ticket));
    }
    if (s == SubmitStatus::kReadOnly) {
      // Degraded mode is one-way: blocking would never unblock. Terminal ticket with
      // the durability-lost abort so Wait() reports why.
      pt.ticket->Finish(TxnAbort::kDurabilityLost);
      return TxnHandle(std::move(pt.ticket));
    }
    // Inbox(es) full: yield briefly, then retry from the same starting inbox.
    std::this_thread::sleep_for(std::chrono::microseconds(5));
  }
}

TxnHandle Database::Submit(TxnRequest req) {
  DOPPEL_CHECK(req.proc != nullptr);  // a null proc would kill a worker thread later
  PendingTxn pt;
  pt.req = req;
  pt.ticket = std::make_shared<SubmitTicket>();
  return SubmitPendingBlocking(std::move(pt), next_inbox_.fetch_add(1),
                               /*failover=*/true);
}

TxnHandle Database::Submit(std::function<void(Txn&)> fn) {
  PendingTxn pt;
  pt.ticket = std::make_shared<SubmitTicket>();
  pt.ticket->fn = std::move(fn);
  return SubmitPendingBlocking(std::move(pt), next_inbox_.fetch_add(1),
                               /*failover=*/true);
}

SubmitStatus Database::TrySubmit(const TxnRequest& req, TxnHandle* handle) {
  DOPPEL_CHECK(req.proc != nullptr);
  PendingTxn pt;
  pt.req = req;
  pt.ticket = std::make_shared<SubmitTicket>();
  return TrySubmitPending(std::move(pt), next_inbox_.fetch_add(1), /*failover=*/true,
                          handle);
}

std::vector<TxnHandle> Database::SubmitBatch(std::span<const TxnRequest> reqs) {
  std::vector<TxnHandle> handles;
  handles.reserve(reqs.size());
  // One cursor reservation for the whole batch: request i goes to inbox (start + i) % n,
  // so consecutive requests land on consecutive workers and order is preserved within
  // each inbox.
  const std::uint32_t start =
      next_inbox_.fetch_add(static_cast<std::uint32_t>(reqs.size()));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    DOPPEL_CHECK(reqs[i].proc != nullptr);
    PendingTxn pt;
    pt.req = reqs[i];
    pt.ticket = std::make_shared<SubmitTicket>();
    // No failover: a full designated inbox blocks this entry rather than reordering it
    // behind a later same-inbox entry.
    handles.push_back(SubmitPendingBlocking(
        std::move(pt), start + static_cast<std::uint32_t>(i), /*failover=*/false));
  }
  return handles;
}

TxnResult Database::Execute(std::function<void(Txn&)> fn) {
  return Submit(std::move(fn)).Wait();
}

std::uint64_t Database::SampleTotalCommits() const {
  std::uint64_t sum = 0;
  for (const auto& w : workers_) {
    sum += w->shared_commits.Load();
  }
  return sum;
}

DurabilityHealth Database::durability_health() const {
  DurabilityHealth h;
  if (wal_ == nullptr) {
    return h;
  }
  h.degraded = wal_->failed();
  if (h.degraded) {
    h.error = wal_->failed_errno();
    h.op = IoOpName(wal_->failed_op());
  }
  return h;
}

Database::Stats Database::CollectStats() const {
  Stats s;
  for (const auto& w : workers_) {
    s.committed += w->committed;
    s.committed_split_phase += w->committed_split_phase;
    s.conflicts += w->conflicts;
    s.stash_events += w->stash_events;
    s.user_aborts += w->user_aborts;
    s.type_mismatch_aborts += w->type_mismatch_aborts;
    s.durability_aborts += w->durability_aborts;
    for (int t = 0; t < kNumTags; ++t) {
      s.committed_by_tag[t] += w->committed_by_tag[t];
      s.latency_by_tag[t].Merge(w->latency_by_tag[t]);
    }
  }
  return s;
}

}  // namespace doppel
