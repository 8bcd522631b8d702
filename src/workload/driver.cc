#include "src/workload/driver.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "src/common/cacheline.h"
#include "src/common/timing.h"
#include "src/replica/replica.h"

namespace doppel {
namespace {

void FillWalMetrics(const Database& db, RunMetrics* m) {
  const WriteAheadLog* wal = db.wal();
  if (wal == nullptr) {
    return;
  }
  m->wal_enabled = true;
  m->wal_appended_txns = wal->appended_txns();
  m->wal_flushed_batches = wal->flushed_batches();
  m->wal_flushed_bytes = wal->flushed_bytes();
  m->wal_segments = wal->segments_created();
  m->wal_checkpoints = wal->checkpoints_taken();
  m->wal_cuts = wal->cuts_emitted();
  m->wal_checkpoint_capture_ns = wal->checkpoint_capture_ns();
  m->wal_checkpoint_persist_ns = wal->checkpoint_persist_ns();
  m->wal_checkpoint_image_bytes = wal->checkpoint_image_bytes();
  m->wal_io_retries = wal->io_retries();
  m->wal_checkpoint_failures = wal->checkpoint_failures();
  const DurabilityHealth h = db.durability_health();
  m->wal_degraded = h.degraded;
  m->wal_failed_errno = h.error;
  m->wal_failed_op = h.op;
}

// Post-Stop store occupancy gauges. Warns when chains have grown long enough to tax
// every lookup: the map is fixed-size, so the only fix is a larger store_capacity.
void FillStoreMetrics(const Database& db, RunMetrics* m) {
  const Store& s = db.store();
  m->store_records = s.size();
  m->store_buckets = s.map().bucket_count();
  m->store_load_factor = s.map().load_factor();
  if (db.reclaimer() != nullptr) {
    m->reclaimed_records = db.reclaimer()->reclaimed();
  }
  if (m->store_load_factor > 4.0) {
    std::fprintf(stderr,
                 "WARNING: record map load factor %.2f (%zu records / %zu buckets) "
                 "exceeds 4 - raise store_capacity\n",
                 m->store_load_factor, m->store_records, m->store_buckets);
  }
}

}  // namespace

void FillReplicaMetrics(const Replica& replica, RunMetrics* m) {
  const ReplicaProgress p = replica.progress();
  m->replica_enabled = true;
  m->replica_cut_tid = p.applied_cut_tid;
  m->replica_cuts = p.published_cuts;
  m->replica_applied_txns = p.applied_txns;
  m->replica_shipped_bytes = p.shipped_bytes;
  m->replica_lag_bytes = p.lag_bytes;
  m->replica_lag_entries = p.lag_entries;
  m->replica_publish_lag_p99_us = replica.PublishLagHistogram().Percentile(99) / 1000;
}

RunMetrics RunWorkload(Database& db, SourceFactory factory, std::uint64_t measure_ms,
                       std::uint64_t warmup_ms,
                       const std::function<void(Database&)>& on_started) {
  db.Start(std::move(factory));
  if (on_started) {
    on_started(db);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(warmup_ms));

  const std::uint64_t commits_before = db.SampleTotalCommits();
  Stopwatch clock;
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  const std::uint64_t commits_after = db.SampleTotalCommits();
  const double seconds = clock.ElapsedSeconds();

  db.Stop();

  RunMetrics m;
  m.seconds = seconds;
  m.committed = commits_after - commits_before;
  m.throughput = static_cast<double>(m.committed) / seconds;
  m.stats = db.CollectStats();
  m.split_records = db.LastPlanSize();
  FillWalMetrics(db, &m);
  FillStoreMetrics(db, &m);
  return m;
}

RunMetrics RunWorkloadTimeSeries(Database& db, SourceFactory factory,
                                 std::uint64_t measure_ms, std::uint64_t sample_ms,
                                 TimeSeries* series,
                                 const std::function<void(std::uint64_t ms)>& on_tick) {
  db.Start(std::move(factory));

  const std::uint64_t start_ns = NowNanos();
  std::uint64_t prev_commits = db.SampleTotalCommits();
  std::uint64_t elapsed_ms = 0;
  while (elapsed_ms < measure_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sample_ms));
    elapsed_ms = (NowNanos() - start_ns) / 1000000;
    const std::uint64_t commits = db.SampleTotalCommits();
    series->seconds.push_back(static_cast<double>(NowNanos() - start_ns) * 1e-9);
    series->throughput.push_back(static_cast<double>(commits - prev_commits) /
                                 (static_cast<double>(sample_ms) * 1e-3));
    prev_commits = commits;
    if (on_tick) {
      on_tick(elapsed_ms);
    }
  }
  const std::uint64_t total = db.SampleTotalCommits();
  const double seconds = static_cast<double>(NowNanos() - start_ns) * 1e-9;
  db.Stop();

  RunMetrics m;
  m.seconds = seconds;
  m.committed = total;
  m.throughput = static_cast<double>(total) / seconds;
  m.stats = db.CollectStats();
  m.split_records = db.LastPlanSize();
  FillWalMetrics(db, &m);
  FillStoreMetrics(db, &m);
  return m;
}

namespace {

// Sleeps coarsely, then spins, until `due_ns`; returns immediately when already late
// (open-loop catch-up burst rather than silent rate reduction).
void PaceUntil(std::uint64_t due_ns) {
  while (true) {
    const std::uint64_t now = NowNanos();
    if (now >= due_ns) {
      return;
    }
    const std::uint64_t remaining = due_ns - now;
    if (remaining > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remaining / 2));
    } else {
      CpuRelax();
    }
  }
}

}  // namespace

OpenLoopMetrics RunOpenLoop(Database& db, const RequestGen& gen,
                            const OpenLoopOptions& opts) {
  // Cache-line aligned: adjacent submitters' counters must not false-share while they
  // are incremented millions of times per second in the submission loop.
  struct alignas(kCacheLineSize) SubmitterTally {
    std::uint64_t offered = 0;
    std::uint64_t rejected = 0;
    std::uint64_t accepted = 0;
    std::uint64_t committed = 0;
  };

  db.Start();
  Stopwatch clock;

  std::vector<SubmitterTally> tallies(static_cast<std::size_t>(opts.submitters));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opts.submitters));
  const double per_submitter =
      opts.offered_per_sec > 0.0 ? opts.offered_per_sec / opts.submitters : 0.0;
  const std::uint64_t interval_ns =
      per_submitter > 0.0 ? static_cast<std::uint64_t>(1e9 / per_submitter) : 0;
  const std::uint64_t deadline_ns = NowNanos() + MillisToNanos(opts.measure_ms);

  for (int s = 0; s < opts.submitters; ++s) {
    threads.emplace_back([&, s] {
      SubmitterTally& tally = tallies[static_cast<std::size_t>(s)];
      Rng rng(0xda3e39cb94b95bdbULL * static_cast<std::uint64_t>(s + 1));
      std::deque<TxnHandle> outstanding;
      std::uint64_t due_ns = NowNanos();
      while (NowNanos() < deadline_ns) {
        if (interval_ns != 0) {
          PaceUntil(due_ns);
          due_ns += interval_ns;
        }
        TxnRequest req = gen(s, rng);
        tally.offered++;
        TxnHandle h;
        if (db.TrySubmit(req, &h) == SubmitStatus::kOk) {
          tally.accepted++;
          outstanding.push_back(std::move(h));
          // Bound memory: reap the oldest handle once the window is full. Under backlog
          // this also self-clocks an unpaced submitter to the completion rate.
          if (outstanding.size() >= opts.max_outstanding) {
            tally.committed += outstanding.front().Wait().committed ? 1 : 0;
            outstanding.pop_front();
          }
        } else {
          // Backpressure: the offered transaction is dropped, as an open-loop client
          // would time it out. Unpaced submitters yield so workers can drain.
          tally.rejected++;
          if (interval_ns == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(2));
          }
        }
      }
      for (TxnHandle& h : outstanding) {
        tally.committed += h.Wait().committed ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double seconds = clock.ElapsedSeconds();  // includes the post-deadline drain
  db.Stop();

  OpenLoopMetrics m;
  m.seconds = seconds;
  for (const SubmitterTally& t : tallies) {
    m.offered += t.offered;
    m.rejected += t.rejected;
    m.accepted += t.accepted;
    m.committed += t.committed;
  }
  m.throughput = static_cast<double>(m.committed) / seconds;
  m.stats = db.CollectStats();
  for (int t = 0; t < kNumTags; ++t) {
    m.latency.Merge(m.stats.latency_by_tag[t]);
  }
  return m;
}

}  // namespace doppel
