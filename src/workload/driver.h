// Benchmark drivers.
//
// Closed-loop (§8.1): each worker generates its own transactions via a TxnSource and
// executes them back-to-back for a fixed duration; reports throughput (committed
// transactions / elapsed) and latency stats. "Each point is the mean of three consecutive
// runs, with error bars showing min and max."
//
// Open-loop: external submitter threads push transactions through Database::Submit at a
// paced offered load (or flat out), so submission→commit latency includes inbox queueing
// and backpressure is visible as rejected submissions — the server-facing regime the
// closed-loop driver cannot measure.
#ifndef DOPPEL_SRC_WORKLOAD_DRIVER_H_
#define DOPPEL_SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/core/database.h"

namespace doppel {

struct RunMetrics {
  double seconds = 0.0;
  std::uint64_t committed = 0;
  double throughput = 0.0;  // txns/sec
  Database::Stats stats;    // exact post-stop aggregation (includes warmup)
  std::size_t split_records = 0;
  std::uint64_t phase_cycles = 0;

  // Store occupancy at end of run. The record map never resizes, so a load factor
  // drifting past ~4 means chains are long and store_capacity should grow — the driver
  // warns on stderr when it does. reclaimed_records counts records the epoch sweeper
  // physically freed (0 when reclamation is disabled or the protocol is kAtomic).
  std::size_t store_records = 0;
  std::size_t store_buckets = 0;
  double store_load_factor = 0.0;
  std::uint64_t reclaimed_records = 0;

  // Durability-side accounting (zero when the run had no wal_dir), so logging overhead
  // is visible next to every throughput number. See report.h WalSummary.
  bool wal_enabled = false;
  std::uint64_t wal_appended_txns = 0;
  std::uint64_t wal_flushed_batches = 0;
  std::uint64_t wal_flushed_bytes = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_checkpoints = 0;
  std::uint64_t wal_cuts = 0;  // replication-cut records emitted at phase barriers
  // Checkpoint cost by layer: barrier-side capture (flush, seal, encode) and
  // background persist (CRC, write, fsync, rename, MANIFEST swap), totals over the
  // run, plus the last image's file size.
  std::uint64_t wal_checkpoint_capture_ns = 0;
  std::uint64_t wal_checkpoint_persist_ns = 0;
  std::uint64_t wal_checkpoint_image_bytes = 0;
  // Durability health: transient-I/O retries absorbed inside the persist layer,
  // checkpoints that rolled back (retried at a later barrier), and whether the run
  // ended in read-only degraded mode (plus the first permanent failure's errno and
  // syscall name — wal_failed_op is a static string, never null).
  std::uint64_t wal_io_retries = 0;
  std::uint64_t wal_checkpoint_failures = 0;
  bool wal_degraded = false;
  int wal_failed_errno = 0;
  const char* wal_failed_op = "";

  // Replication-side accounting (FillReplicaMetrics; zero when no replica attached):
  // flushed/shipped/applied watermarks and the staleness bound a replica read carries.
  bool replica_enabled = false;
  std::uint64_t replica_cut_tid = 0;
  std::uint64_t replica_cuts = 0;
  std::uint64_t replica_applied_txns = 0;
  std::uint64_t replica_shipped_bytes = 0;
  std::uint64_t replica_lag_bytes = 0;
  std::uint64_t replica_lag_entries = 0;
  std::uint64_t replica_publish_lag_p99_us = 0;
};

class Replica;
// Copies a replica's shipping/apply watermarks and publish-lag p99 into `m` (sets
// replica_enabled). Call after the replica has caught up for end-of-run numbers.
void FillReplicaMetrics(const Replica& replica, RunMetrics* m);

// Starts `db` with `factory`, warms up, measures for `measure_ms`, stops, aggregates.
// The database must be freshly constructed (Start/Stop are one-shot). `on_started`,
// when set, runs right after Start — before warmup — so callers can attach run-scoped
// observers (e.g. a read replica: AttachReplica requires a started database).
RunMetrics RunWorkload(Database& db, SourceFactory factory, std::uint64_t measure_ms,
                       std::uint64_t warmup_ms = 100,
                       const std::function<void(Database&)>& on_started = nullptr);

// Like RunWorkload but samples cumulative commits every `sample_ms` (Fig. 10). The
// returned series holds throughput (txns/sec) per sample interval.
struct TimeSeries {
  std::vector<double> seconds;
  std::vector<double> throughput;
};
RunMetrics RunWorkloadTimeSeries(Database& db, SourceFactory factory,
                                 std::uint64_t measure_ms, std::uint64_t sample_ms,
                                 TimeSeries* series,
                                 const std::function<void(std::uint64_t ms)>& on_tick);

// ---- Open-loop driver ----

// Generates one request per call on a submitter thread. `submitter_id` is 0-based;
// `rng` is the submitter's private generator.
using RequestGen = std::function<TxnRequest(int submitter_id, Rng& rng)>;

struct OpenLoopOptions {
  int submitters = 4;
  // Total offered load across all submitters, txns/sec. 0 = unpaced: submit as fast as
  // the inboxes accept.
  double offered_per_sec = 0.0;
  std::uint64_t measure_ms = 1000;
  // Per-submitter cap on handles awaited at once; bounds memory at high offered loads.
  std::size_t max_outstanding = 4096;
};

struct OpenLoopMetrics {
  double seconds = 0.0;
  std::uint64_t offered = 0;    // generation attempts (incl. rejected)
  std::uint64_t rejected = 0;   // TrySubmit returned kQueueFull
  std::uint64_t accepted = 0;
  std::uint64_t committed = 0;  // of accepted, handles that reported commit
  double throughput = 0.0;      // committed/sec over the submission window
  // submission→commit latency (stamped at Submit acceptance; includes inbox queueing,
  // conflict retries, and stash delay), merged across all tags.
  LatencyHistogram latency;
  Database::Stats stats;  // exact post-stop aggregation
};

// Starts `db` with no sources, runs `opts.submitters` external threads submitting
// `gen`-produced requests for `opts.measure_ms`, waits for every accepted handle, stops
// the database, and aggregates. The database must be freshly constructed.
OpenLoopMetrics RunOpenLoop(Database& db, const RequestGen& gen,
                            const OpenLoopOptions& opts);

}  // namespace doppel

#endif  // DOPPEL_SRC_WORKLOAD_DRIVER_H_
