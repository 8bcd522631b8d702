// Public configuration for a Database instance.
#ifndef DOPPEL_SRC_CORE_OPTIONS_H_
#define DOPPEL_SRC_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/store/epoch.h"

namespace doppel {

class IoEnv;  // src/persist/io_env.h

enum class Protocol : std::uint8_t {
  kDoppel = 0,  // phase reconciliation (the paper's contribution)
  kOcc = 1,     // Silo-style OCC baseline
  kTwoPL = 2,   // two-phase locking baseline
  kAtomic = 3,  // atomic-instruction upper bound (single-op transactions only)
};

const char* ProtocolName(Protocol p);

// Contention classifier knobs (§5.5). Defaults are tuned for the paper's workloads; the
// ablation bench sweeps them.
struct ClassifierOptions {
  // Sample 1 in `sample_every` commit-time conflicts during joined phases. Conflicts are
  // already the slow path, so the default samples every abort; raise this on machines
  // with very high abort rates (ablation B sweeps it).
  std::uint32_t sample_every = 1;
  // A record qualifies for splitting when its sampled conflict count over one joined
  // phase reaches both an absolute floor and a fraction of all sampled conflicts.
  std::uint64_t min_conflicts = 4;
  double split_conflict_fraction = 0.01;
  // ... and when at least this share of its conflicts involve a splittable operation.
  // Conflicts attributed to reads (kGet) predict stashes, which cost up to a phase of
  // latency each; 0.25 reproduces the paper's LIKE behaviour of splitting only once
  // ~30% of transactions write (§8.5) and keeps read-mostly records reconciled.
  double min_splittable_fraction = 0.25;
  // Upper bound on simultaneously split records.
  int max_split_records = 64;
  // Retention (split-phase write sampling): a split record stays split while it collects
  // at least `min_split_writes` slice writes per split phase...
  std::uint32_t min_split_writes = 64;
  // ... and while stashed accesses don't exceed `unsplit_stash_ratio` x writes.
  double unsplit_stash_ratio = 2.5;
  // After a stash-pressure unsplit, don't re-split the record for this many phase cycles.
  std::uint32_t resplit_suppress_phases = 16;
};

// Adaptive ordered-index partitioning (coordinator-driven, every engine). Tables
// registered with PartitionConfig::adaptive get their boundary shift narrowed at joined
// quiesce barriers — with every worker parked — when the per-partition telemetry shows
// the load collapsing onto one stripe.
struct IndexTuneOptions {
  // Evaluate a table only once it has absorbed this many new inserts since the last
  // evaluation (the one-stripe share test is meaningless on a trickle).
  std::uint64_t min_inserts = 4096;
  // ... or once the table's stripes absorbed this many new scan conflicts (phantom
  // pressure: inserts keep invalidating scans of a too-wide stripe).
  std::uint64_t scan_conflict_pressure = 64;
};

struct Options {
  Protocol protocol = Protocol::kDoppel;
  // 0 = one worker per available CPU.
  int num_workers = 0;
  // Phase change cadence (§5.4: "usually starts a phase change every 20 milliseconds"):
  // the length of a split phase (stash pressure can end it early) and the ceiling of a
  // joined phase. A split phase that stashed at most 1% of its transactions, with a plan
  // that carries into the next cycle, shortens the next joined phase to phase_us / 10
  // (DoppelEngine::NextJoinedPhaseNs). Under every protocol, also how often the
  // coordinator looks for a due joined-barrier duty (checkpoint, replication cut, index
  // narrowing).
  std::uint64_t phase_us = 20000;
  bool pin_threads = false;
  // Expected record count (the store does not resize).
  std::size_t store_capacity = std::size_t{1} << 20;

  ClassifierOptions classifier;
  IndexTuneOptions index_tune;
  // Epoch-based reclamation of deleted records (src/store/epoch.h). Ignored — treated
  // as disabled — under Protocol::kAtomic, whose lock-free writers defeat the sweep
  // protocol's try-lock proof.
  ReclaimOptions reclaim;
  // Disable automatic detection; only manually labeled records split (ablation §5.5).
  bool manual_split_only = false;

  // Exponential backoff for conflict retries (§8.1).
  std::uint64_t backoff_min_us = 2;
  std::uint64_t backoff_max_us = 1000;

  // Capacity of each per-worker submission inbox (rounded up to a power of two). When
  // every inbox is full, TrySubmit reports SubmitStatus::kQueueFull (backpressure) and
  // blocking Submit spins until a slot frees up.
  std::size_t submit_inbox_capacity = 1024;

  // Durability (extension, §3 of the paper): when non-empty, this directory holds the
  // persistence state — segmented redo logs plus checkpoints under a MANIFEST.
  // Committed transactions' logical operations are appended by an asynchronous batched
  // flusher; commits never wait for disk. On Start the directory is recovered into the
  // store (checkpoint + parallel segment replay) before workers spawn. See
  // src/persist/wal.h.
  const char* wal_dir = "";
  std::uint64_t wal_flush_us = 2000;
  // fsync the active segment on every group-commit flush (and on seal). Off by
  // default: flushed data then survives process death but not OS/power failure — the
  // paper's asynchronous-durability regime. Benches report the overhead either way.
  bool wal_fsync = false;
  // Seal the active segment and rotate once it exceeds this size.
  std::uint64_t wal_segment_bytes = 8ull << 20;
  // The coordinator takes a consistent checkpoint at a joined quiesce barrier at least
  // this often (0 = only when RequestCheckpoint is called), under every protocol.
  // Each checkpoint truncates the sealed log segments it subsumes, bounding disk use
  // and recovery cost by the log volume since the last barrier-aligned snapshot.
  std::uint64_t checkpoint_interval_us = 0;
  // Emit a replication-cut WAL record at a joined quiesce barrier about every phase_us,
  // under every protocol, even when no replica is attached. Cuts are emitted
  // automatically while any retention lease is held (an attached replica), so this is
  // mainly for tests and for pre-populating a log a replica will bootstrap from later.
  // See WriteAheadLog::AppendCut and src/replica/replica.h.
  bool replication_cuts = false;
  // I/O environment for every persistence-layer syscall (nullptr = the passthrough
  // default). Test hook: fault-injection tests install a FaultInjectingIoEnv here to
  // exercise the error taxonomy and degraded mode deterministically.
  IoEnv* io_env = nullptr;
  // Replay the persistence directory into the store on Start. Disabling it DISCARDS
  // the directory's durable state (manifest is repointed at nothing and old files are
  // swept): the new generation's TID clocks restart, so its log can never legally
  // coexist with the old one. For tools/benches that want logging without recovery.
  bool recover_on_start = true;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_OPTIONS_H_
