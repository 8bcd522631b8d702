// Shared flag parsing and run plumbing for the benchmark binaries.
//
// Every bench accepts:
//   --threads=N      worker threads (default: all CPUs)
//   --seconds=F      measurement seconds per point (default CI-sized per bench)
//   --runs=N         consecutive runs per point, reported as mean [min,max] (default 1)
//   --keys=N         key-space size where applicable
//   --phase-ms=N     Doppel split-phase length and joined-phase ceiling (default 20,
//                    as in the paper)
//   --full           paper-scale parameters (1M keys, 20s runs, 3 repeats)
//   --csv            also emit csv rows
//   --wal-dir=PATH   enable durability logging into PATH (each point prints a
//                    "wal: ..." summary line, so logging overhead is visible in any
//                    bench; each point discards the previous point's durable state
//                    rather than recovering it — this measures logging, not replay)
//   --wal-fsync      fsync every group-commit flush (with --wal-dir)
//   --replica        attach a phase-aligned read replica for each point (with
//                    --wal-dir); the summary line grows replica shipping/apply
//                    watermarks and the publish-lag p99
#ifndef DOPPEL_BENCH_BENCH_COMMON_H_
#define DOPPEL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cpu.h"
#include "src/core/database.h"
#include "src/replica/replica.h"
#include "src/workload/driver.h"
#include "src/workload/report.h"

namespace doppel {
namespace bench {

struct Flags {
  int threads = 0;  // 0 = NumCpus()
  double seconds = 0.0;
  int runs = 1;
  std::uint64_t keys = 0;
  std::uint64_t phase_ms = 20;
  bool full = false;
  bool csv = false;
  std::string wal_dir;  // empty = logging off
  bool wal_fsync = false;
  bool replica = false;  // attach a read replica per point (needs --wal-dir)

  int ResolvedThreads() const { return threads > 0 ? threads : NumCpus(); }
  std::uint64_t MeasureMs(double default_seconds) const {
    const double s = seconds > 0.0 ? seconds : (full ? 20.0 : default_seconds);
    return static_cast<std::uint64_t>(s * 1000.0);
  }
  int Runs() const { return full && runs == 1 ? 3 : runs; }
  std::uint64_t Keys(std::uint64_t ci_default) const {
    return keys > 0 ? keys : (full ? 1000000 : ci_default);
  }
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = val("--threads=")) {
      f.threads = std::atoi(v);
    } else if (const char* v = val("--seconds=")) {
      f.seconds = std::atof(v);
    } else if (const char* v = val("--runs=")) {
      f.runs = std::atoi(v);
    } else if (const char* v = val("--keys=")) {
      f.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--phase-ms=")) {
      f.phase_ms = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--wal-dir=")) {
      f.wal_dir = v;
    } else if (std::strcmp(a, "--wal-fsync") == 0) {
      f.wal_fsync = true;
    } else if (std::strcmp(a, "--replica") == 0) {
      f.replica = true;
    } else if (std::strcmp(a, "--full") == 0) {
      f.full = true;
    } else if (std::strcmp(a, "--csv") == 0) {
      f.csv = true;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "flags: --threads=N --seconds=F --runs=N --keys=N --phase-ms=N --full --csv "
          "--wal-dir=PATH --wal-fsync --replica\n");
      std::exit(0);
    }
  }
  return f;
}

inline Options BaseOptions(const Flags& f, Protocol p, std::size_t capacity) {
  Options o;
  o.protocol = p;
  o.num_workers = f.ResolvedThreads();
  o.phase_us = f.phase_ms * 1000;
  o.store_capacity = capacity;
  if (!f.wal_dir.empty()) {
    // The pointer aliases the Flags string: bench flags outlive every Database they
    // configure. Recovery is skipped (which discards the previous point's durable
    // state) — each point measures logging overhead, not replay.
    o.wal_dir = f.wal_dir.c_str();
    o.wal_fsync = f.wal_fsync;
    o.recover_on_start = false;
  }
  return o;
}

// Mean throughput over f.Runs() fresh databases, built and populated by `make_db` and
// driven by `make_factory`.
struct PointResult {
  RunStats throughput;
  RunMetrics last;
};

template <typename MakeDb, typename MakeFactory>
PointResult MeasurePoint(const Flags& f, double default_seconds, MakeDb&& make_db,
                         MakeFactory&& make_factory) {
  PointResult r;
  for (int run = 0; run < f.Runs(); ++run) {
    auto db = make_db();
    std::unique_ptr<Replica> replica;
    const auto on_started = [&](Database& started) {
      if (f.replica && !f.wal_dir.empty()) {
        replica = AttachReplica(started);
      }
    };
    RunMetrics m = RunWorkload(*db, make_factory(), f.MeasureMs(default_seconds),
                               /*warmup_ms=*/f.full ? 500 : 100, on_started);
    if (replica != nullptr) {
      replica->WaitCaughtUp(/*timeout_ms=*/5000);
      FillReplicaMetrics(*replica, &m);
      replica->Stop();
      replica.reset();  // before the primary Database is destroyed
    }
    r.throughput.Add(m.throughput);
    r.last = std::move(m);
  }
  if (r.last.wal_enabled) {
    std::printf("%s\n", WalSummary(r.last).c_str());
  }
  return r;
}

inline const char* kProtocolHeader[] = {"Doppel", "OCC", "2PL", "Atomic"};

}  // namespace bench
}  // namespace doppel

#endif  // DOPPEL_BENCH_BENCH_COMMON_H_
