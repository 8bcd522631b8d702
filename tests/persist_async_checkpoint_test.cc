// Checkpoints split into a barrier-time capture and a background persist: workers keep
// committing while the checkpoint file is written, a checkpoint requested meanwhile is
// deferred (not dropped), Stop and crashes mid-persist lose nothing, a WAL failure
// mid-persist never moves the MANIFEST, and a sharded capture writes the same bytes as
// a single-threaded one. The request and interval cases run under every engine with a
// write path (checkpoints ride the engine-neutral quiesce barrier), and an OCC database
// checkpointing on its interval keeps its log bounded. Also: the slicing-by-8 CRC
// against its bytewise reference, and checkpoint loads routed through the IoEnv seam.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rand.h"
#include "src/core/database.h"
#include "src/persist/checkpoint.h"
#include "src/persist/crc32.h"
#include "src/persist/io_env.h"
#include "src/persist/manifest.h"
#include "tests/persist_test_util.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_THREAD__)
#define DOPPEL_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DOPPEL_TEST_TSAN 1
#endif
#endif

namespace doppel {
namespace {

using testing::FreshDir;
using testing::IntAt;
using testing::ReadFileBytes;
using testing::RemoveDirRecursive;
using testing::WriteFileBytes;

constexpr std::uint64_t kCounters = 4;

std::uint64_t FuzzSeed() {
  const char* env = std::getenv("DOPPEL_FUZZ_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0xfeedULL;
}

// Polls `pred` every millisecond for up to ~10 s.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

std::vector<std::string> FilesWithSuffix(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(name);
    }
  }
  ::closedir(d);
  return out;
}

// A fault-injecting env whose checkpoint tmp-file writes can be held on a latch: while
// armed, the first write to a "*.ckpt.tmp" file parks its caller (the WAL flusher)
// until Release().
class LatchedCheckpointEnv : public FaultInjectingIoEnv {
 public:
  explicit LatchedCheckpointEnv(std::uint64_t seed) : FaultInjectingIoEnv(seed) {}

  void Hold() { hold_.store(true); }
  void Release() { hold_.store(false); }
  bool blocked() const { return blocked_.load(); }
  int tmp_opens() const { return tmp_opens_.load(); }

  int Open(const char* path, int flags, int mode) override {
    const int fd = FaultInjectingIoEnv::Open(path, flags, mode);
    if (fd >= 0 && std::string(path).find(".ckpt.tmp") != std::string::npos) {
      tmp_opens_.fetch_add(1);
      tmp_fd_.store(fd);
    }
    return fd;
  }

  long Write(int fd, const void* buf, std::size_t n) override {
    if (fd == tmp_fd_.load() && hold_.load()) {
      blocked_.store(true);
      while (hold_.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      blocked_.store(false);
    }
    return FaultInjectingIoEnv::Write(fd, buf, n);
  }

  int Close(int fd) override {
    int expected = fd;
    tmp_fd_.compare_exchange_strong(expected, -1);
    return FaultInjectingIoEnv::Close(fd);
  }

 private:
  std::atomic<bool> hold_{false};
  std::atomic<bool> blocked_{false};
  std::atomic<int> tmp_fd_{-1};
  std::atomic<int> tmp_opens_{0};
};

Options MakeOptions(const std::string& dir, IoEnv* env,
                    Protocol protocol = Protocol::kDoppel) {
  Options o;
  o.protocol = protocol;
  o.num_workers = 2;
  o.phase_us = 1000;
  o.store_capacity = 1 << 12;
  o.wal_dir = dir.c_str();
  o.wal_flush_us = 200;
  o.checkpoint_interval_us = 0;  // checkpoints only on request
  o.io_env = env;
  return o;
}

void LoadCounters(Database& db) {
  for (std::uint64_t i = 0; i < kCounters; ++i) {
    db.store().LoadInt(Key::FromU64(i), 0);
  }
}

std::int64_t CounterSum(const Store& store) {
  std::int64_t sum = 0;
  for (std::uint64_t i = 0; i < kCounters; ++i) {
    sum += IntAt(store, Key::FromU64(i));
  }
  return sum;
}

// Commits `n` increments; returns how many committed.
int CommitIncrements(Database& db, int n) {
  int committed = 0;
  for (int i = 0; i < n; ++i) {
    const TxnResult r = db.Execute([i](Txn& txn) {
      txn.Add(Key::FromU64(static_cast<std::uint64_t>(i) % kCounters), 1);
    });
    committed += r.committed ? 1 : 0;
  }
  return committed;
}

std::int64_t RecoveredSum(const std::string& dir) {
  Database db(MakeOptions(dir, nullptr));
  LoadCounters(db);
  db.Start();
  const std::int64_t sum = CounterSum(db.store());
  db.Stop();
  return sum;
}

// ---- CRC32 -----------------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xcbf43926u);
  EXPECT_EQ(Crc32Bytewise(s, 9), 0xcbf43926u);
  EXPECT_EQ(Crc32(s, 0), 0u);
}

TEST(Crc32, SlicingMatchesBytewiseForEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(4096 + 8);
  Rng rng(0xc4c32);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.Next());
  }
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(p, len), Crc32Bytewise(p, len)) << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, ChainedSeedsMatchOneShot) {
  std::vector<unsigned char> buf(4096);
  Rng rng(77);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.Next());
  }
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t a = rng.NextBounded(buf.size() + 1);
    const std::size_t b = a + rng.NextBounded(buf.size() - a + 1);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.Next());
    const std::uint32_t head = Crc32(buf.data(), a, seed);
    ASSERT_EQ(head, Crc32Bytewise(buf.data(), a, seed));
    const std::uint32_t chained = Crc32(buf.data() + a, b - a, head);
    ASSERT_EQ(chained, Crc32Bytewise(buf.data() + a, b - a, head));
    ASSERT_EQ(chained, Crc32(buf.data(), b, seed));
  }
}

// ---- Capture ---------------------------------------------------------------------------

void FillMixedStore(Store& store) {
  PartitionConfig cfg;
  cfg.shift = 4;
  cfg.partitions = 8;
  cfg.adaptive = true;
  store.ConfigureTable(7, cfg);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    store.LoadInt(Key::Table(7, i), static_cast<std::int64_t>(i * 3));
  }
  for (std::uint64_t i = 0; i < 300; ++i) {
    store.LoadBytes(Key::FromU64(100000 + i), std::string(i % 40, 'a' + i % 26));
    OrderedTuple t;
    t.order = OrderKey{static_cast<std::int64_t>(i), -static_cast<std::int64_t>(i)};
    t.core = static_cast<std::uint32_t>(i % 5);
    t.payload = "p" + std::to_string(i);
    store.LoadOrdered(Key::FromU64(200000 + i), t);
    store.LoadTopKItem(Key::FromU64(300000 + i % 17), 4, t);
  }
  // Never-written placeholders are skipped by every capture.
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.GetOrCreate(Key::FromU64(400000 + i), RecordType::kInt64);
  }
}

TEST(CheckpointCapture, ParallelCaptureWritesSameBytesAsSingleThreaded) {
  const std::string dir = FreshDir("ckpt_parallel");
  Store store(1 << 12);
  FillMixedStore(store);

  const CheckpointStats serial =
      Checkpoint::Persist(dir, "serial.ckpt", Checkpoint::Capture(store));
  ASSERT_TRUE(serial.ok());

  CheckpointCapture capture(store);
  std::vector<std::thread> helpers;
  for (int i = 0; i < 4; ++i) {
    helpers.emplace_back([&capture] { capture.Work(); });
  }
  capture.Work();
  for (std::thread& t : helpers) {
    t.join();
  }
  ASSERT_TRUE(capture.Done());
  const CheckpointImage image = capture.TakeImage();
  const CheckpointStats parallel = Checkpoint::Persist(dir, "parallel.ckpt", image);
  ASSERT_TRUE(parallel.ok());

  const std::string a = ReadFileBytes(dir + "/serial.ckpt");
  const std::string b = ReadFileBytes(dir + "/parallel.ckpt");
  EXPECT_EQ(a, b);
  EXPECT_EQ(image.file_bytes(), b.size());
  EXPECT_EQ(serial.records, 3000u + 300u + 300u + 17u);
  EXPECT_EQ(parallel.records, serial.records);
  EXPECT_EQ(parallel.max_tid, serial.max_tid);

  Store recovered(1 << 12);
  const CheckpointStats loaded = Checkpoint::Load(dir + "/parallel.ckpt", &recovered);
  EXPECT_EQ(loaded.records, serial.records);
  EXPECT_EQ(IntAt(recovered, Key::Table(7, 2999)), 2999 * 3);
  EXPECT_EQ(recovered.index().StatsFor(7).shift, 4u);
  RemoveDirRecursive(dir);
}

// The record section must be exactly what one serial walk of the record map encodes
// (the checkpoint format predates sharding): checked against a reference encoder for
// int records, independent of the shard code.
TEST(CheckpointCapture, RecordBytesFollowSerialMapOrder) {
  const std::string dir = FreshDir("ckpt_order");
  Store store(1 << 12);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    store.LoadInt(Key::FromU64(i * 7919), static_cast<std::int64_t>(i) - 2500);
  }
  store.GetOrCreate(Key::FromU64(1), RecordType::kInt64);  // placeholder: skipped

  std::string expected;
  std::uint64_t n = 0;
  store.map().ForEach([&](const Record& r) {
    const Record::IntSnapshot snap = r.ReadInt();
    if (!snap.present) {
      return;
    }
    const auto put = [&expected](const auto& v) {
      expected.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(r.key().hi);
    put(r.key().lo);
    put(snap.tid);
    put(static_cast<std::uint8_t>(RecordType::kInt64));
    put(static_cast<std::uint32_t>(r.topk_k()));
    put(snap.value);
    ++n;
  });
  ASSERT_EQ(n, 5000u);

  CheckpointCapture capture(store);
  std::thread helper([&capture] { capture.Work(); });
  capture.Work();
  helper.join();
  const CheckpointImage image = capture.TakeImage();
  ASSERT_TRUE(Checkpoint::Persist(dir, "c.ckpt", image).ok());
  const std::string file = ReadFileBytes(dir + "/c.ckpt");
  // magic, version, max_tid, layout, n_records | records | crc
  const std::size_t records_at = 8 + 8 + image.layout.size() + 8;
  ASSERT_EQ(file.size(), records_at + expected.size() + 4);
  EXPECT_TRUE(file.compare(records_at, expected.size(), expected) == 0);
  RemoveDirRecursive(dir);
}

// ---- Loads through IoEnv ---------------------------------------------------------------

TEST(CheckpointLoad, FaultOnCheckpointPathMakesTryLoadReturnFalse) {
  const std::string dir = FreshDir("ckpt_tryload");
  Store store(256);
  for (std::uint64_t i = 0; i < 20; ++i) {
    store.LoadInt(Key::FromU64(i), static_cast<std::int64_t>(i) + 1);
  }
  ASSERT_TRUE(Checkpoint::Write(dir, "c.ckpt", store).ok());

  for (const IoOp op : {IoOp::kOpen, IoOp::kStat, IoOp::kPread}) {
    FaultInjectingIoEnv fenv(1);
    FaultRule rule;
    rule.ops = IoOpBit(op);
    rule.path_substring = "c.ckpt";
    rule.err = EIO;
    fenv.AddRule(rule);
    Store target(256);
    CheckpointStats stats;
    EXPECT_FALSE(Checkpoint::TryLoad(dir + "/c.ckpt", &target, &stats, &fenv))
        << IoOpName(op);
    EXPECT_EQ(target.size(), 0u) << "a failed load must touch nothing";
    EXPECT_GE(fenv.injected_faults(), 1u);
  }

  // Transient read errors are retried, not surfaced.
  FaultInjectingIoEnv flaky(2);
  FaultRule eintr;
  eintr.ops = IoOpBit(IoOp::kPread);
  eintr.path_substring = "c.ckpt";
  eintr.err = EINTR;
  eintr.once = true;
  flaky.AddRule(eintr);
  Store target(256);
  CheckpointStats stats;
  ASSERT_TRUE(Checkpoint::TryLoad(dir + "/c.ckpt", &target, &stats, &flaky));
  EXPECT_EQ(stats.records, 20u);
  EXPECT_EQ(IntAt(target, Key::FromU64(19)), 20);

  // A missing file is a clean false as well.
  EXPECT_FALSE(Checkpoint::TryLoad(dir + "/missing.ckpt", &target, &stats));
  RemoveDirRecursive(dir);
}

// ---- Background persist ----------------------------------------------------------------

// The cases that checkpoint on request or on the interval, once per engine.
class AsyncCheckpointEngines : public ::testing::TestWithParam<Protocol> {};

INSTANTIATE_TEST_SUITE_P(Engines, AsyncCheckpointEngines,
                         ::testing::Values(Protocol::kDoppel, Protocol::kOcc,
                                           Protocol::kTwoPL),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(ProtocolName(info.param));
                         });

TEST_P(AsyncCheckpointEngines, WorkersCommitWhilePersistIsHeld) {
  const std::string dir = FreshDir("async_commit");
  LatchedCheckpointEnv env(11);
  int committed = 0;
  {
    Database db(MakeOptions(dir, &env, GetParam()));
    LoadCounters(db);
    db.Start();
    committed += CommitIncrements(db, 100);
    env.Hold();
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return env.blocked(); }));
    EXPECT_TRUE(db.wal()->checkpoint_in_flight());

    // The barrier released long ago: transactions commit while the file write waits.
    committed += CommitIncrements(db, 500);
    EXPECT_EQ(committed, 600);
    EXPECT_TRUE(env.blocked());
    EXPECT_EQ(db.wal()->checkpoints_taken(), 0u);
    EXPECT_GT(db.wal()->checkpoint_capture_ns(), 0u);

    env.Release();
    ASSERT_TRUE(WaitFor([&] { return db.wal()->checkpoints_taken() == 1; }));
    EXPECT_FALSE(db.wal()->checkpoint_in_flight());
    EXPECT_GT(db.wal()->checkpoint_persist_ns(), 0u);

    Manifest m;
    ASSERT_TRUE(Manifest::Load(dir, &m));
    ASSERT_FALSE(m.checkpoint.empty());
    EXPECT_EQ(db.wal()->checkpoint_image_bytes(),
              ReadFileBytes(dir + "/" + m.checkpoint).size());
    db.Stop();
  }
  EXPECT_EQ(RecoveredSum(dir), committed);
  RemoveDirRecursive(dir);
}

TEST_P(AsyncCheckpointEngines, RequestWhileInFlightIsDeferredNotDropped) {
  const std::string dir = FreshDir("async_defer");
  LatchedCheckpointEnv env(12);
  {
    Database db(MakeOptions(dir, &env, GetParam()));
    LoadCounters(db);
    db.Start();
    CommitIncrements(db, 50);
    env.Hold();
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return env.blocked(); }));

    ASSERT_TRUE(db.RequestCheckpoint());
    CommitIncrements(db, 50);
    // Many phases pass; the second request must neither start a second persist nor
    // be consumed.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(env.tmp_opens(), 1);
    EXPECT_EQ(db.wal()->checkpoints_taken(), 0u);

    env.Release();
    ASSERT_TRUE(WaitFor([&] { return db.wal()->checkpoints_taken() == 2; }));
    EXPECT_EQ(env.tmp_opens(), 2);
    EXPECT_EQ(db.wal()->checkpoint_failures(), 0u);
    db.Stop();
  }
  EXPECT_EQ(RecoveredSum(dir), 100);
  RemoveDirRecursive(dir);
}

TEST(AsyncCheckpoint, StopWithPersistInFlightLeavesNoTmpAndRecoversExactly) {
  const std::string dir = FreshDir("async_stop");
  LatchedCheckpointEnv env(13);
  int committed = 0;
  {
    Database db(MakeOptions(dir, &env));
    LoadCounters(db);
    db.Start();
    committed += CommitIncrements(db, 200);
    env.Hold();
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return env.blocked(); }));
    committed += CommitIncrements(db, 200);

    std::thread releaser([&env] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      env.Release();
    });
    db.Stop();  // waits for the persist instead of abandoning it
    releaser.join();
    EXPECT_FALSE(db.wal()->checkpoint_in_flight());
    EXPECT_EQ(db.wal()->checkpoints_taken(), 1u);
  }
  EXPECT_TRUE(FilesWithSuffix(dir, ".tmp").empty());
  EXPECT_EQ(FilesWithSuffix(dir, ".ckpt").size(), 1u);
  EXPECT_EQ(RecoveredSum(dir), committed);
  RemoveDirRecursive(dir);
}

TEST(AsyncCheckpoint, SegmentsRotatedDuringPersistStayLive) {
  const std::string dir = FreshDir("async_rotate");
  LatchedCheckpointEnv env(16);
  Options o = MakeOptions(dir, &env);
  o.wal_segment_bytes = 2048;  // a few dozen entries per segment
  int committed = 0;
  {
    Database db(o);
    LoadCounters(db);
    db.Start();
    committed += CommitIncrements(db, 100);
    env.Hold();
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return env.blocked(); }));
    const std::uint64_t segments_at_seal = db.wal()->segments_created();
    for (int round = 0; round < 10; ++round) {
      committed += CommitIncrements(db, 40);
      db.wal()->Flush();  // the flusher is parked; rotate from here
    }
    EXPECT_GT(db.wal()->segments_created(), segments_at_seal + 2);
    env.Release();
    ASSERT_TRUE(WaitFor([&] { return db.wal()->checkpoints_taken() == 1; }));
    db.Stop();
  }
  EXPECT_EQ(RecoveredSum(dir), committed);
  RemoveDirRecursive(dir);
}

TEST(AsyncCheckpoint, PermanentWalFailureMidPersistNeverSwapsManifest) {
  const std::string dir = FreshDir("async_fail");
  LatchedCheckpointEnv env(14);
  Manifest before;
  {
    Database db(MakeOptions(dir, &env));
    LoadCounters(db);
    db.Start();
    CommitIncrements(db, 100);
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return db.wal()->checkpoints_taken() == 1; }));
    ASSERT_TRUE(Manifest::Load(dir, &before));
    ASSERT_FALSE(before.checkpoint.empty());

    CommitIncrements(db, 100);
    env.Hold();
    ASSERT_TRUE(db.RequestCheckpoint());
    ASSERT_TRUE(WaitFor([&] { return env.blocked(); }));

    // Latch a permanent failure on the log while the image write is parked.
    FaultRule full;
    full.ops = IoOpBit(IoOp::kWrite);
    full.path_substring = "wal-";
    full.err = ENOSPC;
    full.sticky = true;
    env.AddRule(full);
    db.Execute([](Txn& txn) { txn.Add(Key::FromU64(0), 1); });
    db.wal()->Flush();
    ASSERT_TRUE(db.wal()->failed());

    env.Release();
    ASSERT_TRUE(WaitFor([&] { return !db.wal()->checkpoint_in_flight(); }));
    EXPECT_EQ(db.wal()->checkpoints_taken(), 1u);
    EXPECT_GE(db.wal()->checkpoint_failures(), 1u);
    Manifest after;
    ASSERT_TRUE(Manifest::Load(dir, &after));
    EXPECT_EQ(after.checkpoint, before.checkpoint);
    for (std::uint64_t seg : before.live_segments) {
      EXPECT_NE(std::find(after.live_segments.begin(), after.live_segments.end(), seg),
                after.live_segments.end())
          << "segment " << seg << " dropped without a checkpoint covering it";
    }
    EXPECT_EQ(FilesWithSuffix(dir, ".ckpt"), std::vector<std::string>{before.checkpoint});
    EXPECT_TRUE(FilesWithSuffix(dir, ".tmp").empty());
    db.Stop();
  }
  // The reopened store is a committed prefix that includes everything flushed before
  // the failure: the first checkpoint's 100 plus the 100 the second seal flushed.
  const std::int64_t sum = RecoveredSum(dir);
  EXPECT_GE(sum, 200);
  EXPECT_LE(sum, 201);
  RemoveDirRecursive(dir);
}

// Seeded fault schedules on the checkpoint files only, while checkpoints persist in
// the background on a short cadence: every failed persist must roll back (no tmp
// debris, the log stays healthy), and a clean reopen recovers exactly what committed.
TEST_P(AsyncCheckpointEngines, SeededCheckpointFaultsRollBackAndRecoverExactly) {
  Rng rng(FuzzSeed() ^ 0xa5c4ULL);
  constexpr int kSchedules = 6;
  std::uint64_t failures = 0;
  std::uint64_t taken = 0;
  for (int sched = 0; sched < kSchedules; ++sched) {
    const std::string dir = FreshDir("async_fuzz");
    FaultInjectingIoEnv fenv(rng.Next());
    const std::uint64_t n_rules = 1 + rng.NextBounded(2);
    for (std::uint64_t i = 0; i < n_rules; ++i) {
      static const IoOp kOps[] = {IoOp::kOpen, IoOp::kWrite, IoOp::kFsync, IoOp::kRename};
      static const int kErrs[] = {ENOSPC, EIO, EINTR};
      FaultRule r;
      r.ops = IoOpBit(kOps[rng.NextBounded(4)]);
      r.path_substring = "ckpt-";
      r.after = rng.NextBounded(4);
      r.err = kErrs[rng.NextBounded(3)];
      if (r.err == EINTR) {
        r.probability = 0.5;
      } else {
        (rng.NextBounded(2) == 0 ? r.sticky : r.once) = true;
      }
      fenv.AddRule(r);
    }
    Options o = MakeOptions(dir, &fenv, GetParam());
    o.checkpoint_interval_us = 2000;
    int committed = 0;
    {
      Database db(o);
      LoadCounters(db);
      db.Start();
      for (int round = 0; round < 6; ++round) {
        committed += CommitIncrements(db, 60);
        db.RequestCheckpoint();
      }
      db.Stop();
      EXPECT_FALSE(db.wal()->failed()) << "schedule " << sched;
      EXPECT_FALSE(db.wal()->checkpoint_in_flight()) << "schedule " << sched;
      failures += db.wal()->checkpoint_failures();
      taken += db.wal()->checkpoints_taken();
    }
    EXPECT_EQ(committed, 360);
    EXPECT_TRUE(FilesWithSuffix(dir, ".tmp").empty()) << "schedule " << sched;
    EXPECT_EQ(RecoveredSum(dir), committed) << "schedule " << sched;
    RemoveDirRecursive(dir);
  }
  // The schedules must exercise both outcomes to prove anything.
  EXPECT_GT(failures, 0u);
  EXPECT_GT(taken, 0u);
  std::printf("checkpoints taken %llu, rolled back %llu\n",
              static_cast<unsigned long long>(taken),
              static_cast<unsigned long long>(failures));
}

// An OCC database has no split phases, yet its coordinator still quiesces the workers
// when a checkpoint is due: over a long run with small segments, every interval's
// checkpoint retires the sealed segments it subsumes, so the live log stays bounded
// instead of growing with uptime, and a reopen recovers exactly.
TEST(AsyncCheckpoint, OccIntervalCheckpointsKeepLogBounded) {
  const std::string dir = FreshDir("async_bounded");
  Options o = MakeOptions(dir, nullptr, Protocol::kOcc);
  o.wal_segment_bytes = 2048;  // a few dozen entries per segment
  o.checkpoint_interval_us = 5000;
  int committed = 0;
  std::size_t max_live = 0;
  std::uint64_t created = 0;
  {
    Database db(o);
    LoadCounters(db);
    db.Start();
    for (int round = 0; round < 40; ++round) {
      committed += CommitIncrements(db, 100);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      max_live = std::max(max_live, FilesWithSuffix(dir, ".log").size());
    }
    created = db.wal()->segments_created();
    EXPECT_GE(db.wal()->checkpoints_taken(), 5u);
    db.Stop();
  }
  std::printf("segments created %llu, max live %zu\n",
              static_cast<unsigned long long>(created), max_live);
  EXPECT_EQ(committed, 4000);
  // Without checkpoints every segment ever created would still be live.
  EXPECT_GE(created, 60u);
  EXPECT_LE(max_live, 24u) << "live segments grew with the run (" << created
                           << " created)";
  EXPECT_EQ(RecoveredSum(dir), committed);
  RemoveDirRecursive(dir);
}

// Child body (DOPPEL_CHECK, not gtest asserts: they do not work across fork). Takes
// one checkpoint, commits more, then dies while a second checkpoint's file write is
// parked — after an explicit flush, so everything committed is in the log.
[[noreturn]] void CrashMidPersistChild(const std::string& dir,
                                       const std::string& progress_path) {
  LatchedCheckpointEnv env(15);
  Database db(MakeOptions(dir, &env));
  LoadCounters(db);
  db.Start();
  int committed = CommitIncrements(db, 150);
  DOPPEL_CHECK(db.RequestCheckpoint());
  DOPPEL_CHECK(WaitFor([&] { return db.wal()->checkpoints_taken() == 1; }));
  committed += CommitIncrements(db, 150);
  env.Hold();
  DOPPEL_CHECK(db.RequestCheckpoint());
  DOPPEL_CHECK(WaitFor([&] { return env.blocked(); }));
  committed += CommitIncrements(db, 150);
  db.wal()->Flush();
  WriteFileBytes(progress_path + ".tmp", std::to_string(committed));
  DOPPEL_CHECK(std::rename((progress_path + ".tmp").c_str(), progress_path.c_str()) == 0);
  ::_exit(0);  // crash: the second checkpoint never reaches its MANIFEST swap
}

TEST(AsyncCheckpoint, CrashMidPersistRecoversFromOldCheckpointAndSegments) {
#ifdef DOPPEL_TEST_TSAN
  GTEST_SKIP() << "ThreadSanitizer does not support fork of a multithreaded process";
#endif
  const std::string dir = FreshDir("async_crash");
  const std::string progress_path = dir + ".progress";
  std::remove(progress_path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CrashMidPersistChild(dir, progress_path);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const std::int64_t committed =
      std::strtoll(ReadFileBytes(progress_path).c_str(), nullptr, 10);
  ASSERT_EQ(committed, 450);

  Database db(MakeOptions(dir, nullptr));
  LoadCounters(db);
  db.Start();
  EXPECT_TRUE(db.recovery().had_checkpoint);
  EXPECT_EQ(db.recovery().replayed_txns, 300u) << "the first checkpoint must be the base";
  EXPECT_EQ(CounterSum(db.store()), committed);
  db.Stop();
  std::remove(progress_path.c_str());
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace doppel
