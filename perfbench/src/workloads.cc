#include "src/workloads.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "src/common/cpu.h"
#include "src/common/rand.h"
#include "src/common/zipf.h"
#include "src/core/database.h"
#include "src/probe.h"
#include "src/rubis/schema.h"
#include "src/rubis_b.h"
#include "src/workload/incr.h"
#include "src/workload/like.h"

namespace perfbench {
namespace {

using doppel::Database;
using doppel::Key;
using doppel::NowNanos;
using doppel::Options;
using doppel::Protocol;
using doppel::Rng;
using doppel::Store;
using doppel::Txn;
using doppel::TxnArgs;
using doppel::TxnRequest;
using doppel::TxnResult;
using doppel::TxnSource;
using doppel::Worker;

// Sizing for a 4-CPU machine: closed loops run 3 pinned workers, leaving one CPU for
// the Doppel coordinator and the WAL flusher; the open loop runs 2 pinned workers plus
// one pinned generator thread.
constexpr int kClosedWorkers = 3;
constexpr int kOpenWorkers = 2;
constexpr int kGeneratorCpu = 2;
// The main thread (set-up, polling, checks) stays off the workers' CPUs.
constexpr int kMainCpu = 3;
// Every workload runs several rounds, each on a fresh database in a fresh process, and
// reports the median round (commit rate, p99) so a burst of host noise that hits one
// round does not move the run; setup_s is the median of the rounds' set-up times.
// like-wal runs fewer, longer rounds: each must commit enough that its one checkpoint
// stall delays well under 1% of requests.
constexpr int kRounds = 5;
constexpr int kLikeWalRounds = 3;
constexpr std::uint64_t kWarmupMs = 200;
constexpr std::uint64_t kPollUs = 500;
constexpr std::uint64_t kSeriesNs = 1000000000;  // commit-rate series: one point a second

constexpr std::uint64_t kIncrKeys = 1000000;
// rubis-b also commits a fixed volume per round (kRubisNominalRate x seconds / rounds):
// its writes insert rows, so a fixed volume keeps the store's final size, and with it
// peak_rss_mb, independent of throughput.
constexpr double kRubisNominalRate = 1.0e6;
constexpr std::uint64_t kLikeUsers = 1000000;
constexpr std::uint64_t kLikePages = 1000000;
constexpr std::uint32_t kIncrHotPct = 90;
constexpr double kLikeAlpha = 1.4;
constexpr std::uint32_t kLikeWritePct = 50;
// like-wal commits a fixed transaction volume per round so every run leaves the same
// durable state behind: kLikeWalNominalRate x (seconds / rounds) commits, with one
// checkpoint requested at three quarters of it. One checkpoint keeps the share of
// requests that wait out its stall well below 1%, so latency_p99_us stays on one side
// of it.
constexpr double kLikeWalNominalRate = 0.5e6;
// like-open's offered load: below the two workers' saturation point. The inboxes are
// deep enough to ride out a phase change at this rate without rejecting requests.
constexpr double kLikeOpenRate = 300000.0;
constexpr std::size_t kLikeOpenInbox = 16384;
// A rejected open-loop request is recorded at this latency: it missed every limit.
constexpr std::uint64_t kRejectedLatencyNs = 1000000000;

// ---- Request context ----
// on_complete_ctx carries (time << 24 | item << 4 | kind) by value, so no request
// allocates: time is the issue (closed loop) or due (open loop) time relative to the
// round epoch, item is RUBiS's bid-on item, kind is the tag or RubisKind.
std::atomic<std::uint64_t> g_epoch_ns{0};
std::atomic<std::uint64_t> g_window_begin{std::numeric_limits<std::uint64_t>::max()};
std::atomic<std::uint64_t> g_window_end{std::numeric_limits<std::uint64_t>::max()};

std::uint64_t RelTime(std::uint64_t ns) {
  const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  return ns > epoch ? ns - epoch : 0;
}

void* EncodeCtx(std::uint64_t rel_ns, std::uint64_t item, std::uint32_t kind) {
  return reinterpret_cast<void*>((rel_ns << 24) | ((item & 0xFFFFF) << 4) | (kind & 0xF));
}
struct Ctx {
  std::uint64_t rel_ns;
  std::uint64_t item;
  std::uint32_t kind;
};
Ctx DecodeCtx(void* p) {
  const auto v = reinterpret_cast<std::uint64_t>(p);
  return Ctx{v >> 24, (v >> 4) & 0xFFFFF, static_cast<std::uint32_t>(v & 0xF)};
}

// Relaxed: the window bounds are set by the main thread at window edges; a worker that
// reads a stale bound misfiles at most the requests issued within one poll interval.
bool InWindow(std::uint64_t rel_ns) {
  return rel_ns >= g_window_begin.load(std::memory_order_relaxed) &&
         rel_ns < g_window_end.load(std::memory_order_relaxed);
}

// Shared completion bookkeeping. Returns false when the request did not commit.
// Callbacks that run on the thread calling Database::Stop come from its shutdown
// sweep: requests the benchmark cut off, which count neither as attempts nor failures.
bool CountCompletion(Probe& p, const TxnResult& r) {
  p.OnComplete(r);
  if (p.abandon_sink) {
    p.abandoned++;
    return false;
  }
  if (!r.committed) {
    p.terminal_failures++;
    return false;
  }
  p.committed++;
  return true;
}

// Closed loop: latency runs from the issue stamp to the commit-time clock read the
// runner stores in Worker::clock_ns just before completion.
void RecordClosedLatency(Probe& p, const Ctx& c, std::uint8_t tag) {
  if (p.worker != nullptr && InWindow(c.rel_ns)) {
    const std::uint64_t end = RelTime(p.worker->clock_ns);
    p.latency[tag].Record(end > c.rel_ns ? end - c.rel_ns : 1);
  }
}

void WriteTagDone(const TxnResult& r, void* ctx) {
  Probe& p = Local();
  if (!CountCompletion(p, r)) {
    return;
  }
  const Ctx c = DecodeCtx(ctx);
  if (c.kind == doppel::kTagWrite) {
    p.committed_writes++;
  }
  RecordClosedLatency(p, c, static_cast<std::uint8_t>(c.kind));
}

void OpenLoopDone(const TxnResult& r, void* ctx) {
  Probe& p = Local();
  const Ctx c = DecodeCtx(ctx);
  if (!CountCompletion(p, r)) {
    return;
  }
  if (c.kind == doppel::kTagWrite) {
    p.committed_writes++;
  }
  if (InWindow(c.rel_ns)) {
    const std::uint64_t now = RelTime(NowNanos());
    p.latency[c.kind].Record(now > c.rel_ns ? now - c.rel_ns : 1);
  }
}

void RubisDone(const TxnResult& r, void* ctx) {
  Probe& p = Local();
  if (!CountCompletion(p, r)) {
    return;
  }
  const Ctx c = DecodeCtx(ctx);
  const bool write = c.kind >= static_cast<std::uint32_t>(RubisKind::kStoreBid);
  if (c.kind == static_cast<std::uint32_t>(RubisKind::kStoreBid)) {
    if (p.bids_by_item.size() <= c.item) {
      p.bids_by_item.resize(std::max<std::size_t>(c.item + 1, 1 << 16), 0);
    }
    p.bids_by_item[c.item]++;
  }
  RecordClosedLatency(p, c, write ? doppel::kTagWrite : doppel::kTagRead);
}

// ---- Transaction bodies (timed data ops; the Traced<> wrapper times the body) ----

void IncrBody(Txn& t, const TxnArgs& a) {
  TimedOp(SpanKind::kWrite, [&] { t.Add(a.k1, 1); });
}

void LikeWriteBody(Txn& t, const TxnArgs& a) {
  TimedOp(SpanKind::kWrite, [&] { t.PutInt(a.k1, static_cast<std::int64_t>(a.k2.lo)); });
  TimedOp(SpanKind::kWrite, [&] { t.Add(a.k2, 1); });
}

void LikeReadBody(Txn& t, const TxnArgs& a) {
  (void)TimedOp(SpanKind::kRead, [&] { return t.GetInt(a.k1); });
  (void)TimedOp(SpanKind::kRead, [&] { return t.GetInt(a.k2); });
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream;
  return doppel::SplitMix64(s);
}

// ---- Closed-loop sources (own seeded Rng; Worker::rng is not used) ----

class Incr1Source : public TxnSource {
 public:
  Incr1Source(std::uint64_t seed, std::uint64_t hot) : rng_(seed), hot_(hot) {}
  TxnRequest Next(Worker& w) override {
    Probe& p = Local();
    p.worker = &w;
    GenTimer timer(p);
    TxnRequest r;
    r.proc = &Traced<IncrBody>;
    r.args.tag = doppel::kTagWrite;
    std::uint64_t key = hot_;
    if (!rng_.Chance(kIncrHotPct)) {
      key = rng_.NextBounded(kIncrKeys - 1);  // uniform over the other keys
      key += key >= hot_ ? 1 : 0;
    }
    r.args.k1 = doppel::IncrKey(key);
    r.on_complete = &WriteTagDone;
    r.on_complete_ctx = EncodeCtx(RelTime(w.clock_ns), 0, doppel::kTagWrite);
    return r;
  }

 private:
  Rng rng_;
  const std::uint64_t hot_;
};

TxnRequest MakeLikeRequest(Rng& rng, const doppel::ZipfianGenerator& zipf) {
  TxnRequest r;
  r.args.k1 = doppel::LikeUserKey(rng.NextBounded(kLikeUsers));
  r.args.k2 = doppel::LikePageKey(zipf.Next(rng));
  if (rng.Chance(kLikeWritePct)) {
    r.proc = &Traced<LikeWriteBody>;
    r.args.tag = doppel::kTagWrite;
  } else {
    r.proc = &Traced<LikeReadBody>;
    r.args.tag = doppel::kTagRead;
    r.read_only = true;
  }
  return r;
}

class LikeSource : public TxnSource {
 public:
  LikeSource(std::uint64_t seed, const doppel::ZipfianGenerator* zipf)
      : rng_(seed), zipf_(zipf) {}
  TxnRequest Next(Worker& w) override {
    Probe& p = Local();
    p.worker = &w;
    GenTimer timer(p);
    TxnRequest r = MakeLikeRequest(rng_, *zipf_);
    r.on_complete = &WriteTagDone;
    r.on_complete_ctx = EncodeCtx(RelTime(w.clock_ns), 0, r.args.tag);
    return r;
  }

 private:
  Rng rng_;
  const doppel::ZipfianGenerator* zipf_;
};

class RubisSource : public TxnSource {
 public:
  RubisSource(const doppel::rubis::Config& cfg, std::uint64_t seed, int worker_id)
      : gen_(cfg, seed, worker_id) {}
  TxnRequest Next(Worker& w) override {
    Probe& p = Local();
    p.worker = &w;
    GenTimer timer(p);
    RubisRequest rr = gen_.Next();
    rr.req.on_complete = &RubisDone;
    rr.req.on_complete_ctx =
        EncodeCtx(RelTime(w.clock_ns), rr.item, static_cast<std::uint32_t>(rr.kind));
    return rr.req;
  }

 private:
  RubisBGenerator gen_;
};

std::string RoundTag(int round) { return "round " + std::to_string(round) + ": "; }

// ---- Round plumbing ----

Options BaseOptions(Protocol p, int workers, std::size_t capacity) {
  Options o;
  o.protocol = p;
  o.num_workers = workers;
  o.pin_threads = true;
  o.store_capacity = capacity;
  return o;
}

// What one round measured; filled in the round's child process and sent to the parent.
struct RoundStats {
  int round = 0;
  double setup_s = 0.0;
  double populate_s = 0.0;
  double bytes_per_record = 0.0;
  double window_s = 0.0;  // untraced part of the window
  std::uint64_t window_commits = 0;
  double traced_s = 0.0;  // traced part (trace runs only)
  std::uint64_t traced_commits = 0;
  std::uint64_t stall_max_ns = 0;
  std::uint64_t ckpt_stall_ns = 0;
  std::uint64_t ckpt_stalls = 0;
  std::uint64_t traced_ckpt_stall_ns = 0;  // the part of ckpt_stall_ns in the traced half
  double split_records = 0.0;
  std::uint64_t cycles = 0;
  doppel::Coordinator::StageTimes stages;
  double run_s = 0.0;  // Start to the end of Stop
  double load_factor = 0.0;
  double records_end = 0.0;
  double peak_rss_mb = 0.0;
  double steal_frac = 0.0;  // share of machine CPU time the hypervisor stole in the window
  std::uint64_t spans = 0;
  std::vector<double> series;  // commits/s per kSeriesNs interval
  std::vector<double> extra;   // workload-specific numbers
  std::string failure;         // first failed correctness check
  Probe probe;                 // merged after Stop

  void Encode(WireWriter* w) const {
    w->Put(round);
    w->Put(setup_s);
    w->Put(populate_s);
    w->Put(bytes_per_record);
    w->Put(window_s);
    w->Put(window_commits);
    w->Put(traced_s);
    w->Put(traced_commits);
    w->Put(stall_max_ns);
    w->Put(ckpt_stall_ns);
    w->Put(ckpt_stalls);
    w->Put(traced_ckpt_stall_ns);
    w->Put(split_records);
    w->Put(cycles);
    w->Put(stages);
    w->Put(run_s);
    w->Put(load_factor);
    w->Put(records_end);
    w->Put(peak_rss_mb);
    w->Put(steal_frac);
    w->Put(spans);
    w->PutVec(series);
    w->PutVec(extra);
    w->PutStr(failure);
    probe.Encode(w);
  }
  void Decode(WireReader* r) {
    r->Get(&round);
    r->Get(&setup_s);
    r->Get(&populate_s);
    r->Get(&bytes_per_record);
    r->Get(&window_s);
    r->Get(&window_commits);
    r->Get(&traced_s);
    r->Get(&traced_commits);
    r->Get(&stall_max_ns);
    r->Get(&ckpt_stall_ns);
    r->Get(&ckpt_stalls);
    r->Get(&traced_ckpt_stall_ns);
    r->Get(&split_records);
    r->Get(&cycles);
    r->Get(&stages);
    r->Get(&run_s);
    r->Get(&load_factor);
    r->Get(&records_end);
    r->Get(&peak_rss_mb);
    r->Get(&steal_frac);
    r->Get(&spans);
    r->GetVec(&series);
    r->GetVec(&extra);
    r->GetStr(&failure);
    probe.Decode(r);
  }
};

int g_next_round = 0;

// Runs one round in a forked child process and returns what it measured. Every round
// starts from the same fresh process: the heap layout a database lands on moves
// contended throughput by up to 2x between databases built one after another in one
// process, and a fresh process also gives each round its own RSS high-water mark.
// The caller must have no other threads running.
RoundStats RunIsolated(const std::function<void(RoundStats*)>& body) {
  RoundStats rs;
  rs.round = ++g_next_round;
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    rs.failure = RoundTag(rs.round) + "pipe failed";
    return rs;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    rs.failure = RoundTag(rs.round) + "fork failed";
    return rs;
  }
  if (pid == 0) {
    close(fds[0]);
    body(&rs);
    rs.peak_rss_mb = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
    WireWriter w;
    rs.Encode(&w);
    const std::string& bytes = w.bytes();
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
      if (n <= 0) {
        _exit(1);
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const int round = rs.round;
  WireReader r(bytes);
  rs.Decode(&r);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !r.done()) {
    rs = RoundStats{};
    rs.round = round;
    rs.failure = RoundTag(round) + "round process failed (status " +
                 std::to_string(status) + ")";
  }
  return rs;
}

// Constructs, populates and starts a database; times set-up.
std::unique_ptr<Database> SetUp(const Options& opts,
                                const std::function<void(Store&)>& populate,
                                doppel::SourceFactory factory, RoundStats* rs) {
  // Threads Start() spawns inherit this affinity: workers re-pin themselves, while the
  // coordinator and WAL flusher stay off the workers' CPUs.
  doppel::PinThreadToCpu(kMainCpu);
  SetRound(rs->round);
  const std::uint64_t rss0 = CurrentRssBytes();
  const std::uint64_t t0 = NowNanos();
  g_epoch_ns.store(t0, std::memory_order_relaxed);
  g_window_begin.store(std::numeric_limits<std::uint64_t>::max(), std::memory_order_relaxed);
  auto db = std::make_unique<Database>(opts);
  const std::uint64_t tp = NowNanos();
  populate(db->store());
  rs->populate_s = doppel::NanosToSeconds(NowNanos() - tp);
  const std::uint64_t rss1 = CurrentRssBytes();
  rs->bytes_per_record = db->store().size() == 0
                             ? 0.0
                             : static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                                   static_cast<double>(db->store().size());
  db->Start(std::move(factory));
  const std::uint64_t t1 = NowNanos();
  rs->setup_s = doppel::NanosToSeconds(t1 - t0);
  rs->run_s = -doppel::NanosToSeconds(t1);
  return db;
}

// Child side: parks a stopped database until the round's process exits. _exit skips
// destructors, so a paper-scale store is not torn down record by record (seconds, plus
// a slow first allocation afterwards while malloc consolidates the freed records).
void LeaveToExit(std::unique_ptr<Database> db) {
  static std::vector<std::unique_ptr<Database>>* parked =
      new std::vector<std::unique_ptr<Database>>();
  parked->push_back(std::move(db));
}

// Stops the database; the calling thread's probe absorbs the shutdown sweep.
void TearDown(Database& db, RoundStats* rs) {
  SetTracing(false);
  Local().abandon_sink = true;
  db.Stop();
  rs->run_s += doppel::NanosToSeconds(NowNanos());
  rs->load_factor = db.store().map().load_factor();
  rs->records_end = static_cast<double>(db.store().size());
  rs->probe = Collect(rs->round);
}

struct WindowSpec {
  double seconds = 1.0;
  std::uint64_t stop_at_commits = 0;  // >0: the window ends at this total commit count
  std::vector<std::uint64_t> checkpoint_at;  // total commit counts
  bool trace = false;
};

// Warms up, then measures one window while polling commit progress from this thread
// (stalls, the per-second commit series, checkpoint requests, split-plan size). In a traced run
// the window's first half runs untraced and its second half traced, so the overhead
// is measured within one database.
void MeasureWindow(Database& db, const WindowSpec& spec, RoundStats* rs) {
  SetTracing(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  const doppel::Coordinator* coord = db.coordinator();
  const doppel::Coordinator::StageTimes st0 =
      coord != nullptr ? coord->stage_times() : doppel::Coordinator::StageTimes{};
  const std::uint64_t cycles0 = coord != nullptr ? coord->completed_cycles() : 0;
  const doppel::WriteAheadLog* wal = db.wal();

  const CpuTicks ticks0 = ReadCpuTicks();
  const std::uint64_t t_begin = NowNanos();
  const std::uint64_t c_begin = db.SampleTotalCommits();
  g_window_end.store(std::numeric_limits<std::uint64_t>::max(), std::memory_order_relaxed);
  g_window_begin.store(RelTime(t_begin), std::memory_order_relaxed);
  std::uint64_t t_half = 0, c_half = 0;
  std::uint64_t last_c = c_begin, last_progress = t_begin;
  std::uint64_t sec_t = t_begin, sec_c = c_begin;
  std::uint64_t ckpts_seen = wal != nullptr ? wal->checkpoints_taken() : 0;
  bool ckpt_in_gap = false;
  std::size_t next_ckpt = 0;
  double plan_sum = 0.0;
  std::uint64_t polls = 0;
  std::uint64_t now = t_begin, c = c_begin;
  while (true) {
    std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    if (wal != nullptr && wal->checkpoints_taken() != ckpts_seen) {
      ckpts_seen = wal->checkpoints_taken();
      ckpt_in_gap = true;
    }
    now = NowNanos();
    c = db.SampleTotalCommits();
    if (c != last_c) {
      const std::uint64_t gap = now - last_progress;
      rs->stall_max_ns = std::max(rs->stall_max_ns, gap);
      if (ckpt_in_gap) {
        rs->ckpt_stall_ns += gap;
        rs->ckpt_stalls++;
        rs->traced_ckpt_stall_ns += t_half != 0 ? gap : 0;
        ckpt_in_gap = false;
      }
      last_c = c;
      last_progress = now;
    }
    while (next_ckpt < spec.checkpoint_at.size() && c >= spec.checkpoint_at[next_ckpt]) {
      db.RequestCheckpoint();
      next_ckpt++;
    }
    plan_sum += static_cast<double>(db.LastPlanSize());
    polls++;
    if (now - sec_t >= kSeriesNs) {
      rs->series.push_back(static_cast<double>(c - sec_c) * 1e9 /
                           static_cast<double>(now - sec_t));
      sec_t = now;
      sec_c = c;
    }
    const double frac =
        spec.stop_at_commits > 0
            ? static_cast<double>(c - c_begin) /
                  static_cast<double>(spec.stop_at_commits > c_begin
                                          ? spec.stop_at_commits - c_begin
                                          : 1)
            : doppel::NanosToSeconds(now - t_begin) / spec.seconds;
    if (spec.trace && t_half == 0 && frac >= 0.5) {
      t_half = now;
      c_half = c;
      SetTracing(true);
    }
    if (frac >= 1.0) {
      break;
    }
  }
  g_window_end.store(RelTime(now), std::memory_order_relaxed);
  SetTracing(false);
  const CpuTicks ticks1 = ReadCpuTicks();
  rs->steal_frac = ticks1.total > ticks0.total
                       ? static_cast<double>(ticks1.steal - ticks0.steal) /
                             static_cast<double>(ticks1.total - ticks0.total)
                       : 0.0;
  if (t_half == 0) {
    t_half = now;
    c_half = c;
  }
  rs->window_s = doppel::NanosToSeconds(t_half - t_begin);
  rs->window_commits = c_half - c_begin;
  rs->traced_s = doppel::NanosToSeconds(now - t_half);
  rs->traced_commits = c - c_half;
  rs->split_records = polls == 0 ? 0.0 : plan_sum / static_cast<double>(polls);
  if (coord != nullptr) {
    const doppel::Coordinator::StageTimes st1 = coord->stage_times();
    rs->stages.joined_ns = st1.joined_ns - st0.joined_ns;
    rs->stages.split_ns = st1.split_ns - st0.split_ns;
    rs->stages.to_split_barrier_ns = st1.to_split_barrier_ns - st0.to_split_barrier_ns;
    rs->stages.to_joined_barrier_ns = st1.to_joined_barrier_ns - st0.to_joined_barrier_ns;
    rs->cycles = coord->completed_cycles() - cycles0;
  }
}

// ---- Aggregation helpers ----

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Us(double ns) { return ns / 1000.0; }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Commit rate of the median round's untraced window.
double MedianRate(const std::vector<const RoundStats*>& rounds) {
  std::vector<double> rates;
  for (const RoundStats* r : rounds) {
    rates.push_back(Ratio(static_cast<double>(r->window_commits), r->window_s));
  }
  return Median(rates);
}

// Tracing overhead: 1 - traced/untraced commit rate, each counted outside checkpoint
// stalls so a stall that lands in one half does not read as overhead.
double TraceOverhead(const std::vector<const RoundStats*>& rounds) {
  double untraced = 0.0, untraced_s = 0.0, traced = 0.0, traced_s = 0.0;
  for (const RoundStats* r : rounds) {
    const double traced_stall = static_cast<double>(r->traced_ckpt_stall_ns) * 1e-9;
    const double untraced_stall =
        static_cast<double>(r->ckpt_stall_ns - r->traced_ckpt_stall_ns) * 1e-9;
    untraced += static_cast<double>(r->window_commits);
    untraced_s += r->window_s - untraced_stall;
    traced += static_cast<double>(r->traced_commits);
    traced_s += r->traced_s - traced_stall;
  }
  return 1.0 - Ratio(Ratio(traced, traced_s), Ratio(untraced, untraced_s));
}

Probe MergedProbe(const std::vector<const RoundStats*>& rounds) {
  Probe p;
  for (const RoundStats* r : rounds) {
    p.Merge(r->probe);
  }
  return p;
}

// Latency percentiles over the rounds' pooled samples, except latency_p99_us (the gated
// one): the median of the rounds' own p99, so one round's burst of slow retries does not
// set the tail of the whole run.
void AddLatency(Result* res, const std::vector<const RoundStats*>& rounds) {
  const Probe p = MergedProbe(rounds);
  const FineHistogram& rd = p.latency[doppel::kTagRead];
  const FineHistogram& wr = p.latency[doppel::kTagWrite];
  FineHistogram all = rd;
  all.Merge(wr);
  std::vector<double> p99s;
  for (const RoundStats* r : rounds) {
    FineHistogram round_all = r->probe.latency[doppel::kTagRead];
    round_all.Merge(r->probe.latency[doppel::kTagWrite]);
    p99s.push_back(Us(round_all.Percentile(99)));
  }
  res->Add("latency_p50_us", Us(all.Percentile(50)), "us");
  res->Add("latency_p99_us", Median(p99s), "us");
  if (rd.count() > 0) {
    res->Add("read_p50_us", Us(rd.Percentile(50)), "us");
    res->Add("read_p99_us", Us(rd.Percentile(99)), "us");
  }
  if (wr.count() > 0) {
    res->Add("write_p50_us", Us(wr.Percentile(50)), "us");
    res->Add("write_p99_us", Us(wr.Percentile(99)), "us");
  }
}

// Verdict, attempts, failures, set-up time and peak RSS over every round.
void AddCommon(Result* res, const std::vector<const RoundStats*>& rounds) {
  std::vector<double> setups;
  double peak = 0.0, steal = 0.0, abandoned = 0.0;
  for (const RoundStats* r : rounds) {
    steal += r->steal_frac;
    abandoned += static_cast<double>(r->probe.abandoned);
    if (!r->failure.empty()) {
      res->Fail(r->failure);
    }
    setups.push_back(r->setup_s);
    peak = std::max(peak, r->peak_rss_mb);
    res->attempted += r->probe.committed + r->probe.terminal_failures;
    res->failed += r->probe.terminal_failures;
    res->spans_written += r->spans;
    res->commits_per_second_series.insert(res->commits_per_second_series.end(),
                                          r->series.begin(), r->series.end());
  }
  res->Add("setup_s", Median(setups), "s");
  res->Add("peak_rss_mb", peak, "MB");
  res->Add("failed_frac", Ratio(static_cast<double>(res->failed),
                                static_cast<double>(res->attempted)),
           "fraction");
  // Requests still queued when a round stopped its database; not attempts.
  res->Add("abandoned", abandoned, "count");
  // Not a property of the program: how much CPU the host took from this machine while
  // the windows ran. A high value flags a run measured on a busy host.
  res->Add("host.steal_frac", Ratio(steal, static_cast<double>(rounds.size())), "fraction");
}

// Layer metrics derived from the traced halves of `rounds`, plus the coordinator and
// store gauges recorded per round.
void AddLayerMetrics(Result* res, const std::vector<const RoundStats*>& rounds) {
  const Probe p = MergedProbe(rounds);
  auto mean_ns = [&](SpanKind k) {
    const int i = static_cast<int>(k);
    return Ratio(static_cast<double>(p.span_ns[i]), static_cast<double>(p.span_count[i]));
  };
  const double commits = static_cast<double>(p.traced_commits);
  res->Add("workload.gen_ns", Ratio(static_cast<double>(p.gen_ns),
                                    static_cast<double>(p.gen_calls)),
           "ns");
  res->Add("workload.gen_late_p99_us", Us(p.gen_late.Percentile(99)), "us");
  res->Add("core.submit_ns", Ratio(static_cast<double>(p.submit_ns),
                                   static_cast<double>(p.submit_calls)),
           "ns");
  res->Add("core.queue_wait_p50_us", Us(p.queue_wait.Percentile(50)), "us");
  res->Add("core.queue_wait_p99_us", Us(p.queue_wait.Percentile(99)), "us");
  res->Add("core.stash_wait_p99_us", Us(p.stash_wait.Percentile(99)), "us");
  res->Add("core.stashes_per_commit", Ratio(static_cast<double>(p.traced_stashes), commits),
           "count");
  res->Add("core.attempts_per_commit",
           Ratio(static_cast<double>(p.traced_attempts), commits), "count");
  res->Add("core.retry_wait_us_per_commit",
           Ratio(Us(static_cast<double>(p.span_ns[static_cast<int>(SpanKind::kRetryWait)])), commits), "us");
  res->Add("core.commit_ns", mean_ns(SpanKind::kCommit), "ns");
  res->Add("txn.body_ns", mean_ns(SpanKind::kBody), "ns");
  res->Add("txn.read_ns", mean_ns(SpanKind::kRead), "ns");
  res->Add("txn.write_ns", mean_ns(SpanKind::kWrite), "ns");
  res->Add("txn.scan_ns", mean_ns(SpanKind::kScan), "ns");
  res->Add("txn.insert_ns", mean_ns(SpanKind::kInsert), "ns");
  res->Add("txn.conflicts_per_commit",
           Ratio(static_cast<double>(p.traced_retries), commits), "count");

  double secs = 0.0, cycles = 0.0, barrier_ns = 0.0, split_ns = 0.0, phase_ns = 0.0;
  double plan = 0.0, populate = 0.0, bpr = 0.0, load = 0.0, records = 0.0;
  for (const RoundStats* r : rounds) {
    secs += r->window_s + r->traced_s;
    cycles += static_cast<double>(r->cycles);
    barrier_ns += static_cast<double>(r->stages.to_split_barrier_ns +
                                      r->stages.to_joined_barrier_ns);
    split_ns += static_cast<double>(r->stages.split_ns);
    phase_ns += static_cast<double>(r->stages.split_ns + r->stages.joined_ns);
    plan += r->split_records;
    populate += r->populate_s;
    bpr += r->bytes_per_record;
    load += r->load_factor;
    records += r->records_end;
  }
  const double n = static_cast<double>(rounds.size());
  res->Add("core.phase_cycles_per_s", Ratio(cycles, secs), "1/s");
  res->Add("core.barrier_us_per_cycle", Ratio(barrier_ns / 1000.0, cycles), "us");
  res->Add("core.split_time_frac", Ratio(split_ns, phase_ns), "fraction");
  res->Add("core.split_records", Ratio(plan, n), "count");
  res->Add("store.populate_s", Ratio(populate, n), "s");
  res->Add("store.bytes_per_record", Ratio(bpr, n), "B");
  res->Add("store.load_factor", Ratio(load, n), "ratio");
  res->Add("store.records_end", Ratio(records, n), "count");
  res->Add("trace.overhead_frac", TraceOverhead(rounds), "fraction");
}

std::vector<const RoundStats*> Ptrs(const std::vector<RoundStats>& v) {
  std::vector<const RoundStats*> out;
  for (const RoundStats& r : v) {
    out.push_back(&r);
  }
  return out;
}

std::uint64_t SumLikes(const Store& store) {
  std::uint64_t sum = 0;
  for (std::uint64_t p = 0; p < kLikePages; ++p) {
    const doppel::Record* r = store.Find(doppel::LikePageKey(p));
    if (r != nullptr) {
      const doppel::Record::IntSnapshot s = r->ReadInt();
      sum += s.present ? static_cast<std::uint64_t>(s.value) : 0;
    }
  }
  return sum;
}

std::int64_t IntAt(const Store& store, const Key& k) {
  const doppel::Record* r = store.Find(k);
  if (r == nullptr) {
    return 0;
  }
  const doppel::Record::IntSnapshot s = r->ReadInt();
  return s.present ? s.value : 0;
}

std::string SpanPath(const RunConfig& cfg) {
  return cfg.out_dir + "/spans-" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
         ".tsv";
}

// Child side, end of a round: appends the round's spans to the run's span file.
void FinishRound(const RunConfig& cfg, RoundStats* rs) {
  if (cfg.trace) {
    rs->spans = WriteSpans(SpanPath(cfg));
  }
}

// ---- incr1-hot: Fig. 8's 90%-hot point, Doppel against OCC and 2PL ----
Result RunIncr1Hot(const RunConfig& cfg) {
  Result res;
  const Protocol engines[] = {Protocol::kDoppel, Protocol::kOcc, Protocol::kTwoPL};
  // Doppel, the gated engine, runs kRounds rounds and 70% of the time; the OCC and 2PL
  // reference points run one round each, between them, so all three see the same
  // stretch of machine time.
  const int order[] = {0, 0, 1, 0, 2, 0, 0};
  const double doppel_share = 0.7;
  std::vector<RoundStats> by_engine[3];
  Rng pick(StreamSeed(cfg.seed, 0));
  const std::uint64_t hot = pick.NextBounded(kIncrKeys);
  int stream = 1;
  for (const int e : order) {
    const double slice = e == 0 ? cfg.seconds * doppel_share / kRounds
                                : cfg.seconds * (1.0 - doppel_share) / 2;
    const std::uint64_t seed = StreamSeed(cfg.seed, stream++);
    by_engine[e].push_back(RunIsolated([&](RoundStats* rs) {
      auto db = SetUp(BaseOptions(engines[e], kClosedWorkers, kIncrKeys),
                      [](Store& s) { doppel::PopulateIncr(s, kIncrKeys); },
                      [seed, hot](int w) {
                        return std::make_unique<Incr1Source>(StreamSeed(seed, 100 + w),
                                                             hot);
                      },
                      rs);
      MeasureWindow(*db, WindowSpec{slice, 0, {}, cfg.trace}, rs);
      TearDown(*db, rs);
      // Gate: the counters sum to the commits, as the engine and the callbacks saw them.
      const Database::Stats stats = db->CollectStats();
      std::uint64_t sum = 0;
      for (std::uint64_t k = 0; k < kIncrKeys; ++k) {
        sum += static_cast<std::uint64_t>(IntAt(db->store(), doppel::IncrKey(k)));
      }
      const std::uint64_t expect = rs->probe.committed + (cfg.plant_wrong_count ? 1 : 0);
      if (sum != expect || stats.committed != rs->probe.committed) {
        rs->failure = RoundTag(rs->round) + doppel::ProtocolName(engines[e]) +
                      " counter sum " + std::to_string(sum) + " != commits " +
                      std::to_string(expect) + " (engine " +
                      std::to_string(stats.committed) + ")";
      }
      FinishRound(cfg, rs);
      LeaveToExit(std::move(db));
    }));
  }
  std::vector<const RoundStats*> all;
  for (auto& v : by_engine) {
    for (const RoundStats* p : Ptrs(v)) {
      all.push_back(p);
    }
  }
  const auto doppel_rounds = Ptrs(by_engine[0]);
  res.Add("commits_per_s", MedianRate(doppel_rounds), "1/s");
  res.Add("occ.commits_per_s", MedianRate(Ptrs(by_engine[1])), "1/s");
  res.Add("2pl.commits_per_s", MedianRate(Ptrs(by_engine[2])), "1/s");
  AddLatency(&res, doppel_rounds);
  AddCommon(&res, all);
  if (cfg.trace) {
    AddLayerMetrics(&res, doppel_rounds);
    const Probe occ = MergedProbe(Ptrs(by_engine[1]));
    const double commits = static_cast<double>(occ.traced_commits);
    res.Add("occ.attempts_per_commit",
            Ratio(static_cast<double>(occ.traced_attempts), commits), "count");
    res.Add("occ.retry_wait_us_per_commit",
            Ratio(Us(static_cast<double>(occ.span_ns[static_cast<int>(SpanKind::kRetryWait)])),
                  commits),
            "us");
  }
  return res;
}

// ---- rubis-b: RUBiS bidding mix at paper scale ----
Result RunRubisB(const RunConfig& cfg) {
  Result res;
  doppel::rubis::Config data;
  data.num_users = 1000000;
  data.num_items = 33000;
  const std::uint64_t volume =
      static_cast<std::uint64_t>(kRubisNominalRate * cfg.seconds / kRounds);
  std::vector<RoundStats> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = StreamSeed(cfg.seed, 1 + round);
    rounds.push_back(RunIsolated([&](RoundStats* rs) {
      auto db = SetUp(BaseOptions(Protocol::kDoppel, kClosedWorkers,
                                  data.num_users * 4 + data.num_items * 8),
                      [&](Store& s) { doppel::rubis::Populate(s, data); },
                      [seed, data](int w) {
                        return std::make_unique<RubisSource>(data, StreamSeed(seed, 100 + w),
                                                             w);
                      },
                      rs);
      MeasureWindow(*db, WindowSpec{0.0, volume, {}, cfg.trace}, rs);
      TearDown(*db, rs);
      // Gate: every item's numBids equals its committed StoreBid count, and maxBid
      // agrees with the recorded max bidder.
      std::vector<std::uint32_t> bids = rs->probe.bids_by_item;
      bids.resize(data.num_items, 0);
      if (cfg.plant_wrong_count) {
        bids[0]++;
      }
      for (std::uint64_t i = 0; i < data.num_items && rs->failure.empty(); ++i) {
        const std::int64_t num_bids = IntAt(db->store(), doppel::rubis::NumBidsKey(i));
        const std::int64_t max_bid = IntAt(db->store(), doppel::rubis::MaxBidKey(i));
        const auto snap = db->store().ReadSnapshot(doppel::rubis::MaxBidderKey(i));
        const auto* bidder = std::get_if<doppel::OrderedTuple>(&snap.value);
        if (num_bids != static_cast<std::int64_t>(bids[i])) {
          rs->failure = RoundTag(rs->round) + "item " + std::to_string(i) + " numBids " +
                        std::to_string(num_bids) + " != committed bids " +
                        std::to_string(bids[i]);
        } else if (bidder == nullptr || (num_bids > 0 && bidder->order.primary != max_bid)) {
          rs->failure = RoundTag(rs->round) + "item " + std::to_string(i) +
                        " maxBidder disagrees with maxBid";
        }
      }
      FinishRound(cfg, rs);
      LeaveToExit(std::move(db));
    }));
  }
  const auto ptrs = Ptrs(rounds);
  res.Add("commits_per_s", MedianRate(ptrs), "1/s");
  AddLatency(&res, ptrs);
  AddCommon(&res, ptrs);
  if (cfg.trace) {
    AddLayerMetrics(&res, ptrs);
  }
  return res;
}

// ---- like-wal: LIKE with the WAL on, checkpoints, then a timed recovery ----

// RoundStats::extra layout for like-wal.
enum LikeWalExtra {
  kFlushedBytes,
  kFlushes,
  kCheckpoints,
  kIoRetries,
  kLogBytesPerCommit,
  kRecoveryNs,
  kRecoveredItems,
  kLikeWalExtras,
};

Result RunLikeWal(const RunConfig& cfg) {
  Result res;
  const doppel::LikeConfig like{kLikeUsers, kLikePages, kLikeWritePct, kLikeAlpha};
  const doppel::ZipfianGenerator zipf(like.num_pages, kLikeAlpha);
  const std::string wal_dir = cfg.out_dir + "/like-wal.db";
  const std::uint64_t volume =
      static_cast<std::uint64_t>(kLikeWalNominalRate * cfg.seconds / kLikeWalRounds);
  std::vector<RoundStats> rounds;
  for (int round = 0; round < kLikeWalRounds; ++round) {
    const std::uint64_t seed = StreamSeed(cfg.seed, 1 + round);
    const bool recover = round + 1 == kLikeWalRounds;
    rounds.push_back(RunIsolated([&](RoundStats* rs) {
      std::filesystem::remove_all(wal_dir);
      std::filesystem::create_directories(wal_dir);
      Options o = BaseOptions(Protocol::kDoppel, kClosedWorkers,
                              like.num_users + like.num_pages);
      o.wal_dir = wal_dir.c_str();
      o.wal_fsync = false;
      o.recover_on_start = false;
      auto db = SetUp(o, [&](Store& s) { doppel::PopulateLike(s, like); },
                      [seed, &zipf](int w) {
                        return std::make_unique<LikeSource>(StreamSeed(seed, 100 + w),
                                                            &zipf);
                      },
                      rs);
      MeasureWindow(*db, WindowSpec{0.0, volume, {3 * volume / 4}, cfg.trace}, rs);
      TearDown(*db, rs);
      const doppel::WriteAheadLog& wal = *db->wal();
      const Database::Stats stats = db->CollectStats();
      rs->extra.assign(kLikeWalExtras, 0.0);
      rs->extra[kFlushedBytes] = static_cast<double>(wal.flushed_bytes());
      rs->extra[kFlushes] = static_cast<double>(wal.flushed_batches());
      rs->extra[kCheckpoints] = static_cast<double>(wal.checkpoints_taken());
      rs->extra[kIoRetries] = static_cast<double>(wal.io_retries());
      rs->extra[kLogBytesPerCommit] = Ratio(static_cast<double>(wal.flushed_bytes()),
                                            static_cast<double>(stats.committed));
      // Gate 1: page likes sum to the committed writes.
      const std::uint64_t expect =
          rs->probe.committed_writes + (cfg.plant_wrong_count ? 1 : 0);
      const std::uint64_t likes = SumLikes(db->store());
      if (likes != expect || stats.committed_by_tag[doppel::kTagWrite] != expect) {
        rs->failure = RoundTag(rs->round) + "likes " + std::to_string(likes) +
                      " != committed writes " + std::to_string(expect);
      }
      if (recover) {
        // Recovery, once per run: reopen the directory and time Start(), which loads
        // the checkpoint and replays the log written after it.
        db.reset();
        Options ro = o;
        ro.recover_on_start = true;
        db = std::make_unique<Database>(ro);
        const std::uint64_t t0 = NowNanos();
        db->Start();
        rs->extra[kRecoveryNs] = static_cast<double>(NowNanos() - t0);
        const doppel::RecoveryResult& rr = db->recovery();
        rs->extra[kRecoveredItems] =
            static_cast<double>(rr.checkpoint_records + rr.replayed_txns);
        // Gate 2: the recovered state holds the same likes.
        const std::uint64_t recovered = SumLikes(db->store());
        if (recovered != expect && rs->failure.empty()) {
          rs->failure = RoundTag(rs->round) + "recovered likes " +
                        std::to_string(recovered) + " != committed writes " +
                        std::to_string(expect);
        }
        Local().abandon_sink = true;
        db->Stop();
      }
      FinishRound(cfg, rs);
      LeaveToExit(std::move(db));
    }));
  }
  std::filesystem::remove_all(wal_dir);
  const auto ptrs = Ptrs(rounds);
  res.Add("commits_per_s", MedianRate(ptrs), "1/s");
  AddLatency(&res, ptrs);
  AddCommon(&res, ptrs);
  std::vector<double> stalls, log_bytes;
  double flushed = 0.0, flushes = 0.0, ckpts = 0.0, retries = 0.0, run_s = 0.0;
  double ckpt_stall_ns = 0.0, ckpt_stalls = 0.0;
  for (const RoundStats* r : ptrs) {
    stalls.push_back(static_cast<double>(r->stall_max_ns) / 1e6);
    if (r->extra.size() != kLikeWalExtras) {
      continue;  // a failed round; the run already reports it
    }
    log_bytes.push_back(r->extra[kLogBytesPerCommit]);
    flushed += r->extra[kFlushedBytes];
    flushes += r->extra[kFlushes];
    ckpts += r->extra[kCheckpoints];
    retries += r->extra[kIoRetries];
    run_s += r->run_s;
    ckpt_stall_ns += static_cast<double>(r->ckpt_stall_ns);
    ckpt_stalls += static_cast<double>(r->ckpt_stalls);
  }
  const RoundStats& last = rounds.back();
  const double recovery_ns =
      last.extra.size() == kLikeWalExtras ? last.extra[kRecoveryNs] : 0.0;
  res.Add("stall_max_ms", Median(stalls), "ms");
  res.Add("log_bytes_per_commit", Median(log_bytes), "B");
  res.Add("recovery_s", recovery_ns * 1e-9, "s");
  if (cfg.trace) {
    AddLayerMetrics(&res, ptrs);
    res.Add("persist.bytes_per_flush", Ratio(flushed, flushes), "B");
    res.Add("persist.flushes_per_s", Ratio(flushes, run_s), "1/s");
    res.Add("persist.checkpoints", Ratio(ckpts, static_cast<double>(ptrs.size())), "count");
    res.Add("persist.checkpoint_stall_ms", Ratio(ckpt_stall_ns / 1e6, ckpt_stalls), "ms");
    res.Add("persist.recovery_ns_per_item",
            Ratio(recovery_ns, last.extra.size() == kLikeWalExtras
                                   ? last.extra[kRecoveredItems]
                                   : 0.0),
            "ns");
    res.Add("persist.io_retries", retries, "count");
  }
  return res;
}

// ---- like-open: LIKE at a fixed offered rate through TrySubmit ----
Result RunLikeOpen(const RunConfig& cfg) {
  Result res;
  const doppel::LikeConfig like{kLikeUsers, kLikePages, kLikeWritePct, kLikeAlpha};
  const doppel::ZipfianGenerator zipf(like.num_pages, kLikeAlpha);
  std::vector<RoundStats> rounds;
  double rejected = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = StreamSeed(cfg.seed, 1 + round);
    rounds.push_back(RunIsolated([&](RoundStats* rs) {
      Options o =
          BaseOptions(Protocol::kDoppel, kOpenWorkers, like.num_users + like.num_pages);
      o.submit_inbox_capacity = kLikeOpenInbox;
      auto db = SetUp(o, [&](Store& s) { doppel::PopulateLike(s, like); }, nullptr, rs);
      // One generator thread, pinned, paces requests by due time and submits each with
      // TrySubmit; latency runs from the due time, so a late generator shows.
      std::atomic<bool> stop{false};
      std::uint64_t round_rejected = 0;
      std::thread gen([&] {
        doppel::PinThreadToCpu(kGeneratorCpu);
        Probe& p = Local();
        Rng rng(seed);
        const double interval_ns = 1e9 / kLikeOpenRate;
        const std::uint64_t t0 = NowNanos();
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const std::uint64_t due =
              t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
          std::uint64_t now = NowNanos();
          while (now < due) {
            now = NowNanos();
          }
          TxnRequest r;
          {
            GenTimer timer(p);
            r = MakeLikeRequest(rng, zipf);
          }
          const std::uint64_t due_rel = RelTime(due);
          r.on_complete = &OpenLoopDone;
          r.on_complete_ctx = EncodeCtx(due_rel, 0, r.args.tag);
          doppel::TxnHandle handle;
          const bool timed = TracingOn() && i % kSampleEvery == 0;
          const std::uint64_t s0 = timed ? NowNanos() : 0;
          const doppel::SubmitStatus st = db->TrySubmit(r, &handle);
          if (timed) {
            p.submit_ns += NowNanos() - s0;
            p.submit_calls++;
          }
          if (InWindow(due_rel)) {
            p.gen_late.Record(now - due + 1);
          }
          if (st != doppel::SubmitStatus::kOk) {
            round_rejected++;
            if (InWindow(due_rel)) {
              p.latency[r.args.tag].Record(kRejectedLatencyNs);
            }
          }
        }
      });
      MeasureWindow(*db, WindowSpec{cfg.seconds / kRounds, 0, {}, cfg.trace}, rs);
      stop.store(true, std::memory_order_relaxed);
      gen.join();
      while (db->InflightSubmissions() != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      }
      TearDown(*db, rs);
      rs->probe.terminal_failures += round_rejected;
      rs->extra.assign(1, static_cast<double>(round_rejected));
      const std::uint64_t expect =
          rs->probe.committed_writes + (cfg.plant_wrong_count ? 1 : 0);
      const std::uint64_t likes = SumLikes(db->store());
      if (likes != expect) {
        rs->failure = RoundTag(rs->round) + "likes " + std::to_string(likes) +
                      " != committed writes " + std::to_string(expect);
      }
      FinishRound(cfg, rs);
      LeaveToExit(std::move(db));
    }));
    if (!rounds.back().extra.empty()) {
      rejected += rounds.back().extra[0];
    }
  }
  const auto ptrs = Ptrs(rounds);
  res.Add("commits_per_s", MedianRate(ptrs), "1/s");
  AddLatency(&res, ptrs);
  AddCommon(&res, ptrs);
  res.Add("rejected", rejected, "count");
  if (cfg.trace) {
    AddLayerMetrics(&res, ptrs);
  }
  return res;
}

}  // namespace

bool RunWorkload(const RunConfig& cfg, Result* res) {
  if (cfg.trace) {
    std::filesystem::remove(SpanPath(cfg));
  }
  if (cfg.workload == "incr1-hot") {
    *res = RunIncr1Hot(cfg);
  } else if (cfg.workload == "rubis-b") {
    *res = RunRubisB(cfg);
  } else if (cfg.workload == "like-wal") {
    *res = RunLikeWal(cfg);
  } else if (cfg.workload == "like-open") {
    *res = RunLikeOpen(cfg);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
