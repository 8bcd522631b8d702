// Benchmark-side instrumentation. Nothing here reaches into the library: every number
// comes from timers the benchmark wraps around its own calls into public functions
// (transaction bodies and Txn data operations, Database::TrySubmit, loaders, Start).
//
// Each thread that runs benchmark code owns one Probe per round (a round is one
// Database lifetime). Workers write their probe without synchronisation; the main
// thread merges all probes of a round after Database::Stop has joined the workers.
//
// Tracing samples 1 in kSampleEvery transactions, chosen by a hash of the transaction's
// arguments so every attempt of a sampled transaction is sampled. A sampled
// transaction records spans (name, start, end, parent) that share its id:
//   txn (root) <- queue_wait, body (per attempt), stash_wait, retry_wait, commit
//   body       <- read, write, scan, insert (one per Txn data-op call)
// Spans are kept in memory (bounded per probe) and written out after the run.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/timing.h"
#include "src/txn/request.h"
#include "src/txn/signals.h"
#include "src/txn/txn.h"
#include "src/txn/worker.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kTxn,
  kQueueWait,
  kBody,
  kRead,
  kWrite,
  kScan,
  kInsert,
  kStashWait,
  kRetryWait,
  kCommit,
  kCount,
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kCount);
const char* SpanName(SpanKind k);

struct SpanRecord {
  std::uint64_t txn;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  SpanKind kind;
};

// One traced request in flight on a worker (its latest attempt).
struct TracedTxn {
  std::uint64_t id = 0;
  std::uint64_t first_start_ns = 0;
  std::uint64_t last_end_ns = 0;
  std::uint32_t root_span = 0;
  std::uint32_t attempts = 0;
  std::uint32_t stashes = 0;
  std::uint32_t retries = 0;
  bool stashed = false;  // outcome of the latest attempt, if it did not commit
};

// Byte stream that carries a round's results from the child process that ran it back
// to the parent (see RunIsolated in workloads.cc). Both ends are the same binary.
class WireWriter {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put(v.size());
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void PutStr(const std::string& s) {
    Put(s.size());
    buf_.append(s);
  }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

class WireReader {
 public:
  explicit WireReader(const std::string& bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}
  template <typename T>
  void Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Take(v, sizeof(T));
  }
  template <typename T>
  void GetVec(std::vector<T>* v) {
    std::size_t n = 0;
    Get(&n);
    if (!ok_ || n > static_cast<std::size_t>(end_ - p_) / sizeof(T)) {
      ok_ = false;
      return;
    }
    v->resize(n);
    Take(v->data(), n * sizeof(T));
  }
  void GetStr(std::string* s) {
    std::vector<char> v;
    GetVec(&v);
    s->assign(v.begin(), v.end());
  }
  // True when every read was in bounds and the stream is fully consumed.
  bool done() const { return ok_ && p_ == end_; }

 private:
  void Take(void* out, std::size_t n) {
    if (!ok_ || n > static_cast<std::size_t>(end_ - p_)) {
      ok_ = false;
      return;
    }
    std::memcpy(out, p_, n);
    p_ += n;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// Log-linear histogram with 128 linear sub-buckets per power of two (<0.8% bucket
// width) whose percentiles interpolate within a bucket, so a percentile moves smoothly
// with the data instead of snapping to bucket bounds.
class FineHistogram {
 public:
  FineHistogram() : buckets_(kBuckets, 0) {}
  void Record(std::uint64_t v) {
    buckets_[Index(v)]++;
    count_++;
  }
  void Merge(const FineHistogram& o);
  void Encode(WireWriter* w) const {
    w->PutVec(buckets_);
    w->Put(count_);
  }
  void Decode(WireReader* r) {
    r->GetVec(&buckets_);
    r->Get(&count_);
    buckets_.resize(kBuckets, 0);
  }
  std::uint64_t count() const { return count_; }
  // p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;
  static std::size_t Index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const int e = 63 - __builtin_clzll(v);
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub +
                                    ((v >> (e - kSubBits)) & (kSub - 1)));
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

inline constexpr std::uint64_t kSampleEvery = 32;
inline constexpr std::size_t kMaxSpansPerProbe = 4096;

struct Probe {
  int round = 0;
  // The worker this thread runs (closed-loop sources record it; completion callbacks
  // read its commit-time clock). Null on non-worker threads.
  doppel::Worker* worker = nullptr;
  // Set on the thread that calls Database::Stop: completions it sees come from the
  // shutdown sweep of requests still queued, not from the engine.
  bool abandon_sink = false;
  std::uint64_t abandoned = 0;

  // ---- Always on: correctness counters and end-to-end latency ----
  std::uint64_t committed = 0;
  std::uint64_t committed_writes = 0;  // LIKE: page increments; INCR: increments
  std::uint64_t terminal_failures = 0;
  std::vector<std::uint32_t> bids_by_item;  // RUBiS: committed StoreBid per item
  // Submit-to-commit latency by tag: from the issue stamp (closed loop) or the due
  // time (open loop).
  FineHistogram latency[2];
  FineHistogram gen_late;  // open loop: submit time - due time
  std::uint64_t submit_calls = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t gen_calls = 0;  // sampled generation calls
  std::uint64_t gen_ns = 0;
  std::uint64_t gen_seq = 0;  // every generation call (drives the 1-in-N sample)

  // ---- Traced ----
  std::uint64_t span_ns[kNumSpanKinds] = {};
  std::uint64_t span_count[kNumSpanKinds] = {};
  FineHistogram queue_wait;
  FineHistogram stash_wait;
  std::uint64_t traced_commits = 0;
  std::uint64_t traced_attempts = 0;  // attempts of traced committed txns
  std::uint64_t traced_stashes = 0;
  std::uint64_t traced_retries = 0;
  std::vector<SpanRecord> spans;

  // Attempt tracking (owner thread only).
  TracedTxn cur;
  bool cur_open = false;  // cur's latest attempt ran and has not completed yet
  std::uint32_t body_span = 0;
  std::uint32_t next_span = 1;
  std::unordered_map<std::uint64_t, TracedTxn> pending;  // failed, awaiting a retry

  void Merge(const Probe& o);
  // The aggregate fields (counters and histograms; not spans or attempt tracking).
  void Encode(WireWriter* w) const;
  void Decode(WireReader* r);
  void AddSpan(SpanKind kind, std::uint64_t txn, std::uint64_t start, std::uint64_t end,
               std::uint32_t parent, std::uint32_t id = 0);

  // Body wrapper hooks. BeginAttempt returns false when the request is not sampled.
  bool BeginAttempt(const doppel::TxnArgs& a);
  void EndAttempt(bool stashed);
  // Completion hook; call first thing in every on_complete callback.
  void OnComplete(const doppel::TxnResult& r);
};

// ---- Global switches (set by the main thread between or during rounds) ----
void SetRound(int round);
int CurrentRound();
void SetTracing(bool on);
bool TracingOn();

// The calling thread's probe for the current round (registered on first use).
Probe& Local();
// Merges every probe registered for `round`. Call after the round's threads are joined.
Probe Collect(int round);
// Appends the spans of every probe as tab-separated lines (with a header when the file
// is new); returns the span count.
std::size_t WriteSpans(const std::string& path);

// The probe of a sampled attempt running on this thread, or nullptr.
Probe* ActiveAttempt();

// Times one Txn data-op call when the running attempt is sampled.
template <typename F>
inline auto TimedOp(SpanKind kind, F&& f) {
  Probe* p = ActiveAttempt();
  if (p == nullptr) {
    return f();
  }
  const std::uint64_t start = doppel::NowNanos();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    p->AddSpan(kind, p->cur.id, start, doppel::NowNanos(), p->body_span);
  } else {
    auto result = f();
    p->AddSpan(kind, p->cur.id, start, doppel::NowNanos(), p->body_span);
    return result;
  }
}

// Wraps a transaction body: when tracing, sampled attempts record a body span and feed
// the attempt tracker (queue, stash and retry waits). Stash and conflict exceptions are
// observed and rethrown unchanged.
template <doppel::TxnProc P>
void Traced(doppel::Txn& txn, const doppel::TxnArgs& a) {
  if (!TracingOn()) {
    P(txn, a);
    return;
  }
  Probe& p = Local();
  if (!p.BeginAttempt(a)) {
    P(txn, a);
    return;
  }
  try {
    P(txn, a);
  } catch (const doppel::StashSignal&) {
    p.EndAttempt(/*stashed=*/true);
    throw;
  } catch (...) {
    p.EndAttempt(/*stashed=*/false);
    throw;
  }
  p.EndAttempt(txn.stash_doomed());
}

// Times a generation call 1 in kSampleEvery when tracing.
class GenTimer {
 public:
  explicit GenTimer(Probe& p)
      : p_(p), start_(TracingOn() && (++p.gen_seq % kSampleEvery) == 0
                          ? doppel::NowNanos()
                          : 0) {}
  ~GenTimer() {
    if (start_ != 0) {
      p_.gen_ns += doppel::NowNanos() - start_;
      p_.gen_calls++;
    }
  }
  GenTimer(const GenTimer&) = delete;
  GenTimer& operator=(const GenTimer&) = delete;

 private:
  Probe& p_;
  const std::uint64_t start_;
};

// Machine-wide CPU time from /proc/stat (all CPUs, in clock ticks): the total and the
// part the hypervisor stole. Zero when unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// Peak resident set size of this process (VmHWM), and the current one (VmRSS), in bytes.
std::uint64_t PeakRssBytes();
std::uint64_t CurrentRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
