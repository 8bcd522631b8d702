#include "src/probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<int> g_round{0};
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_tracing_since{0};

// Probes are registered once per thread and round and never freed before exit, so the
// main thread can merge them after the round's threads are gone.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Probe>> g_registry;

struct LocalSlot {
  Probe* probe = nullptr;
  int round = -1;
};
thread_local LocalSlot t_slot;
thread_local Probe* t_active = nullptr;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Identifies a request across its attempts: retries and stash replays run the same
// TxnArgs, and submit_ns (issue or acceptance time) separates otherwise equal requests.
std::uint64_t TxnId(const doppel::TxnArgs& a) {
  std::uint64_t h = Mix(a.k1.hi ^ Mix(a.k1.lo));
  h = Mix(h ^ a.k2.hi ^ Mix(a.k2.lo));
  h = Mix(h ^ static_cast<std::uint64_t>(a.n) ^ (std::uint64_t{a.aux} << 8) ^ a.tag);
  h = Mix(h ^ a.submit_ns);
  return h == 0 ? 1 : h;
}

std::uint64_t ReadStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      std::sscanf(line + len, " %lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

void FineHistogram::Merge(const FineHistogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += o.buckets_[i];
  }
  count_ += o.count_;
}

double FineHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0 || static_cast<double>(before + c) < rank) {
      before += c;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const std::size_t shift = (i - kSub) / kSub;
      const std::uint64_t mantissa = kSub + (i - kSub) % kSub;
      lower = static_cast<double>(mantissa << shift);
      width = static_cast<double>(std::uint64_t{1} << shift);
    }
    return lower + width * (rank - static_cast<double>(before) - 0.5) / static_cast<double>(c);
  }
  return 0.0;
}

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kBody: return "body";
    case SpanKind::kRead: return "read";
    case SpanKind::kWrite: return "write";
    case SpanKind::kScan: return "scan";
    case SpanKind::kInsert: return "insert";
    case SpanKind::kStashWait: return "stash_wait";
    case SpanKind::kRetryWait: return "retry_wait";
    case SpanKind::kCommit: return "commit";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Probe::Merge(const Probe& o) {
  abandoned += o.abandoned;
  committed += o.committed;
  committed_writes += o.committed_writes;
  terminal_failures += o.terminal_failures;
  if (bids_by_item.size() < o.bids_by_item.size()) {
    bids_by_item.resize(o.bids_by_item.size(), 0);
  }
  for (std::size_t i = 0; i < o.bids_by_item.size(); ++i) {
    bids_by_item[i] += o.bids_by_item[i];
  }
  for (int t = 0; t < 2; ++t) {
    latency[t].Merge(o.latency[t]);
  }
  gen_late.Merge(o.gen_late);
  submit_calls += o.submit_calls;
  submit_ns += o.submit_ns;
  gen_calls += o.gen_calls;
  gen_ns += o.gen_ns;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    span_ns[k] += o.span_ns[k];
    span_count[k] += o.span_count[k];
  }
  queue_wait.Merge(o.queue_wait);
  stash_wait.Merge(o.stash_wait);
  traced_commits += o.traced_commits;
  traced_attempts += o.traced_attempts;
  traced_stashes += o.traced_stashes;
  traced_retries += o.traced_retries;
}

void Probe::Encode(WireWriter* w) const {
  w->Put(abandoned);
  w->Put(committed);
  w->Put(committed_writes);
  w->Put(terminal_failures);
  w->PutVec(bids_by_item);
  latency[0].Encode(w);
  latency[1].Encode(w);
  gen_late.Encode(w);
  w->Put(submit_calls);
  w->Put(submit_ns);
  w->Put(gen_calls);
  w->Put(gen_ns);
  w->Put(span_ns);
  w->Put(span_count);
  queue_wait.Encode(w);
  stash_wait.Encode(w);
  w->Put(traced_commits);
  w->Put(traced_attempts);
  w->Put(traced_stashes);
  w->Put(traced_retries);
}

void Probe::Decode(WireReader* r) {
  r->Get(&abandoned);
  r->Get(&committed);
  r->Get(&committed_writes);
  r->Get(&terminal_failures);
  r->GetVec(&bids_by_item);
  latency[0].Decode(r);
  latency[1].Decode(r);
  gen_late.Decode(r);
  r->Get(&submit_calls);
  r->Get(&submit_ns);
  r->Get(&gen_calls);
  r->Get(&gen_ns);
  r->Get(&span_ns);
  r->Get(&span_count);
  queue_wait.Decode(r);
  stash_wait.Decode(r);
  r->Get(&traced_commits);
  r->Get(&traced_attempts);
  r->Get(&traced_stashes);
  r->Get(&traced_retries);
}

void Probe::AddSpan(SpanKind kind, std::uint64_t txn, std::uint64_t start,
                    std::uint64_t end, std::uint32_t parent, std::uint32_t id) {
  const int k = static_cast<int>(kind);
  span_ns[k] += end - start;
  span_count[k]++;
  if (spans.size() < kMaxSpansPerProbe) {
    spans.push_back(SpanRecord{txn, start, end, id == 0 ? next_span++ : id, parent, kind});
  }
}

bool Probe::BeginAttempt(const doppel::TxnArgs& a) {
  if (cur_open) {
    // The previous traced attempt on this worker never reached completion: it was
    // stashed or lost a conflict, and the runner queued it for a later attempt.
    pending.emplace(cur.id, cur);
    cur_open = false;
  }
  const std::uint64_t id = TxnId(a);
  // A request issued before tracing began may have run untraced attempts already; its
  // waits cannot be attributed, so only requests issued since then are sampled.
  if (id % kSampleEvery != 0 ||
      a.submit_ns < g_tracing_since.load(std::memory_order_relaxed)) {
    return false;
  }
  const std::uint64_t now = doppel::NowNanos();
  auto it = pending.find(id);
  if (it != pending.end()) {
    cur = it->second;
    pending.erase(it);
    if (cur.stashed) {
      cur.stashes++;
      stash_wait.Record(now - cur.last_end_ns);
      AddSpan(SpanKind::kStashWait, id, cur.last_end_ns, now, cur.root_span);
    } else {
      cur.retries++;
      AddSpan(SpanKind::kRetryWait, id, cur.last_end_ns, now, cur.root_span);
    }
  } else {
    cur = TracedTxn{};
    cur.id = id;
    cur.first_start_ns = now;
    cur.root_span = next_span++;
    if (a.submit_ns != 0 && a.submit_ns <= now) {
      queue_wait.Record(now - a.submit_ns + 1);
      AddSpan(SpanKind::kQueueWait, id, a.submit_ns, now, cur.root_span);
      cur.first_start_ns = a.submit_ns;
    }
  }
  cur.attempts++;
  body_span = next_span++;
  cur.last_end_ns = now;  // body start until EndAttempt
  t_active = this;
  return true;
}

void Probe::EndAttempt(bool stashed) {
  const std::uint64_t now = doppel::NowNanos();
  AddSpan(SpanKind::kBody, cur.id, cur.last_end_ns, now, cur.root_span, body_span);
  cur.last_end_ns = now;
  cur.stashed = stashed;
  cur_open = true;
  t_active = nullptr;
}

void Probe::OnComplete(const doppel::TxnResult& r) {
  if (!cur_open) {
    return;  // the completing request was not sampled
  }
  cur_open = false;
  if (!r.committed) {
    return;
  }
  const std::uint64_t now = doppel::NowNanos();
  AddSpan(SpanKind::kCommit, cur.id, cur.last_end_ns, now, cur.root_span);
  AddSpan(SpanKind::kTxn, cur.id, cur.first_start_ns, now, 0, cur.root_span);
  traced_commits++;
  traced_attempts += cur.attempts;
  traced_stashes += cur.stashes;
  traced_retries += cur.retries;
}

void SetRound(int round) { g_round.store(round, std::memory_order_relaxed); }
int CurrentRound() { return g_round.load(std::memory_order_relaxed); }

// The release store publishes g_tracing_since to any worker whose acquire load sees the
// flag set. A worker that sees a flip late times a few attempts more or fewer, which
// the sampled averages absorb.
void SetTracing(bool on) {
  if (on) {
    g_tracing_since.store(doppel::NowNanos(), std::memory_order_relaxed);
  }
  g_tracing.store(on, std::memory_order_release);
}
bool TracingOn() { return g_tracing.load(std::memory_order_acquire); }

Probe& Local() {
  const int round = CurrentRound();
  if (t_slot.probe == nullptr || t_slot.round != round) {
    auto p = std::make_unique<Probe>();
    p->round = round;
    t_slot.probe = p.get();
    t_slot.round = round;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(p));
  }
  return *t_slot.probe;
}

Probe Collect(int round) {
  Probe total;
  total.round = round;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& p : g_registry) {
    if (p->round == round) {
      total.Merge(*p);
    }
  }
  return total;
}

std::size_t WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return 0;
  }
  if (std::ftell(f) == 0) {
    std::fprintf(f, "round\ttxn\tspan\tparent\tname\tstart_ns\tend_ns\n");
  }
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& p : g_registry) {
    for (const SpanRecord& s : p->spans) {
      std::fprintf(f, "%d\t%016lx\t%u\t%u\t%s\t%lu\t%lu\n", p->round, s.txn, s.id, s.parent,
                   SpanName(s.kind), s.start_ns, s.end_ns);
      n++;
    }
  }
  std::fclose(f);
  return n;
}

Probe* ActiveAttempt() { return t_active; }

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

std::uint64_t PeakRssBytes() { return ReadStatusKb("VmHWM:") * 1024; }
std::uint64_t CurrentRssBytes() { return ReadStatusKb("VmRSS:") * 1024; }

}  // namespace perfbench
