// Scan contention: throughput of a mixed workload where scanners range-scan a fixed
// window of keys while writers increment one hot key inside that window, Doppel vs OCC.
//
// Under OCC every scan records the hot record in its read set, so each concurrent
// increment invalidates in-flight scans and the two halves of the workload serialize.
// Under Doppel the classifier splits the hot key; scans that meet the split record
// during a split phase are stashed (split data is unreadable mid-scan, §7) and retire in
// the next joined phase, while the increments fan out across per-core slices — the
// stash/throughput tradeoff this bench makes visible (stash column).
//
// A second experiment measures dense-key insert scaling: every worker bulk-inserts rows
// whose ids all sit far below 2^40. Under the fixed default layout (shift 40) the whole
// table serializes on one partition stripe; a tuned per-table PartitionConfig gives each
// worker's id range its own stripe; the adaptive layout starts at the bad default and
// lets the coordinator narrow the boundaries from the observed telemetry.
#include <memory>

#include "bench/bench_common.h"

namespace doppel {
namespace {

constexpr std::uint32_t kScanTable = 2;  // clear of the INCR (0) and RUBiS (16+) tables
constexpr std::uint32_t kDenseTable = 3;
constexpr std::uint64_t kDenseStride = 1ULL << 20;  // per-worker id range, all < 2^26

void ScanWindowProc(Txn& t, const TxnArgs& a) {
  // a.k1.lo = inclusive window end. Consume the values so the scan cannot be elided.
  std::int64_t sum = 0;
  t.Scan(kScanTable, 0, a.k1.lo, 0, [&](const Key&, const ReadResult& v) {
    sum += v.i;
    return true;
  });
  if (sum < 0) {
    t.UserAbort();  // unreachable; keeps `sum` observable
  }
}

void AddHotProc(Txn& t, const TxnArgs& a) { t.Add(a.k1, 1); }

class ScanContentionSource : public TxnSource {
 public:
  ScanContentionSource(std::uint64_t window, std::uint32_t scan_pct)
      : window_(window), scan_pct_(scan_pct) {}

  TxnRequest Next(Worker& w) override {
    TxnRequest r;
    if (w.rng.NextBounded(100) < scan_pct_) {
      r.proc = &ScanWindowProc;
      r.args.tag = kTagRead;
      r.args.k1 = Key::Table(kScanTable, window_ - 1);
    } else {
      r.proc = &AddHotProc;
      r.args.tag = kTagWrite;
      r.args.k1 = Key::Table(kScanTable, window_ / 2);  // the hot key sits mid-window
    }
    return r;
  }

 private:
  const std::uint64_t window_;
  const std::uint32_t scan_pct_;
};

// ---- Dense-key insert scaling ---------------------------------------------------------

void InsertDenseProc(Txn& t, const TxnArgs& a) { t.PutInt(a.k1, 1); }

class DenseInsertSource : public TxnSource {
 public:
  TxnRequest Next(Worker& w) override {
    TxnRequest r;
    r.proc = &InsertDenseProc;
    r.args.tag = kTagWrite;
    // Wrap within the worker's id range: a very long run overwrites its own keys
    // instead of spilling into the next worker's stripe (which would silently break
    // the one-stripe-per-worker premise this experiment measures).
    r.args.k1 = Key::Table(
        kDenseTable, static_cast<std::uint64_t>(w.id) * kDenseStride + next_);
    next_ = (next_ + 1) % kDenseStride;
    return r;
  }

 private:
  std::uint64_t next_ = 0;
};

void RunDenseInsertScaling(const bench::Flags& flags) {
  struct Layout {
    const char* name;
    Protocol proto;
    bool configure;
    PartitionConfig cfg;
  };
  const unsigned tuned_shift = 20;  // one worker id range (kDenseStride) per stripe
  const Layout layouts[] = {
      {"fixed-shift40", Protocol::kOcc, false, {}},
      {"tuned-shift20", Protocol::kOcc, true, {tuned_shift, 64, false}},
      {"adaptive", Protocol::kDoppel, true, {40, 64, true}},
  };

  std::printf("\nDense insert scaling: per-worker bulk inserts, ids all below 2^26\n");
  std::printf("(fixed default layout serializes every insert on stripe 0)\n\n");
  Table table({"layout", "proto", "inserts/s", "final_shift", "stripes_used", "rebins"});
  for (const Layout& lay : layouts) {
    RunStats tput;
    OrderedIndex::TableStats st;
    std::size_t stripes_used = 0;  // distinct stripes holding entries = insert parallelism
    for (int run = 0; run < flags.Runs(); ++run) {
      Options opts = bench::BaseOptions(flags, lay.proto, std::size_t{1} << 21);
      opts.index_tune.min_inserts = 2048;
      auto db = std::make_unique<Database>(opts);
      if (lay.configure) {
        db->store().ConfigureTable(kDenseTable, lay.cfg);
      }
      const RunMetrics m = RunWorkload(
          *db, [](int) { return std::make_unique<DenseInsertSource>(); },
          flags.MeasureMs(/*default_seconds=*/0.3), /*warmup_ms=*/flags.full ? 500 : 100);
      tput.Add(m.throughput);
      st = db->store().index().StatsFor(kDenseTable);
      stripes_used = 0;
      if (const OrderedIndex::TableIndex* t =
              db->store().index().FindTable(kDenseTable)) {
        for (const IndexPartition& p : t->partitions) {
          stripes_used += p.entries.empty() ? 0 : 1;
        }
      }
    }
    table.AddRow({lay.name, ProtocolName(lay.proto), FormatCount(tput.mean()),
                  std::to_string(st.shift), std::to_string(stripes_used),
                  std::to_string(st.rebins)});
  }
  table.Print();
  if (flags.csv) {
    table.PrintCsv();
  }
}

int Main(int argc, char** argv) {
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  const std::uint64_t window = flags.Keys(64);  // scanned keys per transaction
  const std::vector<int> scan_pcts =
      flags.full ? std::vector<int>{1, 5, 10, 20, 30, 50, 70, 90}
                 : std::vector<int>{5, 20, 50, 90};
  const Protocol protocols[] = {Protocol::kDoppel, Protocol::kOcc};

  std::printf("Scan contention: window scan vs hot-key increments (window=%llu)\n",
              static_cast<unsigned long long>(window));
  std::printf("threads=%d phase=%llums\n\n", flags.ResolvedThreads(),
              static_cast<unsigned long long>(flags.phase_ms));

  Table table({"scan%", "Doppel", "OCC", "doppel_split", "doppel_stashes"});
  for (int pct : scan_pcts) {
    std::vector<std::string> row{std::to_string(pct)};
    std::size_t split_records = 0;
    std::uint64_t stashes = 0;
    for (Protocol p : protocols) {
      auto point = bench::MeasurePoint(
          flags, /*default_seconds=*/0.4,
          [&] {
            auto db =
                std::make_unique<Database>(bench::BaseOptions(flags, p, window * 4));
            for (std::uint64_t i = 0; i < window; ++i) {
              db->store().LoadInt(Key::Table(kScanTable, i), 0);
            }
            return db;
          },
          [&] {
            const std::uint32_t scan_pct = static_cast<std::uint32_t>(pct);
            return [=](int) -> std::unique_ptr<TxnSource> {
              return std::make_unique<ScanContentionSource>(window, scan_pct);
            };
          });
      row.push_back(FormatCount(point.throughput.mean()));
      if (p == Protocol::kDoppel) {
        split_records = point.last.split_records;
        stashes = point.last.stats.stash_events;
      }
    }
    row.push_back(std::to_string(split_records));
    row.push_back(std::to_string(stashes));
    table.AddRow(std::move(row));
  }
  table.Print();
  if (flags.csv) {
    table.PrintCsv();
  }

  RunDenseInsertScaling(flags);
  return 0;
}

}  // namespace
}  // namespace doppel

int main(int argc, char** argv) { return doppel::Main(argc, argv); }
