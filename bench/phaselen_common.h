// Shared phase-length sweep for Figures 13 and 14 (§8.7). Each point sets
// Options::phase_us from --phase-ms: the split-phase length and the joined-phase
// ceiling. A joined phase runs that long only after a split phase that stashed (these
// LIKE mixes read the split pages, so theirs usually do); after a clean split phase it
// shrinks to a tenth (see DoppelEngine::NextJoinedPhaseNs), which the paper's fixed
// 20 ms cadence did not do.
#ifndef DOPPEL_BENCH_PHASELEN_COMMON_H_
#define DOPPEL_BENCH_PHASELEN_COMMON_H_

#include <memory>

#include "bench/bench_common.h"
#include "src/common/zipf.h"
#include "src/workload/like.h"

namespace doppel {
namespace bench_phaselen {

struct Variant {
  const char* name;
  double alpha;
  std::uint32_t write_pct;
};

inline constexpr Variant kVariants[] = {
    {"Uniform", 0.0, 50},
    {"Skewed", 1.4, 50},
    {"SkewedWriteHeavy", 1.4, 90},
};

// Shared sweep for Figures 13 and 14.
template <typename RowFn>
void RunSweep(const bench::Flags& flags, const char* title, RowFn&& row_fn) {
  const std::uint64_t n = flags.Keys(100000);
  const std::vector<std::uint64_t> phase_ms =
      flags.full ? std::vector<std::uint64_t>{1, 2, 5, 10, 20, 40, 60, 80, 100}
                 : std::vector<std::uint64_t>{2, 5, 20, 50};

  std::printf("%s\nthreads=%d users=pages=%llu\n\n", title, flags.ResolvedThreads(),
              static_cast<unsigned long long>(n));

  const ZipfianGenerator zipf(n, 1.4);
  Table table({"phase(ms)", "Uniform", "Skewed", "SkewedWriteHeavy"});
  for (std::uint64_t pm : phase_ms) {
    std::vector<std::string> row{std::to_string(pm)};
    for (const Variant& v : kVariants) {
      LikeConfig cfg;
      cfg.num_users = n;
      cfg.num_pages = n;
      cfg.write_pct = v.write_pct;
      cfg.alpha = v.alpha;
      bench::Flags pf = flags;
      pf.phase_ms = pm;
      auto db = std::make_unique<Database>(
          bench::BaseOptions(pf, Protocol::kDoppel, n * 4));
      PopulateLike(db->store(), cfg);
      RunMetrics m = RunWorkload(*db, MakeLikeFactory(cfg, &zipf),
                                 flags.MeasureMs(/*default_seconds=*/0.5));
      row.push_back(row_fn(m));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  if (flags.csv) {
    table.PrintCsv();
  }
}

}  // namespace bench_phaselen
}  // namespace doppel


#endif  // DOPPEL_BENCH_PHASELEN_COMMON_H_
