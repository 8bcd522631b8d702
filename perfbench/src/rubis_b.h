// RUBiS-B (the RUBiS bidding mix, §8.8) driven by the benchmark: the same schema,
// population (rubis::Populate) and transaction logic as src/rubis, with every Txn
// data-op call wrapped in a span so the traced run can time reads, writes, scans and
// inserts separately. Requests draw from the benchmark's own seeded Rng.
#ifndef PERFBENCH_SRC_RUBIS_B_H_
#define PERFBENCH_SRC_RUBIS_B_H_

#include <cstdint>

#include "src/common/rand.h"
#include "src/rubis/data.h"
#include "src/txn/request.h"

namespace perfbench {

enum class RubisKind : std::uint32_t {
  kViewItem,
  kSearchCategory,
  kSearchRegion,
  kViewUser,
  kViewBidHistory,
  kBrowseCategories,
  kBrowseRegions,
  kAboutMe,
  kStoreBid,
  kStoreComment,
  kStoreItem,
  kRegisterUser,
  kStoreBuyNow,
};

struct RubisRequest {
  doppel::TxnRequest req;
  RubisKind kind;
  std::uint64_t item;  // the bid-on item for kStoreBid (numBids check)
};

// One generator per worker: inserted row ids are sharded by worker so they never collide.
class RubisBGenerator {
 public:
  RubisBGenerator(const doppel::rubis::Config& cfg, std::uint64_t seed, int worker_id)
      : cfg_(cfg), rng_(seed), worker_id_(worker_id) {}
  RubisRequest Next();

 private:
  std::uint64_t NextRowId();

  const doppel::rubis::Config cfg_;
  doppel::Rng rng_;
  const int worker_id_;
  std::uint64_t next_local_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUBIS_B_H_
