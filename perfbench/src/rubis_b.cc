#include "src/rubis_b.h"

#include <cstdlib>
#include <string>

#include "src/probe.h"
#include "src/rubis/schema.h"
#include "src/txn/txn.h"

namespace perfbench {
namespace {

namespace rubis = doppel::rubis;
using doppel::Key;
using doppel::OrderKey;
using doppel::ReadResult;
using doppel::TopKSet;
using doppel::Txn;
using doppel::TxnArgs;

// Timed Txn data-op calls. Reads of existing rows are kRead, updates of existing rows
// kWrite, writes that create a row kInsert.
std::optional<std::string> GetBytes(Txn& t, const Key& k) {
  return TimedOp(SpanKind::kRead, [&] { return t.GetBytes(k); });
}
std::optional<std::int64_t> GetInt(Txn& t, const Key& k) {
  return TimedOp(SpanKind::kRead, [&] { return t.GetInt(k); });
}
void InsertBytes(Txn& t, const Key& k, const std::string& v) {
  TimedOp(SpanKind::kInsert, [&] { t.PutBytes(k, v); });
}
void InsertInt(Txn& t, const Key& k, std::int64_t v) {
  TimedOp(SpanKind::kInsert, [&] { t.PutInt(k, v); });
}
void Add(Txn& t, const Key& k, std::int64_t n) {
  TimedOp(SpanKind::kWrite, [&] { t.Add(k, n); });
}
void TopKInsert(Txn& t, const Key& k, OrderKey order, const std::string& payload,
                std::size_t cap) {
  TimedOp(SpanKind::kWrite, [&] { t.TopKInsert(k, order, payload, cap); });
}

std::int64_t CoarseTimestamp(const TxnArgs& a) {
  return static_cast<std::int64_t>(a.submit_ns / 1000);
}

// Reads up to `limit` rows referenced by a top-K index snapshot (payloads hold row ids).
void ReadIndexedRows(Txn& txn, const TopKSet& index, std::uint32_t table,
                     std::size_t limit) {
  std::size_t n = 0;
  for (const doppel::OrderedTuple& t : index.items()) {
    if (n++ == limit) {
      break;
    }
    (void)GetBytes(txn, Key::Table(table, std::strtoull(t.payload.c_str(), nullptr, 10)));
  }
}

void ViewItem(Txn& txn, const TxnArgs& a) {
  const std::uint64_t item = a.k1.lo;
  (void)GetBytes(txn, a.k1);
  (void)GetInt(txn, rubis::MaxBidKey(item));
  (void)GetInt(txn, rubis::NumBidsKey(item));
  (void)TimedOp(SpanKind::kRead, [&] { return txn.GetOrdered(rubis::MaxBidderKey(item)); });
}

void ViewUserInfo(Txn& txn, const TxnArgs& a) {
  (void)GetBytes(txn, a.k1);
  (void)GetInt(txn, rubis::UserRatingKey(a.k1.lo));
}

void ViewBidHistory(Txn& txn, const TxnArgs& a) {
  const auto index = TimedOp(SpanKind::kRead, [&] {
    return txn.GetTopK(rubis::BidsPerItemIndexKey(a.k1.lo), rubis::kBidIndexK);
  });
  if (index.has_value()) {
    ReadIndexedRows(txn, *index, rubis::kBids, 5);
  }
}

// The scan span covers the rows read inside the scan callback.
void SearchItemsByCategory(Txn& txn, const TxnArgs& a) {
  const std::uint64_t category = a.k1.lo;
  (void)GetBytes(txn, a.k1);
  TimedOp(SpanKind::kScan, [&] {
    return txn.Scan(rubis::kItemsByCatOrd, rubis::ItemsByCatOrdLo(category),
                    rubis::ItemsByCatOrdHi(category), 5,
                    [&](const Key&, const ReadResult& v) {
                      const std::uint64_t id = std::strtoull(
                          std::get<std::string>(v.complex).c_str(), nullptr, 10);
                      (void)txn.GetBytes(Key::Table(rubis::kItems, id));
                      return true;
                    });
  });
}

void SearchItemsByRegion(Txn& txn, const TxnArgs& a) {
  (void)GetBytes(txn, a.k1);
  const auto index = TimedOp(SpanKind::kRead, [&] {
    return txn.GetTopK(rubis::ItemsByRegionKey(a.k1.lo), rubis::kBrowseIndexK);
  });
  if (index.has_value()) {
    ReadIndexedRows(txn, *index, rubis::kItems, 5);
  }
}

void BrowseCategories(Txn& txn, const TxnArgs& a) {
  const std::uint64_t n = rubis::ActiveConfig().num_categories;
  for (std::uint64_t i = 0; i < 5 && i < n; ++i) {
    (void)GetBytes(txn, rubis::CategoryKey((a.aux + i) % n));
  }
}

void BrowseRegions(Txn& txn, const TxnArgs& a) {
  const std::uint64_t n = rubis::ActiveConfig().num_regions;
  for (std::uint64_t i = 0; i < 5 && i < n; ++i) {
    (void)GetBytes(txn, rubis::RegionKey((a.aux + i) % n));
  }
}

void AboutMe(Txn& txn, const TxnArgs& a) {
  const std::uint64_t user = a.k1.lo;
  (void)GetBytes(txn, a.k1);
  (void)GetInt(txn, rubis::UserRatingKey(user));
  (void)GetInt(txn, rubis::UserNumBoughtKey(user));
}

// Fig. 7: every auction-metadata update is a commutative operation.
void StoreBid(Txn& txn, const TxnArgs& a) {
  const std::uint64_t item = a.k1.lo;
  const std::int64_t amount = a.n;
  const OrderKey order{amount, CoarseTimestamp(a)};
  InsertBytes(txn, a.k2, rubis::BidRow(item, a.aux, amount));
  TimedOp(SpanKind::kWrite, [&] { txn.Max(rubis::MaxBidKey(item), amount); });
  TimedOp(SpanKind::kWrite,
          [&] { txn.OPut(rubis::MaxBidderKey(item), order, std::to_string(a.aux)); });
  Add(txn, rubis::NumBidsKey(item), 1);
  TopKInsert(txn, rubis::BidsPerItemIndexKey(item), order, std::to_string(a.k2.lo),
             rubis::kBidIndexK);
}

void StoreComment(Txn& txn, const TxnArgs& a) {
  const std::uint64_t item = a.k1.lo;
  InsertBytes(txn, a.k2, rubis::CommentRow(item, a.aux, a.n));
  Add(txn, rubis::UserRatingKey(rubis::SellerOf(item, rubis::ActiveConfig())), a.n);
  Add(txn, rubis::NumCommentsKey(item), 1);
}

void StoreItem(Txn& txn, const TxnArgs& a) {
  const rubis::Config& cfg = rubis::ActiveConfig();
  const std::uint64_t item = a.k1.lo;
  const std::uint64_t category = rubis::CategoryOf(item, cfg);
  const std::uint64_t region = rubis::RegionOf(item, cfg);
  InsertBytes(txn, a.k1, rubis::ItemRow(item, a.aux, category, region));
  InsertInt(txn, rubis::MaxBidKey(item), 0);
  InsertInt(txn, rubis::NumBidsKey(item), 0);
  InsertInt(txn, rubis::NumCommentsKey(item), 0);
  const OrderKey order{CoarseTimestamp(a), static_cast<std::int64_t>(item)};
  TopKInsert(txn, rubis::ItemsByCategoryKey(category), order, std::to_string(item),
             rubis::kBrowseIndexK);
  TopKInsert(txn, rubis::ItemsByRegionKey(region), order, std::to_string(item),
             rubis::kBrowseIndexK);
  InsertBytes(txn, rubis::ItemsByCatOrdKey(category, item), std::to_string(item));
}

void StoreBuyNow(Txn& txn, const TxnArgs& a) {
  (void)GetBytes(txn, a.k1);
  InsertBytes(txn, a.k2, rubis::BuyNowRow(a.k1.lo, a.aux));
  Add(txn, rubis::UserNumBoughtKey(a.aux), 1);
}

void RegisterUser(Txn& txn, const TxnArgs& a) {
  const std::uint64_t user = a.k1.lo;
  InsertBytes(txn, a.k1, rubis::UserRow(user));
  InsertInt(txn, rubis::UserRatingKey(user), 0);
  InsertInt(txn, rubis::UserNumBoughtKey(user), 0);
}

struct MixEntry {
  RubisKind kind;
  std::uint32_t weight;  // percent
};

// RUBiS bidding mix: 85% read-only interactions, 15% read-write (§8.8); the same
// weights as src/rubis/workload.cc.
constexpr MixEntry kBiddingMix[] = {
    {RubisKind::kViewItem, 25},       {RubisKind::kSearchCategory, 20},
    {RubisKind::kSearchRegion, 10},   {RubisKind::kViewUser, 10},
    {RubisKind::kViewBidHistory, 8},  {RubisKind::kBrowseCategories, 5},
    {RubisKind::kBrowseRegions, 3},   {RubisKind::kAboutMe, 4},
    {RubisKind::kStoreBid, 7},        {RubisKind::kStoreComment, 2},
    {RubisKind::kStoreItem, 2},       {RubisKind::kRegisterUser, 2},
    {RubisKind::kStoreBuyNow, 2},
};

}  // namespace

std::uint64_t RubisBGenerator::NextRowId() {
  return rubis::ShardedId(worker_id_, next_local_id_++);
}

RubisRequest RubisBGenerator::Next() {
  RubisRequest out{};
  std::uint64_t roll = rng_.NextBounded(100);
  out.kind = kBiddingMix[std::size(kBiddingMix) - 1].kind;
  for (const MixEntry& e : kBiddingMix) {
    if (roll < e.weight) {
      out.kind = e.kind;
      break;
    }
    roll -= e.weight;
  }
  doppel::TxnRequest& r = out.req;
  TxnArgs& a = r.args;
  a.tag = doppel::kTagRead;
  switch (out.kind) {
    case RubisKind::kViewItem:
      r.proc = &Traced<ViewItem>;
      a.k1 = rubis::ItemKey(rng_.NextBounded(cfg_.num_items));
      break;
    case RubisKind::kSearchCategory:
      r.proc = &Traced<SearchItemsByCategory>;
      a.k1 = rubis::CategoryKey(rng_.NextBounded(cfg_.num_categories));
      break;
    case RubisKind::kSearchRegion:
      r.proc = &Traced<SearchItemsByRegion>;
      a.k1 = rubis::RegionKey(rng_.NextBounded(cfg_.num_regions));
      break;
    case RubisKind::kViewUser:
      r.proc = &Traced<ViewUserInfo>;
      a.k1 = rubis::UserKey(rng_.NextBounded(cfg_.num_users));
      break;
    case RubisKind::kViewBidHistory:
      r.proc = &Traced<ViewBidHistory>;
      a.k1 = rubis::ItemKey(rng_.NextBounded(cfg_.num_items));
      break;
    case RubisKind::kBrowseCategories:
      r.proc = &Traced<BrowseCategories>;
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_categories));
      break;
    case RubisKind::kBrowseRegions:
      r.proc = &Traced<BrowseRegions>;
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_regions));
      break;
    case RubisKind::kAboutMe:
      r.proc = &Traced<AboutMe>;
      a.k1 = rubis::UserKey(rng_.NextBounded(cfg_.num_users));
      break;
    case RubisKind::kStoreBid:
      r.proc = &Traced<StoreBid>;
      a.tag = doppel::kTagWrite;
      out.item = rng_.NextBounded(cfg_.num_items);
      a.k1 = rubis::ItemKey(out.item);
      a.k2 = rubis::BidKey(NextRowId());
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_users));
      a.n = 1 + static_cast<std::int64_t>(rng_.NextBounded(1000000));
      break;
    case RubisKind::kStoreComment:
      r.proc = &Traced<StoreComment>;
      a.tag = doppel::kTagWrite;
      a.k1 = rubis::ItemKey(rng_.NextBounded(cfg_.num_items));
      a.k2 = rubis::CommentKey(NextRowId());
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_users));
      a.n = 1 + static_cast<std::int64_t>(rng_.NextBounded(5));
      break;
    case RubisKind::kStoreItem:
      r.proc = &Traced<StoreItem>;
      a.tag = doppel::kTagWrite;
      a.k1 = rubis::ItemKey(cfg_.num_items + NextRowId());
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_users));
      break;
    case RubisKind::kRegisterUser:
      r.proc = &Traced<RegisterUser>;
      a.tag = doppel::kTagWrite;
      a.k1 = rubis::UserKey(cfg_.num_users + NextRowId());
      break;
    case RubisKind::kStoreBuyNow:
      r.proc = &Traced<StoreBuyNow>;
      a.tag = doppel::kTagWrite;
      a.k1 = rubis::ItemKey(rng_.NextBounded(cfg_.num_items));
      a.k2 = rubis::BuyNowKey(NextRowId());
      a.aux = static_cast<std::uint32_t>(rng_.NextBounded(cfg_.num_users));
      break;
  }
  return out;
}

}  // namespace perfbench
