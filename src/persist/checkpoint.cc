#include "src/persist/checkpoint.h"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/dassert.h"
#include "src/persist/crc32.h"
#include "src/persist/encoding.h"
#include "src/persist/fsutil.h"

namespace doppel {
namespace {

// File layout:
//   u32 magic, u32 version
//   u64 max_tid
//   u32 n_tables;  per table: u64 id, u32 shift, u32 partitions, u8 adaptive
//   u64 n_records; per record: u64 key.hi, u64 key.lo, u64 tid, u8 type, u32 topk_k,
//                  value (encoding per type below)
//   u32 crc  (over everything after the 8-byte magic/version header)
constexpr std::uint32_t kMagic = 0x504b4344;  // "DCKP"
constexpr std::uint32_t kVersion = 1;

void EncodeValue(std::vector<char>& out, const Value& v) {
  switch (ValueType(v)) {
    case RecordType::kInt64:
      PutRaw(out, std::get<std::int64_t>(v));
      break;
    case RecordType::kBytes:
      PutBytes(out, std::get<std::string>(v));
      break;
    case RecordType::kOrdered: {
      const auto& t = std::get<OrderedTuple>(v);
      PutRaw(out, t.order.primary);
      PutRaw(out, t.order.secondary);
      PutRaw(out, t.core);
      PutBytes(out, t.payload);
      break;
    }
    case RecordType::kTopK: {
      const auto& set = std::get<TopKSet>(v);
      PutRaw(out, static_cast<std::uint32_t>(set.size()));
      for (const OrderedTuple& t : set.items()) {
        PutRaw(out, t.order.primary);
        PutRaw(out, t.order.secondary);
        PutRaw(out, t.core);
        PutBytes(out, t.payload);
      }
      break;
    }
  }
}

bool DecodeTuple(ByteCursor& c, OrderedTuple* t) {
  return c.Read(&t->order.primary) && c.Read(&t->order.secondary) && c.Read(&t->core) &&
         c.ReadString(&t->payload);
}

// Fixed part of a record's encoding: key.hi, key.lo, tid, type, topk_k.
constexpr std::size_t kRecordHeadBytes =
    3 * sizeof(std::uint64_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t);

// Appends a record's fixed part in one append instead of five.
void PutRecordHead(std::vector<char>& out, const Record& r, std::uint64_t tid) {
  char head[kRecordHeadBytes];
  char* p = head;
  const auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(r.key().hi);
  put(r.key().lo);
  put(tid);
  put(static_cast<std::uint8_t>(r.type()));
  put(static_cast<std::uint32_t>(r.topk_k()));
  PutSpan(out, head, sizeof(head));
}

}  // namespace

std::uint64_t CheckpointImage::file_bytes() const {
  // magic + version + max_tid, layout, n_records, shards, crc.
  std::uint64_t n = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) + layout.size() +
                    sizeof(std::uint64_t) + sizeof(std::uint32_t);
  for (const std::vector<char>& s : shards) {
    n += s.size();
  }
  return n;
}

CheckpointCapture::CheckpointCapture(const Store& store)
    : store_(store),
      buckets_per_shard_((store.map().bucket_count() + kShards - 1) / kShards),
      shards_(std::min(kShards, store.map().bucket_count())) {
  // Reserve each shard's buffer up front, sized for its share of int records plus a
  // quarter of slack. Growing by doubling instead makes every thread mmap, copy and
  // munmap megabyte buffers, and the munmaps' TLB shootdowns stall all the others —
  // parallel capture then runs no faster than serial. Unused reservation is never
  // touched, so it costs address space, not resident memory.
  constexpr std::size_t kIntRecordBytes = kRecordHeadBytes + sizeof(std::int64_t);
  reserve_bytes_ = (store.size() / shards_.size() + 16) * kIntRecordBytes * 5 / 4;
  std::uint32_t n_tables = 0;
  PutRaw(layout_, n_tables);  // patched below
  store.index().ForEachTable([&](const OrderedIndex::TableIndex& t) {
    PutRaw(layout_, t.table);
    PutRaw(layout_, t.shift.load(std::memory_order_acquire));
    PutRaw(layout_, static_cast<std::uint32_t>(t.partitions.size()));
    PutRaw(layout_, static_cast<std::uint8_t>(t.adaptive ? 1 : 0));
    ++n_tables;
  });
  std::memcpy(layout_.data(), &n_tables, sizeof(n_tables));
  tables_ = n_tables;
}

void CheckpointCapture::Work() {
  // Claim ticket only: the shard's bytes are published by the done_ release below.
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < shards_.size();
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    // Encode into locals and store the shard once at the end: neighbouring Shard
    // entries share cache lines, and other threads are filling them concurrently.
    Shard shard;
    shard.bytes.reserve(reserve_bytes_);
    store_.map().ForEachInRange(
        i * buckets_per_shard_, (i + 1) * buckets_per_shard_, [&](const Record& r) {
          // Writers are quiesced (the capture's precondition), so the seqlock reads are
          // stable and present records cannot regress; never-written placeholder
          // records are skipped.
          std::uint64_t tid = 0;
          if (r.type() == RecordType::kInt64) {
            // Int records skip the Value variant ReadValue would build.
            const Record::IntSnapshot s = r.ReadInt();
            if (!s.present) {
              return;
            }
            tid = s.tid;
            PutRecordHead(shard.bytes, r, tid);
            PutRaw(shard.bytes, s.value);
          } else {
            const Record::ValueSnapshot s = r.ReadValue();
            if (!s.present) {
              return;
            }
            tid = s.tid;
            PutRecordHead(shard.bytes, r, tid);
            EncodeValue(shard.bytes, s.value);
          }
          shard.max_tid = std::max(shard.max_tid, tid);
          ++shard.records;
        });
    shards_[i] = std::move(shard);
    done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

CheckpointImage CheckpointCapture::TakeImage() {
  DOPPEL_CHECK(Done());
  CheckpointImage image;
  image.tables = tables_;
  image.layout = std::move(layout_);
  image.shards.reserve(shards_.size());
  for (Shard& s : shards_) {
    image.max_tid = std::max(image.max_tid, s.max_tid);
    image.records += s.records;
    image.shards.push_back(std::move(s.bytes));
  }
  return image;
}

CheckpointImage Checkpoint::Capture(const Store& store) {
  CheckpointCapture capture(store);
  capture.Work();
  return capture.TakeImage();
}

CheckpointStats Checkpoint::Write(const std::string& dir, const std::string& file_name,
                                  const Store& store, IoEnv* env,
                                  std::atomic<std::uint64_t>* retries) {
  return Persist(dir, file_name, Capture(store), env, retries);
}

CheckpointStats Checkpoint::Persist(const std::string& dir, const std::string& file_name,
                                    const CheckpointImage& image, IoEnv* env,
                                    std::atomic<std::uint64_t>* retries,
                                    FunctionRef<void()> between_writes) {
  if (env == nullptr) {
    env = IoEnv::Default();
  }
  const IoRetryPolicy policy;
  CheckpointStats stats;
  stats.records = image.records;
  stats.tables = image.tables;
  stats.max_tid = image.max_tid;

  std::vector<char> head;
  PutRaw(head, kMagic);
  PutRaw(head, kVersion);
  PutRaw(head, image.max_tid);
  PutSpan(head, image.layout.data(), image.layout.size());
  PutRaw(head, image.records);

  const std::string tmp = dir + "/" + file_name + ".tmp";
  const std::string final_path = dir + "/" + file_name;
  // All failures below roll the attempt back: remove the tmp file and leave the final
  // path (and thus the MANIFEST's view of the world) untouched.
  const auto fail = [&](int fd, int negative_errno, IoOp op) {
    if (fd >= 0) {
      env->Close(fd);
    }
    env->Unlink(tmp.c_str());
    stats.failure = IoFailure{-negative_errno, op};
    return stats;
  };
  const int fd = OpenRetry(env, tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644,
                           policy, retries);
  if (fd < 0) {
    return fail(-1, fd, IoOp::kOpen);
  }
  // The CRC covers everything after the 8-byte magic/version header; it is folded in
  // part by part on the way out, so the image is read once.
  std::uint32_t crc = Crc32(head.data() + 8, head.size() - 8);
  int rc = WriteFullyRetry(env, fd, head.data(), head.size(), policy, retries);
  if (rc != 0) {
    return fail(fd, rc, IoOp::kWrite);
  }
  for (const std::vector<char>& shard : image.shards) {
    crc = Crc32(shard.data(), shard.size(), crc);
    rc = WriteFullyRetry(env, fd, shard.data(), shard.size(), policy, retries);
    if (rc != 0) {
      return fail(fd, rc, IoOp::kWrite);
    }
    between_writes();
  }
  rc = WriteFullyRetry(env, fd, reinterpret_cast<const char*>(&crc), sizeof(crc), policy,
                       retries);
  if (rc != 0) {
    return fail(fd, rc, IoOp::kWrite);
  }
  // A failed fsync is permanent by policy (io_env.h): the tmp file's page-cache state
  // is unknowable, so it must never be renamed into place.
  rc = env->Fsync(fd);
  env->Close(fd);
  if (rc != 0) {
    return fail(-1, rc, IoOp::kFsync);
  }
  rc = RenameRetry(env, tmp.c_str(), final_path.c_str(), policy, retries);
  if (rc != 0) {
    return fail(-1, rc, IoOp::kRename);
  }
  return stats;
}

namespace {

// Parse + restore a fully-read checkpoint image. The manifest never references a
// checkpoint that was not fully written and renamed, so any parse failure here is real
// corruption — fail loudly rather than silently recovering a partial store.
CheckpointStats LoadParsed(const std::string& data, Store* store) {
  DOPPEL_CHECK(data.size() >= sizeof(std::uint32_t) * 3 + sizeof(std::uint64_t));
  ByteCursor c(data.data(), data.size() - sizeof(std::uint32_t));
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  DOPPEL_CHECK(c.Read(&magic) && magic == kMagic);
  DOPPEL_CHECK(c.Read(&version) && version == kVersion);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  DOPPEL_CHECK(Crc32(data.data() + 8, data.size() - 8 - sizeof(stored_crc)) ==
               stored_crc);

  CheckpointStats stats;
  DOPPEL_CHECK(c.Read(&stats.max_tid));

  std::uint32_t n_tables = 0;
  DOPPEL_CHECK(c.Read(&n_tables));
  for (std::uint32_t i = 0; i < n_tables; ++i) {
    std::uint64_t table = 0;
    PartitionConfig cfg;
    std::uint8_t adaptive = 0;
    DOPPEL_CHECK(c.Read(&table) && c.Read(&cfg.shift) && c.Read(&cfg.partitions) &&
                 c.Read(&adaptive));
    cfg.adaptive = adaptive != 0;
    store->index().RestoreTable(table, cfg);
  }
  stats.tables = n_tables;

  std::uint64_t n_records = 0;
  DOPPEL_CHECK(c.Read(&n_records));
  for (std::uint64_t i = 0; i < n_records; ++i) {
    Key key;
    std::uint64_t tid = 0;
    std::uint8_t type = 0;
    std::uint32_t topk_k = 0;
    DOPPEL_CHECK(c.Read(&key.hi) && c.Read(&key.lo) && c.Read(&tid) && c.Read(&type) &&
                 c.Read(&topk_k));
    const RecordType rt = static_cast<RecordType>(type);
    Record* r = store->GetOrCreate(key, rt, topk_k == 0 ? TopKSet::kDefaultK : topk_k);
    r->LockOcc();
    switch (rt) {
      case RecordType::kInt64: {
        std::int64_t v = 0;
        DOPPEL_CHECK(c.Read(&v));
        r->SetInt(v);
        break;
      }
      case RecordType::kBytes: {
        std::string v;
        DOPPEL_CHECK(c.ReadString(&v));
        r->MutateComplex(
            [&](ComplexValue& cv) { std::get<std::string>(cv) = std::move(v); });
        break;
      }
      case RecordType::kOrdered: {
        OrderedTuple t;
        DOPPEL_CHECK(DecodeTuple(c, &t));
        r->MutateComplex(
            [&](ComplexValue& cv) { std::get<OrderedTuple>(cv) = std::move(t); });
        break;
      }
      case RecordType::kTopK: {
        std::uint32_t count = 0;
        DOPPEL_CHECK(c.Read(&count));
        TopKSet set(topk_k == 0 ? TopKSet::kDefaultK : topk_k);
        for (std::uint32_t j = 0; j < count; ++j) {
          OrderedTuple t;
          DOPPEL_CHECK(DecodeTuple(c, &t));
          set.Insert(std::move(t));
        }
        r->MutateComplex(
            [&](ComplexValue& cv) { std::get<TopKSet>(cv) = std::move(set); });
        break;
      }
    }
    store->index().Insert(key, r);
    r->UnlockOccSetTid(tid);
  }
  stats.records = n_records;
  DOPPEL_CHECK(c.AtEnd());
  return stats;
}

}  // namespace

CheckpointStats Checkpoint::Load(const std::string& path, Store* store, IoEnv* env) {
  CheckpointStats stats;
  DOPPEL_CHECK(TryLoad(path, store, &stats, env));
  return stats;
}

bool Checkpoint::TryLoad(const std::string& path, Store* store, CheckpointStats* stats,
                         IoEnv* env) {
  std::string data;
  if (ReadFileRetry(env != nullptr ? env : IoEnv::Default(), path, &data,
                    IoRetryPolicy{}, nullptr)) {
    return false;
  }
  *stats = LoadParsed(data, store);
  return true;
}

}  // namespace doppel
