// Consistent store checkpoints for the persistence directory.
//
// A checkpoint is a full snapshot of the store — every logically-present record with
// its committed TID — plus the ordered-index partition layout of every registered
// table, so recovery can rebuild range-scan structures exactly as they were tuned (a
// narrowed adaptive table recovers narrowed, not at its registration default). The
// coordinator takes checkpoints at joined quiesce barriers, under every engine:
// per-core slices are merged and every worker is parked between transactions, so a
// plain iteration over the record map observes a transaction-consistent state without
// any locking. STAR-style reasoning applies: recovery cost is dominated by the log
// volume between snapshots, and the joined-phase barrier is a consistency point the
// system already pays for.
//
// A checkpoint is taken in two steps, and only the first needs quiescence:
//  * Capture copies the store into a self-contained CheckpointImage (table layouts,
//    max TID, encoded record bytes; no Record pointers). The record map is cut into
//    disjoint contiguous bucket ranges (shards) that any number of threads encode
//    concurrently — at the barrier, the parked workers and the coordinator share them.
//  * Persist writes the image out while the system runs again: CRC, tmp file, fsync,
//    rename. Shards concatenated in bucket order are byte-for-byte the serial
//    ForEach encoding, so the file format does not depend on how many threads captured.
//
// Durability: the snapshot is written to a temporary file, fsynced, and renamed; the
// MANIFEST only references it afterwards, so a half-written checkpoint can never
// become live. The file carries a trailing CRC as defense in depth.
#ifndef DOPPEL_SRC_PERSIST_CHECKPOINT_H_
#define DOPPEL_SRC_PERSIST_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/function_ref.h"
#include "src/persist/io_env.h"
#include "src/store/store.h"

namespace doppel {

struct CheckpointStats {
  std::uint64_t records = 0;
  std::uint64_t tables = 0;
  // Highest committed TID captured (Write) or restored (Load); recovery seeds worker
  // TID clocks past it so post-recovery commits sort after everything checkpointed.
  std::uint64_t max_tid = 0;
  // Write only: clear on success. On failure the tmp file has been removed and the
  // final path untouched — the previous checkpoint (if any) stays live; the caller
  // retries at a later consistency point.
  IoFailure failure;
  bool ok() const { return failure.err == 0; }
};

// A captured store, ready to persist. Owns its bytes; safe to hand to another thread.
struct CheckpointImage {
  std::uint64_t max_tid = 0;
  std::uint64_t records = 0;
  std::uint64_t tables = 0;
  std::vector<char> layout;               // u32 table count + per-table partition layout
  std::vector<std::vector<char>> shards;  // encoded records, in bucket order
  // Size of the checkpoint file this image persists to.
  std::uint64_t file_bytes() const;
};

// Shard-parallel capture of a quiesced store. PRECONDITION for the object's whole
// lifetime: no writer may be mutating records.
class CheckpointCapture {
 public:
  explicit CheckpointCapture(const Store& store);

  // Claims and encodes shards until none is left unclaimed. Any number of threads may
  // call it concurrently; a shard another thread claimed may still be in progress when
  // it returns.
  void Work();
  // True once every shard is encoded; the acquire makes their bytes visible.
  bool Done() const { return done_.load(std::memory_order_acquire) == shards_.size(); }
  // PRECONDITION: Done(). Moves the image out.
  CheckpointImage TakeImage();

 private:
  // Enough shards that four threads finish close together; few enough that each is a
  // long sequential walk.
  static constexpr std::size_t kShards = 64;

  struct Shard {
    std::vector<char> bytes;
    std::uint64_t records = 0;
    std::uint64_t max_tid = 0;
  };

  const Store& store_;
  std::size_t buckets_per_shard_;
  std::size_t reserve_bytes_;  // per-shard buffer reservation (see the constructor)
  std::vector<char> layout_;
  std::uint64_t tables_ = 0;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
};

class Checkpoint {
 public:
  // Single-threaded capture (CheckpointCapture driven by the caller alone); same
  // precondition: no concurrent record writers.
  static CheckpointImage Capture(const Store& store);

  // Writes `image` to `dir`/`file_name` via tmp + fsync + rename. Needs no quiescence.
  // I/O goes through `env` (nullptr = passthrough default); transient errors retry
  // bounded (counted into *retries), permanent ones surface in stats.failure with the
  // tmp file unlinked and MANIFEST-visible state untouched. `between_writes` runs
  // after each shard's write, letting a caller on a shared thread keep up its own
  // cadence (the WAL flusher's group commit) during a long persist.
  static CheckpointStats Persist(const std::string& dir, const std::string& file_name,
                                 const CheckpointImage& image, IoEnv* env = nullptr,
                                 std::atomic<std::uint64_t>* retries = nullptr,
                                 FunctionRef<void()> between_writes = [] {});

  // Capture + Persist on the calling thread. PRECONDITION: no writer may be mutating
  // records — the caller quiesces workers or has exclusive ownership (tests,
  // post-Stop shutdown checkpoints).
  static CheckpointStats Write(const std::string& dir, const std::string& file_name,
                               const Store& store, IoEnv* env = nullptr,
                               std::atomic<std::uint64_t>* retries = nullptr);

  // Restores `path` into `store`, overwriting any record it names (pre-loaded initial
  // data keeps its value only for keys the checkpoint never captured — i.e. keys that
  // did not exist when it was taken). Ordered-index table layouts are restored first so
  // record insertion re-bins under the checkpointed partition boundaries. The file is
  // read through `env` (nullptr = passthrough default) into one exactly-sized buffer;
  // an unreadable or corrupt file is a checked error.
  static CheckpointStats Load(const std::string& path, Store* store,
                              IoEnv* env = nullptr);

  // Like Load, but returns false — touching nothing — when the file cannot be opened
  // or read. A replica bootstrapping against a live primary can lose the open race:
  // the primary replaces and unlinks the checkpoint the replica's manifest read named.
  // That is a retry, not corruption (once an open succeeds, a concurrent unlink cannot
  // hurt the read). A file that reads but fails to parse is still a checked error.
  static bool TryLoad(const std::string& path, Store* store, CheckpointStats* stats,
                      IoEnv* env = nullptr);
};

}  // namespace doppel

#endif  // DOPPEL_SRC_PERSIST_CHECKPOINT_H_
