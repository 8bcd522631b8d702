// Transaction requests: a plain function pointer plus POD arguments.
//
// Workers generate and execute millions of transactions per second, and aborted or stashed
// transactions are queued for later retry; keeping requests POD avoids a heap allocation
// per transaction. (The convenience std::function path used by Database::Execute is built
// on top of this in src/core/database.h.)
#ifndef DOPPEL_SRC_TXN_REQUEST_H_
#define DOPPEL_SRC_TXN_REQUEST_H_

#include <cstdint>

#include "src/store/key.h"

namespace doppel {

class Txn;

// Arguments available to a transaction procedure. Workloads map their parameters onto
// these fields; anything larger is derived deterministically inside the procedure.
struct TxnArgs {
  Key k1;
  Key k2;
  std::int64_t n = 0;
  std::uint32_t aux = 0;
  std::uint8_t tag = 0;          // workload-defined class (e.g. read vs write)
  std::uint64_t submit_ns = 0;   // stamped at submission; latency includes queueing,
                                 // retries, and stash delay
};

using TxnProc = void (*)(Txn&, const TxnArgs&);

// Why a transaction ended without committing (kNone when it committed).
enum class TxnAbort : std::uint8_t {
  kNone = 0,
  // Txn::UserAbort() from the body, or the database stopped before the transaction ran.
  kUser = 1,
  // An op's required record type conflicted with the key's existing record type
  // (see Engine::Route); terminal, never retried.
  kTypeMismatch = 2,
  // The database is in read-only degraded mode after a permanent WAL failure: the
  // transaction's writes could not be made durable, so it was terminated (in-flight)
  // or refused (at submission). Terminal, never retried — the degraded latch is
  // one-way for the process lifetime.
  kDurabilityLost = 3,
};

// Final outcome of a submitted transaction.
struct TxnResult {
  bool committed = false;
  std::uint32_t attempts = 0;
  TxnAbort abort = TxnAbort::kNone;
};

// Completion slot: invoked exactly once on the committing worker's thread when the
// transaction reaches a terminal state (commit or user abort). Must not block; a plain
// function pointer + context keeps TxnRequest POD (no per-request heap allocation).
using TxnCompletionFn = void (*)(const TxnResult& result, void* ctx);

struct TxnRequest {
  TxnProc proc = nullptr;
  TxnArgs args;
  TxnCompletionFn on_complete = nullptr;
  void* on_complete_ctx = nullptr;
  // Declares the transaction write-free. Read-only submissions are admitted even in
  // degraded (durability-lost) mode — they need no redo entry, so nothing about them
  // is lost. Purely an admission hint: a "read-only" body that does write is still
  // caught by the runner's degraded gate at commit time.
  bool read_only = false;
};

// Workload tags used by the built-in benchmarks (Table 3 separates read and write
// transaction latencies).
inline constexpr std::uint8_t kTagWrite = 0;
inline constexpr std::uint8_t kTagRead = 1;
inline constexpr int kNumTags = 4;

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_REQUEST_H_
