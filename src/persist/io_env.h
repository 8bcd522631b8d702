// Injectable I/O environment for the persistence layer.
//
// Every syscall the durability stack issues (WAL append/fsync, checkpoint write,
// manifest rename, segment open/unlink/truncate) funnels through an IoEnv so tests can
// substitute a deterministic FaultInjectingIoEnv and exercise the full failure surface:
// transient errors (EINTR/EAGAIN/short write) that the caller must absorb with bounded
// retry, and permanent errors (ENOSPC, EIO, any failed fsync) that must escalate into
// read-only degraded mode instead of aborting the process.
//
// Conventions:
//  - Open returns a file descriptor (>= 0) or -errno.
//  - Write/Pread return bytes transferred (>= 0) or -errno; short transfers are legal.
//  - FileSize returns the size of an open file (>= 0) or -errno.
//  - Everything else returns 0 or -errno.
//
// The default env is a stateless passthrough; its virtual dispatch sits in front of a
// syscall, so the indirection is noise (and the transaction hot path does no I/O at
// all — WAL Append only encodes into a memory buffer; the flusher thread owns the
// syscalls).
#ifndef DOPPEL_SRC_PERSIST_IO_ENV_H_
#define DOPPEL_SRC_PERSIST_IO_ENV_H_

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/rand.h"
#include "src/common/spinlock.h"

namespace doppel {

// Syscall classes an IoEnv mediates. Also used to report which operation first failed
// permanently (Database::durability_health, RunMetrics).
enum class IoOp : std::uint8_t {
  kOpen = 0,
  kWrite,
  kPread,
  kFsync,
  kClose,
  kRename,
  kTruncate,
  kUnlink,
  kMkdir,
  kStat,
};
constexpr int kNumIoOps = 10;

const char* IoOpName(IoOp op);

// Outcome of a fallible persistence routine: err == 0 means success; otherwise err is
// the positive errno of the first permanent failure and op the syscall class it came
// from.
struct IoFailure {
  int err = 0;
  IoOp op = IoOp::kWrite;
  explicit operator bool() const { return err != 0; }
};

// Base environment doubles as the passthrough POSIX implementation.
class IoEnv {
 public:
  virtual ~IoEnv() = default;

  virtual int Open(const char* path, int flags, int mode);
  virtual long Write(int fd, const void* buf, std::size_t n);
  virtual long Pread(int fd, void* buf, std::size_t n, std::uint64_t offset);
  virtual int Fsync(int fd);
  virtual int Close(int fd);
  virtual int Rename(const char* from, const char* to);
  virtual int Truncate(const char* path, std::uint64_t len);
  virtual int Unlink(const char* path);
  virtual int Mkdir(const char* path, int mode);
  virtual long FileSize(int fd);

  // Process-wide passthrough instance (never destroyed; it is stateless).
  static IoEnv* Default();
};

// ---- Error taxonomy ----
//
// Transient: the syscall may succeed if simply reissued (interrupted by a signal, or
// a nonblocking hiccup). Bounded retry with backoff is the policy.
// Permanent: everything else — ENOSPC, EIO, and notably *any* failed fsync. After a
// failed fsync the kernel may have discarded the dirty pages that failed to reach
// stable media, so retrying the fsync and having it succeed proves nothing about the
// earlier writes; the only honest response is to stop claiming durability (degraded
// mode), never re-fsync-and-carry-on.
inline bool IsTransientIoError(int negative_errno) {
  return negative_errno == -EINTR || negative_errno == -EAGAIN;
}

// Bounded retry policy for the transient class.
struct IoRetryPolicy {
  int max_attempts = 8;
  std::uint64_t backoff_min_us = 50;
  std::uint64_t backoff_max_us = 5000;
};

// Writes all n bytes, absorbing EINTR/EAGAIN and short writes with bounded
// exponential backoff. Returns 0 on success or -errno of the failure that escalated
// (exhausted transient retries escalate as permanent). Each absorbed transient fault
// bumps *retries (may be null). Deliberately does NOT fsync — see the taxonomy note.
int WriteFullyRetry(IoEnv* env, int fd, const char* data, std::size_t n,
                    const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries);

// open/rename/truncate with the same bounded transient-retry policy. Fsync has no
// retry wrapper on purpose (any failed fsync is permanent).
int OpenRetry(IoEnv* env, const char* path, int flags, int mode,
              const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries);
int RenameRetry(IoEnv* env, const char* from, const char* to,
                const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries);
int TruncateRetry(IoEnv* env, const char* path, std::uint64_t len,
                  const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries);

// Reads the whole file at `path` into *out, sized once from FileSize (no incremental
// growth), absorbing transient open/read errors and short reads like WriteFullyRetry.
// On failure *out is left empty and the first permanent error is returned.
IoFailure ReadFileRetry(IoEnv* env, const std::string& path, std::string* out,
                        const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries);

// ---- Fault injection (tests only) ----

// One armed fault. A call matches when its op bit is set in `ops` and the target path
// contains `path_substring` (fd-based ops resolve the path registered at Open). The
// first `after` matches pass through; each later match fires with `probability`.
struct FaultRule {
  std::uint32_t ops = 0xffffffffu;  // bitmask of (1u << IoOp)
  std::string path_substring;       // empty = match any path
  std::uint64_t after = 0;          // matches to let through before arming
  double probability = 1.0;         // chance an armed match fires
  int err = EIO;                    // positive errno to inject
  bool short_write = false;         // Write only: transfer half the bytes, no error
  bool sticky = false;              // once fired, every later match fails (full disk)
  bool once = false;                // disarm after the first firing
};

inline constexpr std::uint32_t IoOpBit(IoOp op) {
  return 1u << static_cast<std::uint32_t>(op);
}

// Deterministic, seeded fault-injecting wrapper around a base env. Thread-safe: the
// WAL flusher, the coordinator, and test threads all reach it concurrently.
class FaultInjectingIoEnv : public IoEnv {
 public:
  explicit FaultInjectingIoEnv(std::uint64_t seed, IoEnv* base = nullptr);

  void AddRule(const FaultRule& rule);

  std::uint64_t injected_faults() const {
    // Stats counter: racy reads are the contract.
    return injected_.load(std::memory_order_relaxed);
  }

  int Open(const char* path, int flags, int mode) override;
  long Write(int fd, const void* buf, std::size_t n) override;
  long Pread(int fd, void* buf, std::size_t n, std::uint64_t offset) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Truncate(const char* path, std::uint64_t len) override;
  int Unlink(const char* path) override;
  int Mkdir(const char* path, int mode) override;
  long FileSize(int fd) override;

 private:
  struct ArmedRule {
    FaultRule rule;
    std::uint64_t matches = 0;
    bool tripped = false;    // a sticky rule that has fired
    bool disarmed = false;   // a once rule that has fired
  };

  // Returns 0 (pass through), a positive errno to inject, or kShortWrite.
  static constexpr int kShortWrite = -1;
  int MaybeFail(IoOp op, const std::string& path);
  std::string PathForFd(int fd);

  IoEnv* const base_;
  Spinlock mu_;
  Rng rng_ GUARDED_BY(mu_);
  std::vector<ArmedRule> rules_ GUARDED_BY(mu_);
  std::unordered_map<int, std::string> fd_paths_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_PERSIST_IO_ENV_H_
