#include "src/persist/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

namespace doppel {

const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kOpen:
      return "open";
    case IoOp::kWrite:
      return "write";
    case IoOp::kPread:
      return "pread";
    case IoOp::kFsync:
      return "fsync";
    case IoOp::kClose:
      return "close";
    case IoOp::kRename:
      return "rename";
    case IoOp::kTruncate:
      return "truncate";
    case IoOp::kUnlink:
      return "unlink";
    case IoOp::kMkdir:
      return "mkdir";
    case IoOp::kStat:
      return "stat";
  }
  return "?";
}

int IoEnv::Open(const char* path, int flags, int mode) {
  const int fd = ::open(path, flags, mode);
  return fd >= 0 ? fd : -errno;
}

long IoEnv::Write(int fd, const void* buf, std::size_t n) {
  const ssize_t r = ::write(fd, buf, n);
  return r >= 0 ? static_cast<long>(r) : -errno;
}

long IoEnv::Pread(int fd, void* buf, std::size_t n, std::uint64_t offset) {
  const ssize_t r = ::pread(fd, buf, n, static_cast<off_t>(offset));
  return r >= 0 ? static_cast<long>(r) : -errno;
}

int IoEnv::Fsync(int fd) { return ::fsync(fd) == 0 ? 0 : -errno; }

int IoEnv::Close(int fd) { return ::close(fd) == 0 ? 0 : -errno; }

int IoEnv::Rename(const char* from, const char* to) {
  return std::rename(from, to) == 0 ? 0 : -errno;
}

int IoEnv::Truncate(const char* path, std::uint64_t len) {
  return ::truncate(path, static_cast<off_t>(len)) == 0 ? 0 : -errno;
}

int IoEnv::Unlink(const char* path) { return ::unlink(path) == 0 ? 0 : -errno; }

int IoEnv::Mkdir(const char* path, int mode) {
  return ::mkdir(path, static_cast<mode_t>(mode)) == 0 ? 0 : -errno;
}

long IoEnv::FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<long>(st.st_size) : -errno;
}

IoEnv* IoEnv::Default() {
  // Leaked on purpose: stateless, and callers (WAL destructors, static test fixtures)
  // may touch it arbitrarily late in process teardown.
  static IoEnv* const env = new IoEnv();
  return env;
}

namespace {

void BackoffSleep(int attempt, const IoRetryPolicy& policy) {
  std::uint64_t us = policy.backoff_min_us << (attempt < 16 ? attempt : 16);
  if (us > policy.backoff_max_us) {
    us = policy.backoff_max_us;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Shared retry loop for the non-write syscalls: reissue on EINTR/EAGAIN with bounded
// backoff, escalate everything else (and exhausted retries) as permanent.
template <typename Fn>
int RetryTransient(Fn&& fn, const IoRetryPolicy& policy,
                   std::atomic<std::uint64_t>* retries) {
  int rc = 0;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    rc = fn();
    if (rc >= 0 || !IsTransientIoError(rc)) {
      return rc;
    }
    if (retries != nullptr) {
      // Stats counter: racy reads are the contract.
      retries->fetch_add(1, std::memory_order_relaxed);
    }
    BackoffSleep(attempt, policy);
  }
  return rc;
}

}  // namespace

int WriteFullyRetry(IoEnv* env, int fd, const char* data, std::size_t n,
                    const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries) {
  int attempts_without_progress = 0;
  while (n > 0) {
    const long r = env->Write(fd, data, n);
    if (r > 0) {
      // Progress resets the transient budget; a short write just continues the loop.
      if (static_cast<std::size_t>(r) < n && retries != nullptr) {
        // Stats counter: racy reads are the contract.
        retries->fetch_add(1, std::memory_order_relaxed);
      }
      data += r;
      n -= static_cast<std::size_t>(r);
      attempts_without_progress = 0;
      continue;
    }
    const int rc = r == 0 ? -EAGAIN : static_cast<int>(r);
    if (!IsTransientIoError(rc)) {
      return rc;
    }
    if (++attempts_without_progress >= policy.max_attempts) {
      return rc;  // transient budget exhausted: escalate as permanent
    }
    if (retries != nullptr) {
      // Stats counter: racy reads are the contract.
      retries->fetch_add(1, std::memory_order_relaxed);
    }
    BackoffSleep(attempts_without_progress - 1, policy);
  }
  return 0;
}

int OpenRetry(IoEnv* env, const char* path, int flags, int mode,
              const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries) {
  return RetryTransient([&] { return env->Open(path, flags, mode); }, policy, retries);
}

int RenameRetry(IoEnv* env, const char* from, const char* to,
                const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries) {
  return RetryTransient([&] { return env->Rename(from, to); }, policy, retries);
}

int TruncateRetry(IoEnv* env, const char* path, std::uint64_t len,
                  const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries) {
  return RetryTransient([&] { return env->Truncate(path, len); }, policy, retries);
}

IoFailure ReadFileRetry(IoEnv* env, const std::string& path, std::string* out,
                        const IoRetryPolicy& policy, std::atomic<std::uint64_t>* retries) {
  out->clear();
  const int fd = OpenRetry(env, path.c_str(), O_RDONLY, 0, policy, retries);
  if (fd < 0) {
    return IoFailure{-fd, IoOp::kOpen};
  }
  const auto fail = [&](long rc, IoOp op) {
    env->Close(fd);
    out->clear();
    return IoFailure{static_cast<int>(-rc), op};
  };
  const long size = env->FileSize(fd);
  if (size < 0) {
    return fail(size, IoOp::kStat);
  }
  out->resize(static_cast<std::size_t>(size));
  std::size_t done = 0;
  int attempts_without_progress = 0;
  while (done < out->size()) {
    const long r = env->Pread(fd, out->data() + done, out->size() - done, done);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      attempts_without_progress = 0;
      continue;
    }
    // EOF before the size fstat reported means the file shrank under us: not
    // something a retry can fix.
    const long rc = r == 0 ? -EIO : r;
    if (!IsTransientIoError(static_cast<int>(rc)) ||
        ++attempts_without_progress >= policy.max_attempts) {
      return fail(rc, IoOp::kPread);
    }
    if (retries != nullptr) {
      // Stats counter: racy reads are the contract.
      retries->fetch_add(1, std::memory_order_relaxed);
    }
    BackoffSleep(attempts_without_progress - 1, policy);
  }
  env->Close(fd);
  return IoFailure{};
}

// ---- FaultInjectingIoEnv ----

FaultInjectingIoEnv::FaultInjectingIoEnv(std::uint64_t seed, IoEnv* base)
    : base_(base != nullptr ? base : IoEnv::Default()), rng_(seed) {}

void FaultInjectingIoEnv::AddRule(const FaultRule& rule) {
  SpinlockGuard lock(mu_);
  rules_.push_back(ArmedRule{rule, 0, false, false});
}

std::string FaultInjectingIoEnv::PathForFd(int fd) {
  SpinlockGuard lock(mu_);
  const auto it = fd_paths_.find(fd);
  return it != fd_paths_.end() ? it->second : std::string();
}

int FaultInjectingIoEnv::MaybeFail(IoOp op, const std::string& path) {
  SpinlockGuard lock(mu_);
  for (ArmedRule& r : rules_) {
    if (r.disarmed || (r.rule.ops & IoOpBit(op)) == 0) {
      continue;
    }
    if (!r.rule.path_substring.empty() &&
        path.find(r.rule.path_substring) == std::string::npos) {
      continue;
    }
    if (r.tripped) {
      // Stats counter: racy reads are the contract.
      injected_.fetch_add(1, std::memory_order_relaxed);
      return r.rule.short_write ? kShortWrite : r.rule.err;
    }
    if (r.matches++ < r.rule.after) {
      continue;
    }
    const bool fire =
        r.rule.probability >= 1.0 ||
        rng_.NextBounded(1u << 20) < static_cast<std::uint64_t>(
                                         r.rule.probability * (1u << 20));
    if (!fire) {
      continue;
    }
    if (r.rule.sticky) {
      r.tripped = true;
    }
    if (r.rule.once) {
      r.disarmed = true;
    }
    // Stats counter: racy reads are the contract.
    injected_.fetch_add(1, std::memory_order_relaxed);
    return r.rule.short_write ? kShortWrite : r.rule.err;
  }
  return 0;
}

int FaultInjectingIoEnv::Open(const char* path, int flags, int mode) {
  const int fault = MaybeFail(IoOp::kOpen, path);
  if (fault > 0) {
    return -fault;
  }
  const int fd = base_->Open(path, flags, mode);
  if (fd >= 0) {
    SpinlockGuard lock(mu_);
    fd_paths_[fd] = path;
  }
  return fd;
}

long FaultInjectingIoEnv::Write(int fd, const void* buf, std::size_t n) {
  const int fault = MaybeFail(IoOp::kWrite, PathForFd(fd));
  if (fault > 0) {
    return -fault;
  }
  if (fault == kShortWrite && n > 1) {
    n /= 2;  // deliver half; the retry loop must finish the job
  }
  return base_->Write(fd, buf, n);
}

long FaultInjectingIoEnv::Pread(int fd, void* buf, std::size_t n,
                                std::uint64_t offset) {
  const int fault = MaybeFail(IoOp::kPread, PathForFd(fd));
  if (fault > 0) {
    return -fault;
  }
  return base_->Pread(fd, buf, n, offset);
}

int FaultInjectingIoEnv::Fsync(int fd) {
  const int fault = MaybeFail(IoOp::kFsync, PathForFd(fd));
  if (fault > 0) {
    return -fault;
  }
  return base_->Fsync(fd);
}

int FaultInjectingIoEnv::Close(int fd) {
  {
    SpinlockGuard lock(mu_);
    fd_paths_.erase(fd);
  }
  return base_->Close(fd);  // close never injected: leaking fds helps no test
}

int FaultInjectingIoEnv::Rename(const char* from, const char* to) {
  const int fault = MaybeFail(IoOp::kRename, to);
  if (fault > 0) {
    return -fault;
  }
  return base_->Rename(from, to);
}

int FaultInjectingIoEnv::Truncate(const char* path, std::uint64_t len) {
  const int fault = MaybeFail(IoOp::kTruncate, path);
  if (fault > 0) {
    return -fault;
  }
  return base_->Truncate(path, len);
}

int FaultInjectingIoEnv::Unlink(const char* path) {
  const int fault = MaybeFail(IoOp::kUnlink, path);
  if (fault > 0) {
    return -fault;
  }
  return base_->Unlink(path);
}

long FaultInjectingIoEnv::FileSize(int fd) {
  const int fault = MaybeFail(IoOp::kStat, PathForFd(fd));
  if (fault > 0) {
    return -fault;
  }
  return base_->FileSize(fd);
}

int FaultInjectingIoEnv::Mkdir(const char* path, int mode) {
  const int fault = MaybeFail(IoOp::kMkdir, path);
  if (fault > 0) {
    return -fault;
  }
  return base_->Mkdir(path, mode);
}

}  // namespace doppel
