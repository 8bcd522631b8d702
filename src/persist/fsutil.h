// Shared filesystem durability helpers for the persistence directory. The
// crash-safety-critical fsync sequence (make the new bytes durable, then make the
// rename durable) lives here once, used by both the manifest and the checkpointer.
//
// The helpers route through an IoEnv, report failures instead of aborting, and close
// the fd on every path. Per the io_env.h taxonomy a failed fsync is never retried.
#ifndef DOPPEL_SRC_PERSIST_FSUTIL_H_
#define DOPPEL_SRC_PERSIST_FSUTIL_H_

#include <fcntl.h>
#include <unistd.h>

#include <string>

#include "src/persist/io_env.h"

namespace doppel {

inline IoFailure FsyncPathEnv(IoEnv* env, const std::string& path,
                              int open_flags = O_RDONLY) {
  const int fd = env->Open(path.c_str(), open_flags, 0);
  if (fd < 0) {
    return IoFailure{-fd, IoOp::kOpen};
  }
  const int rc = env->Fsync(fd);
  env->Close(fd);
  if (rc != 0) {
    return IoFailure{-rc, IoOp::kFsync};
  }
  return IoFailure{};
}

inline IoFailure FsyncDirEnv(IoEnv* env, const std::string& dir) {
  return FsyncPathEnv(env, dir, O_RDONLY | O_DIRECTORY);
}

}  // namespace doppel

#endif  // DOPPEL_SRC_PERSIST_FSUTIL_H_
