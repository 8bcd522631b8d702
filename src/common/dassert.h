// Lightweight CHECK/DCHECK macros.
//
// CHECK is always on (invariant violations in a concurrency control engine must fail fast,
// never corrupt the store); DCHECK compiles away outside debug builds.
#ifndef DOPPEL_SRC_COMMON_DASSERT_H_
#define DOPPEL_SRC_COMMON_DASSERT_H_

#include <cstdio>
#include <cstdlib>

namespace doppel {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "CHECK failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

}  // namespace doppel

#define DOPPEL_CHECK(expr)                                 \
  do {                                                     \
    if (__builtin_expect(!(expr), 0)) {                    \
      ::doppel::CheckFailed(#expr, __FILE__, __LINE__);    \
    }                                                      \
  } while (0)

#ifndef NDEBUG
#define DOPPEL_DCHECK(expr) DOPPEL_CHECK(expr)
#else
#define DOPPEL_DCHECK(expr) \
  do {                      \
  } while (0)
#endif

#endif  // DOPPEL_SRC_COMMON_DASSERT_H_
