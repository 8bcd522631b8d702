// Monotonic time helpers. All engine-internal timing is in nanoseconds on the steady
// clock; benchmarks convert at the edges.
#ifndef DOPPEL_SRC_COMMON_TIMING_H_
#define DOPPEL_SRC_COMMON_TIMING_H_

#include <chrono>
#include <cstdint>

namespace doppel {

inline std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NanosToSeconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

inline std::uint64_t MillisToNanos(std::uint64_t ms) { return ms * 1000000ULL; }
inline std::uint64_t MicrosToNanos(std::uint64_t us) { return us * 1000ULL; }

// Scoped stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}
  std::uint64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedSeconds() const { return NanosToSeconds(ElapsedNanos()); }

 private:
  std::uint64_t start_;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_COMMON_TIMING_H_
