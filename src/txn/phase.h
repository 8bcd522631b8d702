// Execution phases (§5). Reconciliation is not a phase transactions run in: it is the
// work each worker performs while acknowledging the SPLIT -> JOINED transition.
#ifndef DOPPEL_SRC_TXN_PHASE_H_
#define DOPPEL_SRC_TXN_PHASE_H_

#include <cstdint>

namespace doppel {

enum class Phase : std::uint8_t {
  kJoined = 0,
  kSplit = 1,
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_PHASE_H_
