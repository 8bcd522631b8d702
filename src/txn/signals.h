// The stash notice an engine's classifier hook receives.
//
// Doppel transactions are one-shot procedures. An access that cannot proceed dooms the
// attempt through the Txn's doom slot (Txn::Doom); nothing is thrown. When the doom is a
// stash, the runner passes the blocking access to Engine::OnStash as a StashSignal.
#ifndef DOPPEL_SRC_TXN_SIGNALS_H_
#define DOPPEL_SRC_TXN_SIGNALS_H_

#include "src/txn/op.h"

namespace doppel {

class Record;

// The transaction touched split data with an incompatible operation during a split phase;
// it must be stashed and restarted in the next joined phase (§5.2).
struct StashSignal {
  Record* record;
  OpCode op;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_SIGNALS_H_
