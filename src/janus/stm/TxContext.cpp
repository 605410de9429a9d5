#include "janus/stm/TxContext.h"

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;

// Escape checks compile out under NDEBUG / -DJANUS_ESCAPE_CHECKS=0; the
// macro keeps the hot path a single predictable branch when they are in.
#if JANUS_ESCAPE_CHECKS
#define JANUS_CHECK_ACTIVE(Where)                                             \
  do {                                                                        \
    if (!Active)                                                              \
      flagEscape(Where);                                                      \
  } while (false)
#else
#define JANUS_CHECK_ACTIVE(Where)                                             \
  do {                                                                        \
  } while (false)
#endif

void TxContext::flagEscape(const char *Fallback) {
  reportEscape(Tid, PendingEscapeWhere ? PendingEscapeWhere : Fallback);
  PendingEscapeWhere = nullptr;
  if (Stats)
    ++Stats->EscapedAccesses;
}

Value TxContext::read(const Location &Loc) {
  JANUS_CHECK_ACTIVE("TxContext::read");
  Value V = snapshotValue(stateFor(Loc), Loc);
  Log.push_back(LogEntry{Loc, LocOp::read(V)});
  return V;
}

void TxContext::write(const Location &Loc, Value V) {
  JANUS_CHECK_ACTIVE("TxContext::write");
  stateFor(Loc).setInPlace(Loc, V);
  Log.push_back(LogEntry{Loc, LocOp::write(std::move(V))});
}

void TxContext::add(const Location &Loc, int64_t Delta) {
  JANUS_CHECK_ACTIVE("TxContext::add");
  LocOp Op = LocOp::add(Delta);
  applyOp(stateFor(Loc), Loc, Op);
  Log.push_back(LogEntry{Loc, std::move(Op)});
}
