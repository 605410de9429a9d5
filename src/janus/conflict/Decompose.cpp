#include "janus/conflict/Decompose.h"

#include <algorithm>

using namespace janus;
using namespace janus::conflict;

Decomposition conflict::decompose(const stm::TxLog &Log) {
  Decomposition Out;
  for (const stm::LogEntry &E : Log)
    Out[E.Loc].push_back(E.Op);
  return Out;
}

Decomposition conflict::decomposeAll(const std::vector<stm::TxLogRef> &Logs) {
  Decomposition Out;
  for (const stm::TxLogRef &Log : Logs)
    for (const stm::LogEntry &E : *Log)
      Out[E.Loc].push_back(E.Op);
  return Out;
}

std::vector<CommonLocation>
conflict::decomposeCommon(const stm::TxLog &Mine,
                          const std::vector<stm::TxLogRef> &Window) {
  // The attempt's domain, sorted by location hash and deduplicated: a
  // window entry finds its location's index by a binary search over
  // integers, comparing locations only on a hash tie.
  struct Key {
    size_t Hash;
    const Location *Loc;
  };
  auto Before = [](const Key &A, const Key &B) {
    return A.Hash != B.Hash ? A.Hash < B.Hash : *A.Loc < *B.Loc;
  };
  std::vector<Key> Dom;
  Dom.reserve(Mine.size());
  for (const stm::LogEntry &E : Mine)
    Dom.push_back({E.Loc.hash(), &E.Loc});
  std::sort(Dom.begin(), Dom.end(), Before);
  Dom.erase(std::unique(Dom.begin(), Dom.end(),
                        [](const Key &A, const Key &B) {
                          return A.Hash == B.Hash && *A.Loc == *B.Loc;
                        }),
            Dom.end());
  const size_t None = Dom.size();
  auto IndexOf = [&](const Location &Loc) {
    const size_t H = Loc.hash();
    auto It = std::lower_bound(
        Dom.begin(), Dom.end(), H,
        [](const Key &K, size_t Hash) { return K.Hash < Hash; });
    for (; It != Dom.end() && It->Hash == H; ++It)
      if (*It->Loc == Loc)
        return static_cast<size_t>(It - Dom.begin());
    return None;
  };

  std::vector<symbolic::LocOpSeq> Theirs(Dom.size());
  for (const stm::TxLogRef &Log : Window)
    for (const stm::LogEntry &E : *Log)
      if (size_t I = IndexOf(E.Loc); I != None)
        Theirs[I].push_back(E.Op);

  // Slot[I] is Dom[I]'s output position, if the window touched it.
  std::vector<CommonLocation> Out;
  std::vector<size_t> Slot(Dom.size(), None);
  for (size_t I = 0; I != Dom.size(); ++I)
    if (!Theirs[I].empty()) {
      Slot[I] = Out.size();
      Out.push_back({*Dom[I].Loc, {}, std::move(Theirs[I])});
    }
  if (Out.empty())
    return Out;
  for (const stm::LogEntry &E : Mine)
    if (size_t S = Slot[IndexOf(E.Loc)]; S != None)
      Out[S].Mine.push_back(E.Op);
  std::sort(Out.begin(), Out.end(),
            [](const CommonLocation &A, const CommonLocation &B) {
              return A.Loc < B.Loc;
            });
  return Out;
}
