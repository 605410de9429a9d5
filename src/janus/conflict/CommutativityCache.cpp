#include "janus/conflict/CommutativityCache.h"

#include <sstream>

using namespace janus;
using namespace janus::conflict;

void CommutativityCache::insert(CacheKey Key, symbolic::Condition Cond) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Entries[std::move(Key)] = std::move(Cond);
  Generation.fetch_add(1, std::memory_order_seq_cst);
}

std::optional<symbolic::Condition>
CommutativityCache::lookup(const CacheKey &Key) const {
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return std::nullopt;
  return It->second;
}

size_t CommutativityCache::size() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Entries.size();
}

std::map<CacheKey, symbolic::Condition> CommutativityCache::entries() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Entries;
}

void CommutativityCache::replaceAll(
    std::map<CacheKey, symbolic::Condition> Next) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Entries = std::move(Next);
  Generation.fetch_add(1, std::memory_order_seq_cst);
}

std::string CommutativityCache::serialize() const {
  std::string Out = "janus-commutativity-cache v1\n";
  std::lock_guard<std::mutex> Guard(Mutex);
  for (const auto &[Key, Cond] : Entries) {
    Out += "class " + Key.LocClass + "\n";
    Out += "mine " + Key.MineSig + "\n";
    Out += "theirs " + Key.TheirsSig + "\n";
    Out += "cond ";
    Cond.serialize(Out);
    Out += "\n";
  }
  return Out;
}

bool CommutativityCache::deserializeInto(const std::string &In) {
  std::istringstream Stream(In);
  std::string Line;
  auto Fail = [this]() {
    replaceAll({});
    return false;
  };
  if (!std::getline(Stream, Line) || Line != "janus-commutativity-cache v1")
    return Fail();
  auto StripPrefix = [](const std::string &S, const char *Prefix,
                        std::string &Rest) {
    size_t Len = std::string(Prefix).size();
    if (S.compare(0, Len, Prefix) != 0)
      return false;
    Rest = S.substr(Len);
    return true;
  };

  std::map<CacheKey, symbolic::Condition> Parsed;
  while (std::getline(Stream, Line)) {
    if (Line.empty())
      continue;
    CacheKey Key;
    if (!StripPrefix(Line, "class ", Key.LocClass))
      return Fail();
    if (!std::getline(Stream, Line) ||
        !StripPrefix(Line, "mine ", Key.MineSig))
      return Fail();
    if (!std::getline(Stream, Line) ||
        !StripPrefix(Line, "theirs ", Key.TheirsSig))
      return Fail();
    std::string CondText;
    if (!std::getline(Stream, Line) ||
        !StripPrefix(Line, "cond ", CondText))
      return Fail();
    size_t Pos = 0;
    auto Cond = symbolic::Condition::deserialize(CondText, Pos);
    if (!Cond)
      return Fail();
    Parsed[std::move(Key)] = std::move(*Cond);
  }
  replaceAll(std::move(Parsed));
  return true;
}
