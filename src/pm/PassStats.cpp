//===- pm/PassStats.cpp - Named per-pass counters -----------------------------===//

#include "pm/PassStats.h"

#include "support/Json.h"

using namespace sxe;

StatEntry &PassStats::entry(const std::string &Pass,
                            const std::string &Name) {
  std::string Key = keyOf(Pass, Name);
  auto It = Index.find(Key);
  if (It != Index.end())
    return Entries[It->second];
  Index.emplace(std::move(Key), Entries.size());
  Entries.push_back(StatEntry{Pass, Name, 0, false});
  return Entries.back();
}

uint64_t &PassStats::counter(const std::string &Pass,
                             const std::string &Name) {
  return entry(Pass, Name).Value;
}

uint64_t &PassStats::flag(const std::string &Pass, const std::string &Name) {
  StatEntry &E = entry(Pass, Name);
  E.IsFlag = true;
  return E.Value;
}

uint64_t PassStats::value(const std::string &Pass,
                          const std::string &Name) const {
  auto It = Index.find(keyOf(Pass, Name));
  return It == Index.end() ? 0 : Entries[It->second].Value;
}

uint64_t PassStats::total(const std::string &Name) const {
  uint64_t Sum = 0;
  for (const StatEntry &E : Entries)
    if (E.Name == Name)
      Sum += E.Value;
  return Sum;
}

void PassStats::merge(const PassStats &Other) {
  for (const StatEntry &E : Other.Entries) {
    StatEntry &Mine = entry(E.Pass, E.Name);
    if (E.IsFlag) {
      // Mode flags describe a configuration, not an amount: N runs in PDE
      // mode must aggregate to pde_variant = 1, not N.
      Mine.IsFlag = true;
      Mine.Value = Mine.Value > E.Value ? Mine.Value : E.Value;
    } else {
      Mine.Value += E.Value;
    }
  }
}

namespace {

template <typename EntryRange>
void encodeEntries(JsonWriter &J, const EntryRange &Entries) {
  J.beginArray();
  for (const StatEntry &E : Entries) {
    J.beginObject();
    J.keyValue("pass", E.Pass);
    J.keyValue("name", E.Name);
    J.keyValue("value", E.Value);
    if (E.IsFlag)
      J.keyValue("flag", true);
    J.endObject();
  }
  J.endArray();
}

} // namespace

void sxe::encodeStatEntries(JsonWriter &J,
                            const std::deque<StatEntry> &Entries) {
  encodeEntries(J, Entries);
}

void sxe::encodeStatEntries(JsonWriter &J,
                            const std::vector<StatEntry> &Entries) {
  encodeEntries(J, Entries);
}

bool sxe::decodeStatEntries(const JsonValue &Array,
                            std::vector<StatEntry> &Out, std::string &Error) {
  if (!Array.isArray()) {
    Error = "stats field is not an array";
    return false;
  }
  for (const JsonValue &Item : Array.array()) {
    if (!Item.isObject()) {
      Error = "stats entry is not an object";
      return false;
    }
    StatEntry Entry;
    Entry.Pass = Item.stringField("pass");
    Entry.Name = Item.stringField("name");
    const JsonValue *Value = Item.find("value");
    if (Value && Value->isNumber() && Value->numberValue() > 0)
      Entry.Value = static_cast<uint64_t>(Value->numberValue());
    const JsonValue *Flag = Item.find("flag");
    Entry.IsFlag = Flag && Flag->isBool() && Flag->boolValue();
    Out.push_back(std::move(Entry));
  }
  return true;
}
