//===- jit/PersistentCache.cpp - On-disk content-addressed cache --------------===//

#include "jit/PersistentCache.h"

#include "obs/Remarks.h"
#include "obs/TraceContext.h"
#include "support/IRHash.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace sxe;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Entry serialization
//===----------------------------------------------------------------------===//

namespace {

/// Canonical artifact digest: FNV-1a over every field a hit must
/// reproduce. Recomputed from the decoded artifact on load, so any bit
/// rot in the stored payload — not just truncation — reads as corrupt.
uint64_t checksumCompiledCode(const CompiledCode &Code) {
  StableHasher H;
  H.mix(Code.IRText);
  H.mix(Code.InputIRHash);
  for (const StatEntry &E : Code.Stats.entries()) {
    H.mix(E.Pass);
    H.mix(E.Name);
    H.mix(E.Value);
    H.mix(static_cast<uint64_t>(E.IsFlag));
  }
  for (const Remark &R : Code.Remarks)
    H.mix(remarkToJsonLine(R));
  const PipelineStats &L = Code.Legacy;
  for (uint64_t Word :
       {static_cast<uint64_t>(L.ExtensionsGenerated),
        static_cast<uint64_t>(L.ExtensionsInserted),
        static_cast<uint64_t>(L.DummiesInserted),
        static_cast<uint64_t>(L.ExtensionsEliminated),
        static_cast<uint64_t>(L.DummiesRemoved),
        static_cast<uint64_t>(L.GeneralOptRewrites),
        static_cast<uint64_t>(L.SubscriptExtended),
        static_cast<uint64_t>(L.SubscriptTheorem1),
        static_cast<uint64_t>(L.SubscriptTheorem2),
        static_cast<uint64_t>(L.SubscriptTheorem3),
        static_cast<uint64_t>(L.SubscriptTheorem4), L.ConversionNanos,
        L.GeneralOptsNanos, L.ChainCreationNanos, L.SxeOptNanos, L.TotalNanos})
    H.mix(Word);
  return H.result();
}

uint64_t numField(const JsonValue &V, const char *Name) {
  const JsonValue *F = V.find(Name);
  return F && F->isNumber() ? static_cast<uint64_t>(F->numberValue()) : 0;
}

} // namespace

std::string sxe::encodePersistentEntry(const std::string &Key,
                                       const CompiledCode &Code) {
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kPCacheEntrySchema);
  J.keyValue("key", Key);
  J.keyValue("checksum", traceIdHex(checksumCompiledCode(Code)));
  J.keyValue("ir_hash", traceIdHex(Code.InputIRHash));
  J.keyValue("ir", Code.IRText);
  J.key("stats");
  encodeStatEntries(J, Code.Stats.entries());
  const PipelineStats &L = Code.Legacy;
  J.key("legacy");
  J.beginObject();
  J.keyValue("extensions_generated", L.ExtensionsGenerated);
  J.keyValue("extensions_inserted", L.ExtensionsInserted);
  J.keyValue("dummies_inserted", L.DummiesInserted);
  J.keyValue("extensions_eliminated", L.ExtensionsEliminated);
  J.keyValue("dummies_removed", L.DummiesRemoved);
  J.keyValue("general_opt_rewrites", L.GeneralOptRewrites);
  J.keyValue("subscript_extended", L.SubscriptExtended);
  J.keyValue("theorem1_fired", L.SubscriptTheorem1);
  J.keyValue("theorem2_fired", L.SubscriptTheorem2);
  J.keyValue("theorem3_fired", L.SubscriptTheorem3);
  J.keyValue("theorem4_fired", L.SubscriptTheorem4);
  J.keyValue("conversion_ns", L.ConversionNanos);
  J.keyValue("general_opts_ns", L.GeneralOptsNanos);
  J.keyValue("chain_creation_ns", L.ChainCreationNanos);
  J.keyValue("sxe_opt_ns", L.SxeOptNanos);
  J.keyValue("total_ns", L.TotalNanos);
  J.endObject();
  // Remarks as their canonical JSONL lines (minus the newline), so the
  // replayed stream is byte-identical to the producing run's.
  J.key("remarks");
  J.beginArray();
  for (const Remark &R : Code.Remarks) {
    std::string Line = remarkToJsonLine(R);
    if (!Line.empty() && Line.back() == '\n')
      Line.pop_back();
    J.value(Line);
  }
  J.endArray();
  J.endObject();
  return J.str();
}

bool sxe::decodePersistentEntry(const std::string &Text,
                                const std::string &Key, CompiledCode &Out,
                                std::string &Error) {
  JsonValue V;
  if (!parseJson(Text, V, Error))
    return false;
  if (V.stringField("schema") != kPCacheEntrySchema) {
    Error = "not an " + std::string(kPCacheEntrySchema) + " entry";
    return false;
  }
  if (V.stringField("key") != Key) {
    Error = "entry stores a different key (filename collision)";
    return false;
  }
  const JsonValue *Ir = V.find("ir");
  if (!Ir || !Ir->isString()) {
    Error = "missing ir text";
    return false;
  }
  Out = CompiledCode();
  Out.IRText = Ir->stringValue();
  Out.InputIRHash =
      std::strtoull(V.stringField("ir_hash").c_str(), nullptr, 16);

  const JsonValue *Stats = V.find("stats");
  if (!Stats) {
    Error = "missing stats array";
    return false;
  }
  std::vector<StatEntry> Entries;
  if (!decodeStatEntries(*Stats, Entries, Error))
    return false;
  for (const StatEntry &E : Entries)
    (E.IsFlag ? Out.Stats.flag(E.Pass, E.Name)
              : Out.Stats.counter(E.Pass, E.Name)) = E.Value;

  const JsonValue *Legacy = V.find("legacy");
  if (!Legacy || !Legacy->isObject()) {
    Error = "missing legacy stats";
    return false;
  }
  PipelineStats &L = Out.Legacy;
  L.ExtensionsGenerated =
      static_cast<unsigned>(numField(*Legacy, "extensions_generated"));
  L.ExtensionsInserted =
      static_cast<unsigned>(numField(*Legacy, "extensions_inserted"));
  L.DummiesInserted =
      static_cast<unsigned>(numField(*Legacy, "dummies_inserted"));
  L.ExtensionsEliminated =
      static_cast<unsigned>(numField(*Legacy, "extensions_eliminated"));
  L.DummiesRemoved =
      static_cast<unsigned>(numField(*Legacy, "dummies_removed"));
  L.GeneralOptRewrites =
      static_cast<unsigned>(numField(*Legacy, "general_opt_rewrites"));
  L.SubscriptExtended =
      static_cast<unsigned>(numField(*Legacy, "subscript_extended"));
  L.SubscriptTheorem1 =
      static_cast<unsigned>(numField(*Legacy, "theorem1_fired"));
  L.SubscriptTheorem2 =
      static_cast<unsigned>(numField(*Legacy, "theorem2_fired"));
  L.SubscriptTheorem3 =
      static_cast<unsigned>(numField(*Legacy, "theorem3_fired"));
  L.SubscriptTheorem4 =
      static_cast<unsigned>(numField(*Legacy, "theorem4_fired"));
  L.ConversionNanos = numField(*Legacy, "conversion_ns");
  L.GeneralOptsNanos = numField(*Legacy, "general_opts_ns");
  L.ChainCreationNanos = numField(*Legacy, "chain_creation_ns");
  L.SxeOptNanos = numField(*Legacy, "sxe_opt_ns");
  L.TotalNanos = numField(*Legacy, "total_ns");

  const JsonValue *Remarks = V.find("remarks");
  if (!Remarks || !Remarks->isArray()) {
    Error = "missing remarks array";
    return false;
  }
  for (const JsonValue &Line : Remarks->array()) {
    Remark R;
    if (!Line.isString() ||
        !remarkFromJsonLine(Line.stringValue(), R, Error)) {
      Error = "bad remark line: " + Error;
      return false;
    }
    Out.Remarks.push_back(std::move(R));
  }

  uint64_t Stored =
      std::strtoull(V.stringField("checksum").c_str(), nullptr, 16);
  if (Stored != checksumCompiledCode(Out)) {
    Error = "checksum mismatch";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

namespace {

bool readFileText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Write-to-temp + rename(2) publication; the only way entry and index
/// files are ever produced.
bool writeFileAtomic(const std::string &Path, const std::string &Text) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
    if (!Out)
      return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

std::string fileNameForKey(const std::string &Key) {
  StableHasher H;
  H.mix(Key);
  return traceIdHex(H.result()) + ".json";
}

} // namespace

PersistentCache::PersistentCache(PersistentCacheOptions Opts)
    : Options(std::move(Opts)) {
  if (!enabled())
    return;
  std::error_code Ec;
  fs::create_directories(fs::path(Options.Dir) / "objects", Ec);
  std::lock_guard<std::mutex> Lock(Mu);
  loadIndexLocked();
}

PersistentCache::~PersistentCache() { flushIndex(); }

std::string PersistentCache::objectPathFor(const std::string &Key) const {
  return (fs::path(Options.Dir) / "objects" / fileNameForKey(Key)).string();
}

void PersistentCache::loadIndexLocked() {
  std::string Text;
  std::string IndexPath = (fs::path(Options.Dir) / "index.json").string();
  JsonValue V;
  std::string Error;
  if (!readFileText(IndexPath, Text) || !parseJson(Text, V, Error) ||
      V.stringField("schema") != kPCacheIndexSchema) {
    rescanObjectsLocked();
    return;
  }
  const JsonValue *Entries = V.find("entries");
  if (!Entries || !Entries->isArray()) {
    rescanObjectsLocked();
    return;
  }
  for (const JsonValue &E : Entries->array()) {
    std::string Key = E.stringField("key");
    Entry Item;
    Item.File = E.stringField("file");
    Item.Bytes = numField(E, "bytes");
    Item.AccessTick = numField(E, "access");
    if (Key.empty() || Item.File.empty())
      continue;
    // Trust but verify: an entry another process evicted is dropped here.
    std::error_code Ec;
    if (!fs::exists(fs::path(Options.Dir) / "objects" / Item.File, Ec))
      continue;
    TotalBytes += Item.Bytes;
    NextTick = std::max(NextTick, Item.AccessTick + 1);
    Index.emplace(std::move(Key), std::move(Item));
  }
}

void PersistentCache::rescanObjectsLocked() {
  Index.clear();
  TotalBytes = 0;
  std::error_code Ec;
  for (const auto &File :
       fs::directory_iterator(fs::path(Options.Dir) / "objects", Ec)) {
    if (!File.is_regular_file() || File.path().extension() != ".json")
      continue;
    std::string Text;
    if (!readFileText(File.path().string(), Text))
      continue;
    JsonValue V;
    std::string Error;
    if (!parseJson(Text, V, Error) ||
        V.stringField("schema") != kPCacheEntrySchema)
      continue;
    std::string Key = V.stringField("key");
    if (Key.empty())
      continue;
    Entry Item;
    Item.File = File.path().filename().string();
    Item.Bytes = Text.size();
    Item.AccessTick = NextTick++;
    TotalBytes += Item.Bytes;
    Index.emplace(std::move(Key), std::move(Item));
  }
}

void PersistentCache::dropEntryLocked(const std::string &Key,
                                      bool CountEviction) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return;
  std::error_code Ec;
  fs::remove(fs::path(Options.Dir) / "objects" / It->second.File, Ec);
  TotalBytes -= std::min(TotalBytes, It->second.Bytes);
  Index.erase(It);
  if (CountEviction)
    ++Evictions;
}

void PersistentCache::evictOverBudgetLocked() {
  while (TotalBytes > Options.MaxBytes && Index.size() > 1) {
    auto Oldest = Index.end();
    for (auto It = Index.begin(); It != Index.end(); ++It)
      if (Oldest == Index.end() ||
          It->second.AccessTick < Oldest->second.AccessTick)
        Oldest = It;
    dropEntryLocked(Oldest->first, /*CountEviction=*/true);
  }
}

std::shared_ptr<const CompiledCode>
PersistentCache::lookup(const std::string &Key) {
  if (!enabled())
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mu);
  // Probe the object path even when the index has no entry: another
  // process may have written it after this one loaded its index.
  std::string Path = objectPathFor(Key);
  std::string Text;
  if (!readFileText(Path, Text)) {
    ++Misses;
    Index.erase(Key);
    return nullptr;
  }
  auto Code = std::make_shared<CompiledCode>();
  std::string Error;
  if (!decodePersistentEntry(Text, Key, *Code, Error)) {
    ++Misses;
    ++CorruptDropped;
    dropEntryLocked(Key, /*CountEviction=*/false);
    std::error_code Ec;
    fs::remove(Path, Ec);
    return nullptr;
  }
  auto It = Index.find(Key);
  if (It == Index.end()) {
    Entry Item;
    Item.File = fileNameForKey(Key);
    Item.Bytes = Text.size();
    It = Index.emplace(Key, std::move(Item)).first;
    TotalBytes += Text.size();
  }
  It->second.AccessTick = NextTick++;
  ++Hits;
  return Code;
}

void PersistentCache::insert(const std::string &Key,
                             const CompiledCode &Code) {
  if (!enabled())
    return;
  std::string Text = encodePersistentEntry(Key, Code);
  std::lock_guard<std::mutex> Lock(Mu);
  if (!writeFileAtomic(objectPathFor(Key), Text))
    return;
  auto It = Index.find(Key);
  if (It != Index.end())
    TotalBytes -= std::min(TotalBytes, It->second.Bytes);
  Entry Item;
  Item.File = fileNameForKey(Key);
  Item.Bytes = Text.size();
  Item.AccessTick = NextTick++;
  Index[Key] = std::move(Item);
  TotalBytes += Text.size();
  ++Insertions;
  evictOverBudgetLocked();
}

bool PersistentCache::contains(const std::string &Key) const {
  if (!enabled())
    return false;
  std::error_code Ec;
  return fs::exists(objectPathFor(Key), Ec);
}

void PersistentCache::flushIndex() {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kPCacheIndexSchema);
  J.key("entries");
  J.beginArray();
  for (const auto &[Key, Item] : Index) {
    J.beginObject();
    J.keyValue("key", Key);
    J.keyValue("file", Item.File);
    J.keyValue("bytes", Item.Bytes);
    J.keyValue("access", Item.AccessTick);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  writeFileAtomic((fs::path(Options.Dir) / "index.json").string(), J.str());
}

PersistentCacheStats PersistentCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  PersistentCacheStats Out;
  Out.Hits = Hits;
  Out.Misses = Misses;
  Out.Insertions = Insertions;
  Out.Evictions = Evictions;
  Out.CorruptDropped = CorruptDropped;
  Out.Entries = Index.size();
  Out.Bytes = TotalBytes;
  return Out;
}
