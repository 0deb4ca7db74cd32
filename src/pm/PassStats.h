//===- pm/PassStats.h - Named per-pass counters ------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter registry behind the pass-manager instrumentation: every
/// pass registers named counters (`sext_eliminated`, `dummy_added`,
/// `theorem4_fired`, ...) on first use via the SXE_PASS_STAT macro, and
/// the registry preserves registration order so reports and goldens are
/// deterministic. Counters are plain uint64_t cells owned by the registry
/// instance — no globals, so concurrent pipelines over different modules
/// do not share state (cf. redream's DEFINE_PASS_STAT, which this layer
/// deliberately instancifies).
///
/// Concurrency model: a PassStats instance is single-threaded by design.
/// SXE_PASS_STAT stays a bare `uint64_t&` bump — no atomics on the pass
/// hot path — because every concurrent pipeline run owns a private
/// registry (runInstrumentedPipeline creates one per call). Aggregation
/// across the jit/ worker pool happens *after* a run completes, via
/// merge() under the service's stats lock: per-thread stats merged on
/// completion.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_PASSSTATS_H
#define SXE_PM_PASSSTATS_H

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace sxe {

/// One registered counter: which pass owns it, its name, and its value.
struct StatEntry {
  std::string Pass;
  std::string Name;
  uint64_t Value = 0;
  /// True for mode flags (`pde_variant`, `by_frequency`): 0/1 values
  /// describing *how* a pass ran, not how much it did. merge() combines
  /// flags by max instead of addition, so an 8-worker aggregate still
  /// reports 1, not 8.
  bool IsFlag = false;
};

/// Registry of named per-pass counters.
class PassStats {
public:
  /// Returns the counter cell for (\p Pass, \p Name), registering it at
  /// the end of the entry list on first use. The reference stays valid
  /// until the registry is destroyed (entries live in a deque).
  uint64_t &counter(const std::string &Pass, const std::string &Name);

  /// Like counter(), but marks the entry as a mode flag: merge()
  /// combines it by max/assignment instead of addition.
  uint64_t &flag(const std::string &Pass, const std::string &Name);

  /// Returns the value of (\p Pass, \p Name), or 0 if never registered.
  uint64_t value(const std::string &Pass, const std::string &Name) const;

  /// All counters in registration order.
  const std::deque<StatEntry> &entries() const { return Entries; }

  /// Sums every counter named \p Name across passes (e.g. the total
  /// `sext_eliminated` over elimination engines).
  uint64_t total(const std::string &Name) const;

  /// Adds every counter of \p Other into this registry, registering
  /// counters this instance has not seen yet in Other's order. Additive
  /// counters sum; flag entries (StatEntry::IsFlag) merge by max, so the
  /// aggregate of N same-mode runs reports the mode, not N. The
  /// jit/CompileService merges each worker's per-run stats through this
  /// (under its own lock) once the run completes.
  void merge(const PassStats &Other);

private:
  static std::string keyOf(const std::string &Pass, const std::string &Name) {
    return Pass + "/" + Name;
  }

  StatEntry &entry(const std::string &Pass, const std::string &Name);

  std::deque<StatEntry> Entries;
  std::unordered_map<std::string, size_t> Index;
};

/// Bumps a named counter for the current pass from inside a Pass member
/// function: `SXE_PASS_STAT(Ctx, sext_eliminated) += N;`. The counter is
/// registered under this pass's name() on first use.
#define SXE_PASS_STAT(Ctx, StatName)                                          \
  ((Ctx).stats().counter(this->name(), #StatName))

/// Like SXE_PASS_STAT for mode flags (assigned 0/1, merged by max):
/// `SXE_PASS_STAT_FLAG(Ctx, pde_variant) = 1;`.
#define SXE_PASS_STAT_FLAG(Ctx, StatName)                                     \
  ((Ctx).stats().flag(this->name(), #StatName))

class JsonValue;
class JsonWriter;

/// Writes \p Entries as the stats-entry array the persistent cache entry
/// (jit/PersistentCache.h) and the serve reply (serve/Protocol.h) share:
/// `[{"pass": P, "name": N, "value": V}, ...]`, plus `"flag": true` on
/// mode flags.
void encodeStatEntries(JsonWriter &J, const std::deque<StatEntry> &Entries);
void encodeStatEntries(JsonWriter &J, const std::vector<StatEntry> &Entries);

/// Reads a stats-entry array written by encodeStatEntries into \p Out.
/// Returns false with \p Error set when \p Array is not an array or an
/// element is not an object; a missing or non-numeric value reads as 0.
bool decodeStatEntries(const JsonValue &Array, std::vector<StatEntry> &Out,
                       std::string &Error);

} // namespace sxe

#endif // SXE_PM_PASSSTATS_H
