//===- sxe/Pipeline.h - The full compilation pipeline ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives Figure 5's three steps over a module and exposes exactly the
/// twelve configurations the paper measures in Tables 1 and 2:
///
///   baseline / gen use (reference) / first algorithm (bwd flow) /
///   basic ud-du / insert / order / insert,order / array / array,insert /
///   array,order / all,using PDE (reference) / new algorithm (all)
///
/// Per-phase wall-clock timers reproduce Table 3's compilation-time
/// breakdown (sign extension optimizations vs UD/DU chain creation vs
/// everything else).
///
/// runPipeline executes through the instrumented pass manager
/// (pm/InstrumentedPipeline.h); PipelineStats is the backward-compatible
/// aggregate of its per-pass counters and timers. New code that wants
/// per-pass detail (named counters, wall/CPU per pass, verify-each, IR
/// snapshots) should call runInstrumentedPipeline directly.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_PIPELINE_H
#define SXE_SXE_PIPELINE_H

#include "analysis/ProfileInfo.h"
#include "ir/Module.h"
#include "sxe/Conversion64.h"
#include "target/TargetInfo.h"

#include <cstdint>
#include <string>

namespace sxe {

/// The algorithm variants of Tables 1 and 2, in the paper's row order.
enum class Variant : uint8_t {
  Baseline,       ///< Disable sign extension optimizations (Figure 5(3)).
  GenUse,         ///< Reference: extensions before use points, no step 3.
  FirstAlgorithm, ///< Backward dataflow elimination.
  BasicUdDu,      ///< UD/DU elimination; no insert/order/array.
  Insert,         ///< + simple insertion only.
  Order,          ///< + order determination only.
  InsertOrder,    ///< + insertion and order determination.
  Array,          ///< + array theorems only.
  ArrayInsert,    ///< + array theorems and insertion.
  ArrayOrder,     ///< + array theorems and order determination.
  AllPDE,         ///< Reference: everything, PDE-variant insertion.
  All,            ///< New algorithm (all).
};

constexpr unsigned NumVariants = 12;

/// All variants in table row order.
extern const Variant AllVariants[NumVariants];

/// The paper's row label for \p V ("new algorithm (all)", ...).
const char *variantName(Variant V);

/// How step 3 eliminates extensions.
enum class EliminationEngine : uint8_t {
  None,         ///< Step 3 disabled (baseline, gen use).
  BackwardFlow, ///< The first algorithm.
  UdDu,         ///< The paper's new algorithm.
};

/// Full pipeline configuration.
struct PipelineConfig {
  const TargetInfo *Target = &TargetInfo::ia64();
  GenPolicy Gen = GenPolicy::AfterDef;
  bool GeneralOpts = true; ///< Figure 5 step 2.
  EliminationEngine Engine = EliminationEngine::UdDu;
  bool EnableInsertion = false;
  bool UsePDEInsertion = false;
  bool EnableOrder = false;
  bool EnableArrayTheorems = false;
  uint32_t MaxArrayLen = 0x7FFFFFFF;
  const ProfileInfo *Profile = nullptr; ///< For order determination.
  // Ablation toggles (DESIGN.md section 8).
  bool EnableDummies = true;        ///< just_extended markers.
  bool EnableGuardRanges = true;    ///< Branch-guard range refinement.
  bool EnableInductiveArith = true; ///< Inductive add/sub/mul rule.

  /// The configuration for one of the paper's measured rows.
  static PipelineConfig forVariant(Variant V,
                                   const TargetInfo &Target =
                                       TargetInfo::ia64());
};

/// Work counters and Table 3 timers for one pipeline run.
struct PipelineStats {
  unsigned ExtensionsGenerated = 0; ///< Step 1 conversion.
  unsigned ExtensionsInserted = 0;  ///< Phase (3)-1 insertion.
  unsigned DummiesInserted = 0;
  unsigned ExtensionsEliminated = 0;
  unsigned DummiesRemoved = 0;
  unsigned GeneralOptRewrites = 0;
  // Per-theorem subscript discharge counts (Section 3 ablation).
  unsigned SubscriptExtended = 0;
  unsigned SubscriptTheorem1 = 0;
  unsigned SubscriptTheorem2 = 0;
  unsigned SubscriptTheorem3 = 0;
  unsigned SubscriptTheorem4 = 0;

  uint64_t ConversionNanos = 0;
  uint64_t GeneralOptsNanos = 0;
  uint64_t ChainCreationNanos = 0; ///< Table 3 "UD/DU chain creation".
  uint64_t SxeOptNanos = 0;        ///< Table 3 "sign extension opts (all)".
  uint64_t TotalNanos = 0;
};

/// Runs the configured pipeline over every function of \p M, in place.
PipelineStats runPipeline(Module &M, const PipelineConfig &Config);

} // namespace sxe

#endif // SXE_SXE_PIPELINE_H
