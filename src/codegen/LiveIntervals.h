//===- codegen/LiveIntervals.h - Live intervals over machine IR --*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan prerequisites over the machine IR, following the shape of
/// dreavm's register_allocation_pass: instructions are numbered in layout
/// order, block-level liveness runs to a fixpoint, and every virtual
/// register gets one conservative [Start, End] hull interval (holes are not
/// modeled — exactly the Poletto/Sarkar formulation the allocator wants).
///
/// Liveness is word-parallel: each block's upward-exposed uses and defs are
/// collected once as 64-bit bitsets, and the fixpoint then iterates
/// In = Use | (Out & ~Def), Out = union of the successors' In, a word at a
/// time. The same sets feed the lowering's zero-initialization of locals
/// read before they are written.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_LIVEINTERVALS_H
#define SXE_CODEGEN_LIVEINTERVALS_H

#include "codegen/MachineIR.h"

#include <cstdint>
#include <vector>

namespace sxe {

/// Per-block live-in/live-out sets as flat word bitsets. Block B's set is
/// the Words words starting at B * Words; bit R stands for vreg
/// FirstVirtReg + R.
struct BlockLiveness {
  uint32_t Words = 0; ///< 64-bit words per block set.
  std::vector<uint64_t> LiveIn;
  std::vector<uint64_t> LiveOut;

  const uint64_t *liveInOf(uint32_t Block) const {
    return LiveIn.data() + size_t(Block) * Words;
  }
  const uint64_t *liveOutOf(uint32_t Block) const {
    return LiveOut.data() + size_t(Block) * Words;
  }
  bool liveIn(uint32_t Block, uint32_t R) const {
    return (liveInOf(Block)[R / 64] >> (R % 64)) & 1;
  }
  bool liveOut(uint32_t Block, uint32_t R) const {
    return (liveOutOf(Block)[R / 64] >> (R % 64)) & 1;
  }
};

/// Assigns layout-order positions to every instruction (MInst::Pos), in
/// steps of two so spill code conceptually fits between positions. Returns
/// one past the last assigned position.
uint32_t numberMachineInsts(MFunction &MF);

/// Backward block-level liveness to a fixpoint. Block ids must equal the
/// blocks' positions in MF.Blocks.
BlockLiveness computeBlockLiveness(const MFunction &MF);

/// One virtual register's conservative live range.
struct LiveInterval {
  uint32_t VReg = MNoReg;
  uint32_t Start = 0; ///< First position where the vreg is live.
  uint32_t End = 0;   ///< Last position where the vreg is live (inclusive).
  /// True when a call instruction lies in [Start, End) and does not define
  /// this value: the value must survive the call, so only callee-saved
  /// registers qualify.
  bool CrossesCall = false;

  // Register-allocator output.
  uint32_t PhysReg = MNoReg; ///< Assigned physical register, if any.
  uint32_t Slot = MNoReg;    ///< Assigned spill slot when spilled.

  bool spilled() const { return Slot != MNoReg; }
  bool overlaps(const LiveInterval &Other) const {
    return Start <= Other.End && Other.Start <= End;
  }
};

/// Numbers \p MF and builds one interval per live virtual register, sorted
/// by ascending Start position.
std::vector<LiveInterval> computeLiveIntervals(MFunction &MF);

} // namespace sxe

#endif // SXE_CODEGEN_LIVEINTERVALS_H
