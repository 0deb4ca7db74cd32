//===- codegen/LiveIntervals.cpp - Live intervals over machine IR ------------===//

#include "codegen/LiveIntervals.h"

#include <algorithm>
#include <bit>

using namespace sxe;

uint32_t sxe::numberMachineInsts(MFunction &MF) {
  uint32_t Pos = 0;
  for (auto &B : MF.Blocks)
    for (MInst &I : B->Insts) {
      I.Pos = Pos;
      Pos += 2;
    }
  return Pos;
}

BlockLiveness sxe::computeBlockLiveness(const MFunction &MF) {
  size_t NumBlocks = MF.Blocks.size();
  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  uint32_t Words = (NumVRegs + 63) / 64;
  BlockLiveness L;
  L.Words = Words;
  L.LiveIn.assign(NumBlocks * Words, 0);
  L.LiveOut.assign(NumBlocks * Words, 0);

  // The block's transfer function is In = Use | (Out & ~Def), with Use its
  // upward-exposed uses and Def everything it defines: a backward walk
  // that clears a def and then sets the uses, one instruction at a time.
  std::vector<uint64_t> Use(NumBlocks * Words, 0);
  std::vector<uint64_t> Def(NumBlocks * Words, 0);
  for (size_t BI = 0; BI < NumBlocks; ++BI) {
    uint64_t *U = Use.data() + BI * Words;
    uint64_t *D = Def.data() + BI * Words;
    const std::vector<MInst> &Insts = MF.Blocks[BI]->Insts;
    for (size_t II = Insts.size(); II-- > 0;) {
      const MInst &I = Insts[II];
      if (I.Def != MNoReg && isVirtReg(I.Def)) {
        uint32_t R = I.Def - FirstVirtReg;
        D[R / 64] |= uint64_t(1) << (R % 64);
        U[R / 64] &= ~(uint64_t(1) << (R % 64));
      }
      for (uint32_t Reg : I.Uses)
        if (isVirtReg(Reg)) {
          uint32_t R = Reg - FirstVirtReg;
          U[R / 64] |= uint64_t(1) << (R % 64);
        }
    }
  }

  // Both sets only grow, so Out accumulates its successors' In in place,
  // and a sweep that changes no In has reached the fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      const MBlock &B = *MF.Blocks[BI];
      uint64_t *Out = L.LiveOut.data() + BI * Words;
      if (!B.Insts.empty()) {
        const MInst &Term = B.Insts.back();
        for (unsigned SI = 0; SI < Term.numSuccessors(); ++SI) {
          const uint64_t *SuccIn = L.liveInOf(Term.Succs[SI]->id());
          for (uint32_t W = 0; W < Words; ++W)
            Out[W] |= SuccIn[W];
        }
      }
      uint64_t *In = L.LiveIn.data() + BI * Words;
      const uint64_t *U = Use.data() + BI * Words;
      const uint64_t *D = Def.data() + BI * Words;
      for (uint32_t W = 0; W < Words; ++W) {
        uint64_t New = U[W] | (Out[W] & ~D[W]);
        if (New != In[W]) {
          In[W] = New;
          Changed = true;
        }
      }
    }
  }
  return L;
}

std::vector<LiveInterval> sxe::computeLiveIntervals(MFunction &MF) {
  numberMachineInsts(MF);
  BlockLiveness L = computeBlockLiveness(MF);

  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  // An interval with VReg == MNoReg has not been reached yet.
  std::vector<LiveInterval> ByVReg(NumVRegs);

  auto Extend = [&](uint32_t VReg, uint32_t Pos) {
    LiveInterval &LI = ByVReg[VReg - FirstVirtReg];
    if (LI.VReg == MNoReg) {
      LI.VReg = VReg;
      LI.Start = LI.End = Pos;
      return;
    }
    LI.Start = std::min(LI.Start, Pos);
    LI.End = std::max(LI.End, Pos);
  };

  for (const auto &B : MF.Blocks) {
    if (B->Insts.empty())
      continue;
    uint32_t BlockStart = B->Insts.front().Pos;
    uint32_t BlockEnd = B->Insts.back().Pos;
    // A value live in or out reaches the block's first position; one live
    // out reaches its last too.
    const uint64_t *In = L.liveInOf(B->id());
    const uint64_t *Out = L.liveOutOf(B->id());
    for (uint32_t W = 0; W < L.Words; ++W) {
      uint32_t Base = FirstVirtReg + W * 64;
      for (uint64_t Bits = In[W] | Out[W]; Bits; Bits &= Bits - 1)
        Extend(Base + std::countr_zero(Bits), BlockStart);
      for (uint64_t Bits = Out[W]; Bits; Bits &= Bits - 1)
        Extend(Base + std::countr_zero(Bits), BlockEnd);
    }
    for (const MInst &I : B->Insts) {
      if (I.Def != MNoReg && isVirtReg(I.Def))
        Extend(I.Def, I.Pos);
      for (uint32_t U : I.Uses)
        if (isVirtReg(U))
          Extend(U, I.Pos);
    }
  }

  std::vector<LiveInterval> Intervals;
  for (const LiveInterval &LI : ByVReg)
    if (LI.VReg != MNoReg)
      Intervals.push_back(LI);

  // Mark intervals that must survive a call. A call at the interval's
  // first position counts too: a value live into a block that opens with a
  // call starts there. Only the call's own result starts there without
  // crossing it.
  struct CallSite {
    uint32_t Pos;
    uint32_t Def;
  };
  std::vector<CallSite> Calls; // Ascending Pos: layout order.
  for (const auto &B : MF.Blocks)
    for (const MInst &I : B->Insts)
      if (I.isCall())
        Calls.push_back({I.Pos, I.Def});
  for (LiveInterval &LI : Intervals) {
    auto It = std::lower_bound(
        Calls.begin(), Calls.end(), LI.Start,
        [](const CallSite &C, uint32_t Pos) { return C.Pos < Pos; });
    if (It != Calls.end() && It->Pos == LI.Start && It->Def == LI.VReg)
      ++It;
    if (It != Calls.end() && It->Pos < LI.End)
      LI.CrossesCall = true;
  }

  std::sort(Intervals.begin(), Intervals.end(),
            [](const LiveInterval &A, const LiveInterval &B) {
              if (A.Start != B.Start)
                return A.Start < B.Start;
              return A.VReg < B.VReg;
            });
  return Intervals;
}
