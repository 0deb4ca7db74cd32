//===- codegen/MachineVerifier.cpp - Post-RA machine IR checks ---------------===//

#include "codegen/MachineVerifier.h"

using namespace sxe;

namespace {

bool isReservedReg(uint32_t Reg) {
  return Reg == RSP || Reg == RBP || Reg == R15;
}

/// Number of use operands \p Op reads, or -1 when it varies (calls and
/// returns).
int expectedUses(MOp Op) {
  switch (Op) {
  case MOp::MovImm:
  case MOp::LoadParam:
  case MOp::JmpB:
  case MOp::SpillLoad:
    return 0;
  case MOp::MovRR:
  case MOp::Mov32:
  case MOp::Neg:
  case MOp::Not:
  case MOp::Movsx8:
  case MOp::Movsx16:
  case MOp::Movsx32:
  case MOp::Movzx8:
  case MOp::Movzx16:
  case MOp::ArrayLen:
  case MOp::FNeg:
  case MOp::CvtSi2Sd:
  case MOp::CvtD2I:
  case MOp::TestJnz:
  case MOp::SpillStore:
    return 1;
  case MOp::Add:
  case MOp::Sub:
  case MOp::IMul:
  case MOp::And:
  case MOp::Or:
  case MOp::Xor:
  case MOp::Shl:
  case MOp::Shr:
  case MOp::Sar:
  case MOp::CmpSet:
  case MOp::IDiv:
  case MOp::IRem:
  case MOp::ArrayCheck:
  case MOp::LoadElem:
  case MOp::FAdd:
  case MOp::FSub:
  case MOp::FMul:
  case MOp::FDiv:
  case MOp::FCmpSet:
    return 2;
  case MOp::StoreElem:
    return 3;
  case MOp::CallFn:
  case MOp::CallHelper:
  case MOp::RetR:
    return -1;
  }
  return -1;
}

std::string describe(const MFunction &MF, const MBlock &B, const MInst &I,
                     const std::string &Problem) {
  return MF.name() + ":" + B.name() + ": " + mopName(I.Op) + ": " + Problem;
}

std::string checkOperand(const MFunction &MF, const MBlock &B, const MInst &I,
                         uint32_t Reg, bool IsDef) {
  std::string Role = IsDef ? "def" : "use";
  if (Reg == MNoReg)
    return describe(MF, B, I, "operand is <none> as " + Role);
  if (isVirtReg(Reg))
    return describe(MF, B, I,
                    "unallocated vreg v" +
                        std::to_string(Reg - FirstVirtReg) + " survives as " +
                        Role);
  if (isSlotRef(Reg)) {
    if (!I.isCall())
      return describe(MF, B, I, "slot reference on a non-call instruction");
    if (slotOfRef(Reg) >= MF.NumSpillSlots)
      return describe(MF, B, I,
                      "slot reference " + std::to_string(slotOfRef(Reg)) +
                          " outside the " +
                          std::to_string(MF.NumSpillSlots) +
                          "-slot spill area");
    return "";
  }
  // RAX/RCX/RDX are legitimate here: the spill rewriter routes loads and
  // stores through them. What must never appear after allocation is the
  // frame pair or the context register.
  if (isReservedReg(Reg))
    return describe(MF, B, I,
                    "reserved register " + std::string(physRegName(Reg)) +
                        " used as " + Role);
  // RCX is the third spill scratch, so it may carry a reload into an
  // element store; every other pattern may clobber it.
  if (Reg == RCX && I.Op != MOp::StoreElem && I.Op != MOp::SpillLoad)
    return describe(MF, B, I, "rcx used as " + Role + " outside a store");
  return "";
}

} // namespace

std::string sxe::verifyMachineFunction(
    const MFunction &MF, const std::vector<LiveInterval> *Intervals) {
  if (MF.Blocks.empty())
    return MF.name() + ": function has no blocks";

  for (const auto &BP : MF.Blocks) {
    const MBlock &B = *BP;
    if (B.Insts.empty())
      return MF.name() + ":" + B.name() + ": empty block";
    for (size_t Index = 0; Index < B.Insts.size(); ++Index) {
      const MInst &I = B.Insts[Index];
      bool Last = Index + 1 == B.Insts.size();
      if (I.isTerminator() != Last)
        return describe(MF, B, I,
                        Last ? "block does not end in a terminator"
                             : "terminator in the middle of a block");
      for (unsigned SI = 0; SI < I.numSuccessors(); ++SI)
        if (!I.Succs[SI])
          return describe(MF, B, I, "null successor");
      int Uses = expectedUses(I.Op);
      if (Uses >= 0 && I.Uses.size() != static_cast<size_t>(Uses))
        return describe(MF, B, I,
                        std::to_string(I.Uses.size()) + " uses, expected " +
                            std::to_string(Uses));

      if (I.Def != MNoReg) {
        std::string Err = checkOperand(MF, B, I, I.Def, /*IsDef=*/true);
        if (!Err.empty())
          return Err;
      }
      for (uint32_t U : I.Uses) {
        std::string Err = checkOperand(MF, B, I, U, /*IsDef=*/false);
        if (!Err.empty())
          return Err;
      }
      if ((I.Op == MOp::SpillStore || I.Op == MOp::SpillLoad) &&
          static_cast<uint64_t>(I.Imm) >= MF.NumSpillSlots)
        return describe(MF, B, I,
                        "spill slot " + std::to_string(I.Imm) +
                            " outside the " +
                            std::to_string(MF.NumSpillSlots) +
                            "-slot spill area");
    }
  }

  if (Intervals) {
    // One sweep in Start order, the order allocateRegisters returns. An
    // interval overlaps an earlier one on its register exactly when it
    // overlaps the latest-ending of them. Until the first overlap a
    // register's intervals are disjoint, so that is simply the latest one
    // seen.
    const LiveInterval *Latest[NumPhysRegs] = {};
    uint32_t PrevStart = 0;
    for (const LiveInterval &IB : *Intervals) {
      if (IB.Start < PrevStart)
        return MF.name() + ": intervals not sorted by start";
      PrevStart = IB.Start;
      if (IB.PhysReg == MNoReg)
        continue;
      if (!isPhysReg(IB.PhysReg))
        return MF.name() + ": interval v" +
               std::to_string(IB.VReg - FirstVirtReg) +
               " assigned to non-register " + std::to_string(IB.PhysReg);
      const LiveInterval *&IA = Latest[IB.PhysReg];
      if (IA && IA->overlaps(IB))
        return MF.name() + ": intervals v" +
               std::to_string(IA->VReg - FirstVirtReg) + " [" +
               std::to_string(IA->Start) + "," + std::to_string(IA->End) +
               "] and v" + std::to_string(IB.VReg - FirstVirtReg) + " [" +
               std::to_string(IB.Start) + "," + std::to_string(IB.End) +
               "] overlap in " + physRegName(IB.PhysReg);
      IA = &IB;
    }
  }
  return "";
}
