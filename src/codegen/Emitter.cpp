//===- codegen/Emitter.cpp - Machine IR to x86-64 bytes ----------------------===//

#include "codegen/Emitter.h"

#include "codegen/X86Encoder.h"
#include "support/Error.h"

#include <map>

using namespace sxe;

namespace {

constexpr int32_t ArgsPtrDisp = -48;
constexpr int32_t SavedRegsBytes = 40;

int32_t slotDisp(uint32_t Slot) {
  return -56 - 8 * static_cast<int32_t>(Slot);
}

class FunctionEmitter {
public:
  FunctionEmitter(const MFunction &MF, const HelperTable &Helpers)
      : MF(MF), Helpers(Helpers) {}

  std::vector<uint8_t> emit();

private:
  void emitPrologue();
  void emitEpilogue();
  void emitInst(const MInst &I, const MBlock &B);
  void emitStagedArgs(const std::vector<uint32_t> &Uses);
  void emitCallResult(uint32_t Def);
  /// Records a pending jump to \p Target's block head.
  void branchTo(size_t Fixup, const MBlock *Target) {
    BlockFixups.push_back({Fixup, Target->id()});
  }
  /// Jcc into the out-of-line stub that raises \p Site.
  void trapIf(X86Cond Cond, TrapSite Site) {
    TrapFixups[Site].push_back(A.jccRel32(Cond));
  }
  /// Points a forward jump emitted earlier in the same pattern here.
  void bindHere(size_t Fixup) { A.patchRel32(Fixup, A.size()); }

  void emitArrayCheck(const MInst &I);
  void emitDivRem(const MInst &I);
  void emitFCmp(const MInst &I);
  void emitD2I(const MInst &I);

  const MFunction &MF;
  const HelperTable &Helpers;
  X86Assembler A;
  int32_t FrameBytes = 0;
  std::vector<size_t> BlockOffsets;
  std::vector<std::pair<size_t, uint32_t>> BlockFixups;
  std::map<TrapSite, std::vector<size_t>> TrapFixups;
};

void FunctionEmitter::emitPrologue() {
  A.pushR(RBP);
  A.movRR64(RBP, RSP);
  A.pushR(RBX);
  A.pushR(R12);
  A.pushR(R13);
  A.pushR(R14);
  A.pushR(R15);

  // 8 bytes for the args pointer, the spill area, the outgoing-argument
  // area; padded so RSP stays 16-byte aligned at every call instruction.
  int32_t Base = 8 + 8 * static_cast<int32_t>(MF.NumSpillSlots) +
                 8 * static_cast<int32_t>(MF.MaxCallArgs);
  FrameBytes = Base % 16 == 8 ? Base : Base + 8;
  A.subRspImm32(FrameBytes);

  A.movRR64(R15, RDI);
  A.movMR64(RBP, ArgsPtrDisp, RSI);

  // Call-depth budget: ++ctx->Depth; if (Depth > MaxDepth) -> overflow.
  A.incM32(R15, NativeCtxLayout::DepthOffset);
  A.movRM32(RAX, R15, NativeCtxLayout::MaxDepthOffset);
  A.cmpM32R(R15, NativeCtxLayout::DepthOffset, RAX);
  trapIf(X86Cond::G, TrapSite::StackOverflow);
}

void FunctionEmitter::emitEpilogue() {
  A.decM32(R15, NativeCtxLayout::DepthOffset);
  A.leaRM(RSP, RBP, -SavedRegsBytes);
  A.popR(R15);
  A.popR(R14);
  A.popR(R13);
  A.popR(R12);
  A.popR(RBX);
  A.popR(RBP);
  A.ret();
}

/// Writes every argument, one at a time, into the outgoing area at
/// [rsp+8j]. Going through memory sidesteps the parallel-move problem:
/// no ABI register is written while another argument still lives in it.
void FunctionEmitter::emitStagedArgs(const std::vector<uint32_t> &Uses) {
  for (size_t J = 0; J < Uses.size(); ++J) {
    uint32_t U = Uses[J];
    int32_t OutDisp = 8 * static_cast<int32_t>(J);
    if (isSlotRef(U)) {
      A.movRM64(RAX, RBP, slotDisp(slotOfRef(U)));
      A.movMR64(RSP, OutDisp, RAX);
    } else {
      A.movMR64(RSP, OutDisp, U);
    }
  }
}

void FunctionEmitter::emitCallResult(uint32_t Def) {
  if (Def == MNoReg)
    return;
  if (isSlotRef(Def))
    A.movMR64(RBP, slotDisp(slotOfRef(Def)), RAX);
  else if (Def != RAX)
    A.movRR64(Def, RAX);
}

/// Null, then bounds, then (optionally) wild address — the interpreter's
/// trap order. The bounds check compares the low half of the index,
/// unsigned, with the length; the wild check then requires the full
/// register to equal the sign extension of that low half, because it is
/// the full register that addresses the element.
void FunctionEmitter::emitArrayCheck(const MInst &I) {
  uint32_t Array = I.Uses[0], Index = I.Uses[1];
  A.testRR(true, Array, Array);
  trapIf(X86Cond::E, TrapSite::NullArrayAccess);
  A.cmpRM32(Index, Array, ArrayBlockLayout::LengthOffset);
  trapIf(X86Cond::AE, TrapSite::Bounds);
  if (I.Imm != 0) {
    A.movsxd(RCX, Index);
    A.cmpRR(true, RCX, Index);
    trapIf(X86Cond::NE, TrapSite::WildIndex);
  }
}

/// idiv faults on a zero divisor and on MIN / -1; Java traps on the first
/// and wraps the second. x / -1 is -x and x % -1 is 0 for every x, so the
/// -1 divisor takes a branch that never divides.
void FunctionEmitter::emitDivRem(const MInst &I) {
  bool W64 = I.W == Width::W64;
  bool IsRem = I.Op == MOp::IRem;
  // The sources may sit in RAX/RDX (spill scratches), which the division
  // overwrites: move the divisor out first.
  A.movRR64(RCX, I.Uses[1]);
  if (I.Uses[0] != RAX)
    A.movRR64(RAX, I.Uses[0]);
  A.testRR(W64, RCX, RCX);
  trapIf(X86Cond::E, TrapSite::DivByZero);
  A.cmpRImm8(W64, RCX, -1);
  size_t ToDivide = A.jccRel32(X86Cond::NE);
  if (IsRem)
    A.xorRR(false, RAX, RAX);
  else
    A.negR(W64, RAX);
  size_t ToDone = A.jmpRel32();
  bindHere(ToDivide);
  if (W64)
    A.cqo();
  else
    A.cdq();
  A.idivR(W64, RCX);
  if (IsRem)
    A.movRR64(RAX, RDX);
  bindHere(ToDone);
  // 32-bit forms already left RAX zero-extended.
  if (I.Def != RAX)
    A.movRR64(I.Def, RAX);
}

/// ucomisd sets ZF/PF/CF = 1/1/1 for unordered operands, so "above" and
/// "above or equal" are false on NaN by themselves; < and <= swap the
/// operands to become > and >=. Equality must also require PF clear, and
/// inequality also holds when PF is set.
void FunctionEmitter::emitFCmp(const MInst &I) {
  A.movqXmmR(0, I.Uses[0]);
  A.movqXmmR(1, I.Uses[1]);
  // The sources are in xmm0/xmm1 now, so RAX is free as a second byte
  // register (it is at most a scratch of this instruction).
  switch (I.Pred) {
  case CmpPred::EQ:
    A.ucomisd(0, 1);
    A.setcc(X86Cond::E, RCX);
    A.setcc(X86Cond::NP, RAX);
    A.andRR8(RCX, RAX);
    break;
  case CmpPred::NE:
    A.ucomisd(0, 1);
    A.setcc(X86Cond::NE, RCX);
    A.setcc(X86Cond::P, RAX);
    A.orRR8(RCX, RAX);
    break;
  case CmpPred::SGT:
  case CmpPred::UGT:
    A.ucomisd(0, 1);
    A.setcc(X86Cond::A, RCX);
    break;
  case CmpPred::SGE:
  case CmpPred::UGE:
    A.ucomisd(0, 1);
    A.setcc(X86Cond::AE, RCX);
    break;
  case CmpPred::SLT:
  case CmpPred::ULT:
    A.ucomisd(1, 0);
    A.setcc(X86Cond::A, RCX);
    break;
  case CmpPred::SLE:
  case CmpPred::ULE:
    A.ucomisd(1, 0);
    A.setcc(X86Cond::AE, RCX);
    break;
  }
  A.movzxCl32(I.Def);
}

/// cvttsd2si answers 0x80000000 for NaN and for anything out of int32
/// range; Java wants 0 for NaN and saturation at either end. Only that
/// answer takes the fix-up path.
void FunctionEmitter::emitD2I(const MInst &I) {
  A.movqXmmR(0, I.Uses[0]);
  A.cvttsd2si32(RCX, 0);
  A.cmpRImm32(false, RCX, INT32_MIN);
  size_t InRange = A.jccRel32(X86Cond::NE);
  A.xorRR(false, RCX, RCX);
  A.ucomisd(0, 0);
  size_t IsNaN = A.jccRel32(X86Cond::P);
  A.movImm32(RCX, INT32_MAX);
  A.xorpd(1, 1);
  A.ucomisd(0, 1);
  size_t Positive = A.jccRel32(X86Cond::A);
  A.movImm32(RCX, static_cast<uint32_t>(INT32_MIN));
  bindHere(InRange);
  bindHere(IsNaN);
  bindHere(Positive);
  A.movRR32(I.Def, RCX);
}

void FunctionEmitter::emitInst(const MInst &I, const MBlock &B) {
  bool W64 = I.W == Width::W64;
  switch (I.Op) {
  case MOp::MovImm:
    A.movImm64(I.Def, static_cast<uint64_t>(I.Imm));
    return;
  case MOp::MovRR:
    if (I.Def != I.Uses[0])
      A.movRR64(I.Def, I.Uses[0]);
    return;
  case MOp::Mov32:
    // Always emitted: `mov eax, eax` still clears the upper half.
    A.movRR32(I.Def, I.Uses[0]);
    return;

  case MOp::Add:
    A.addRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Sub:
    A.subRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::IMul:
    A.imulRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::And:
    A.andRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Or:
    A.orRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Xor:
    A.xorRR(W64, I.Def, I.Uses[1]);
    return;
  case MOp::Shl:
    A.movRR64(RCX, I.Uses[1]);
    A.shlCl(W64, I.Def);
    return;
  case MOp::Shr:
    A.movRR64(RCX, I.Uses[1]);
    A.shrCl(W64, I.Def);
    return;
  case MOp::Sar:
    A.movRR64(RCX, I.Uses[1]);
    A.sarCl(W64, I.Def);
    return;
  case MOp::Neg:
    A.negR(W64, I.Def);
    return;
  case MOp::Not:
    A.notR(W64, I.Def);
    return;

  case MOp::Movsx8:
    A.movsx8(I.Def, I.Uses[0]);
    return;
  case MOp::Movsx16:
    A.movsx16(I.Def, I.Uses[0]);
    return;
  case MOp::Movsx32:
    A.movsxd(I.Def, I.Uses[0]);
    return;
  case MOp::Movzx8:
    A.movzx8(I.Def, I.Uses[0]);
    return;
  case MOp::Movzx16:
    A.movzx16(I.Def, I.Uses[0]);
    return;

  case MOp::CmpSet:
    A.cmpRR(W64, I.Uses[0], I.Uses[1]);
    A.setcc(condForPred(I.Pred), RCX);
    A.movzxCl32(I.Def);
    return;

  case MOp::IDiv:
  case MOp::IRem:
    emitDivRem(I);
    return;

  case MOp::ArrayLen:
    A.testRR(true, I.Uses[0], I.Uses[0]);
    trapIf(X86Cond::E, TrapSite::NullArrayLen);
    A.movRM32(I.Def, I.Uses[0], ArrayBlockLayout::LengthOffset);
    return;
  case MOp::ArrayCheck:
    emitArrayCheck(I);
    return;
  case MOp::LoadElem:
    A.loadIndexed(elementBytes(I.Elem), I.Def, I.Uses[0], I.Uses[1],
                  ArrayBlockLayout::ElementsOffset);
    return;
  case MOp::StoreElem:
    A.storeIndexed(elementBytes(I.Elem), I.Uses[0], I.Uses[1],
                   ArrayBlockLayout::ElementsOffset, I.Uses[2]);
    return;

  case MOp::FAdd:
  case MOp::FSub:
  case MOp::FMul:
  case MOp::FDiv:
    A.movqXmmR(0, I.Uses[0]);
    A.movqXmmR(1, I.Uses[1]);
    if (I.Op == MOp::FAdd)
      A.addsd01();
    else if (I.Op == MOp::FSub)
      A.subsd01();
    else if (I.Op == MOp::FMul)
      A.mulsd01();
    else
      A.divsd01();
    A.movqRXmm(I.Def, 0);
    return;
  case MOp::FNeg:
    A.movqXmmR(0, I.Uses[0]);
    A.movImm64(RCX, 0x8000000000000000ULL);
    A.movqXmmR(1, RCX);
    A.xorpd(0, 1);
    A.movqRXmm(I.Def, 0);
    return;
  case MOp::CvtSi2Sd:
    A.cvtsi2sd0(I.Uses[0]);
    A.movqRXmm(I.Def, 0);
    return;
  case MOp::FCmpSet:
    emitFCmp(I);
    return;
  case MOp::CvtD2I:
    emitD2I(I);
    return;

  case MOp::LoadParam:
    A.movRM64(RAX, RBP, ArgsPtrDisp);
    A.movRM64(I.Def, RAX, 8 * static_cast<int32_t>(I.Imm));
    return;

  case MOp::CallFn: {
    emitStagedArgs(I.Uses);
    A.movRR64(RDI, R15);
    A.leaRM(RSI, RSP, 0);
    A.movRM64(RAX, R15, NativeCtxLayout::FnTableOffset);
    A.movRM64(RAX, RAX, 8 * static_cast<int32_t>(I.Callee));
    A.callR(RAX);
    emitCallResult(I.Def);
    return;
  }
  case MOp::CallHelper: {
    if (I.Helper == MHelper::Trap) {
      // The explicit trap shares the out-of-line path of every other trap.
      TrapFixups[static_cast<TrapSite>(I.Imm)].push_back(A.jmpRel32());
      return;
    }
    // rt_new_array(ctx, len).
    if (isSlotRef(I.Uses[0]))
      A.movRM64(RSI, RBP, slotDisp(slotOfRef(I.Uses[0])));
    else
      A.movRR64(RSI, I.Uses[0]);
    A.movRR64(RDI, R15);
    A.movImm64(RAX, Helpers.NewArray);
    A.callR(RAX);
    emitCallResult(I.Def);
    return;
  }

  case MOp::TestJnz: {
    A.testRR(true, I.Uses[0], I.Uses[0]);
    branchTo(A.jccRel32(X86Cond::NE), I.Succs[0]);
    if (I.Succs[1]->id() != B.id() + 1)
      branchTo(A.jmpRel32(), I.Succs[1]);
    return;
  }
  case MOp::JmpB:
    if (I.Succs[0]->id() != B.id() + 1)
      branchTo(A.jmpRel32(), I.Succs[0]);
    return;
  case MOp::RetR:
    if (!I.Uses.empty()) {
      if (I.Uses[0] != RAX)
        A.movRR64(RAX, I.Uses[0]);
    } else {
      A.xorRR(false, RAX, RAX);
    }
    emitEpilogue();
    return;

  case MOp::SpillStore:
    A.movMR64(RBP, slotDisp(static_cast<uint32_t>(I.Imm)), I.Uses[0]);
    return;
  case MOp::SpillLoad:
    A.movRM64(I.Def, RBP, slotDisp(static_cast<uint32_t>(I.Imm)));
    return;
  }
  sxeUnreachable("invalid MOp enumerator in emitter");
}

std::vector<uint8_t> FunctionEmitter::emit() {
  emitPrologue();

  for (const auto &BP : MF.Blocks) {
    BlockOffsets.push_back(A.size());
    if (BP->FuelCost > 0) {
      A.subM64Imm32(R15, NativeCtxLayout::FuelOffset,
                    static_cast<int32_t>(BP->FuelCost));
      trapIf(X86Cond::S, TrapSite::StepLimit);
    }
    for (const MInst &I : BP->Insts)
      emitInst(I, *BP);
  }

  // Out-of-line trap stubs, one per site this function can trap at: call
  // rt_trap(ctx, site, function index), which never comes back (it
  // longjmps to NativeModule::run). Every jump here leaves RSP as the
  // prologue set it, so the call is 16-byte aligned.
  for (auto &Entry : TrapFixups) {
    size_t StubOffset = A.size();
    for (size_t Fixup : Entry.second)
      A.patchRel32(Fixup, StubOffset);
    A.movRR64(RDI, R15);
    A.movImm32(RSI, static_cast<uint32_t>(Entry.first));
    A.movImm32(RDX, MF.index());
    A.movImm64(RAX, Helpers.Trap);
    A.callR(RAX);
    A.ud2();
  }

  for (const auto &Fixup : BlockFixups)
    A.patchRel32(Fixup.first, BlockOffsets[Fixup.second]);

  return A.code();
}

} // namespace

EmittedModule sxe::emitModule(const MModule &MM, const HelperTable &Helpers) {
  EmittedModule EM;
  for (const auto &MF : MM.Functions) {
    EM.FunctionOffsets.push_back(EM.Code.size());
    std::vector<uint8_t> Bytes = FunctionEmitter(*MF, Helpers).emit();
    EM.Code.insert(EM.Code.end(), Bytes.begin(), Bytes.end());
  }
  return EM;
}
