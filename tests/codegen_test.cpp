//===- tests/codegen_test.cpp - Native backend tests -----------------------------===//
//
// Exercises the baseline x86-64 backend layer by layer: byte-exact
// encodings of the encoder's memory, division and SSE forms, lowering to
// machine IR, live-interval construction on branchy and loopy CFGs and
// around calls, block liveness and intervals against a bit-at-a-time
// reference (on the kernels, the corpus, random modules and functions
// whose vreg counts straddle 64-bit word boundaries), linear-scan
// allocation under artificially tight register pools (the
// k+1-values-on-k-registers spill round-trips, and pools so empty that
// every operand spills), the machine verifier's structural and
// interval-overlap checks, and — on hosts that can execute x86-64 — full
// native-vs-interpreter parity on hand-built functions and the pinned
// corpus programs, including trap kinds and messages, the inline array,
// division, compare and d2i sequences, the call-depth guard, and the
// fuel-based step limit.
//
//===---------------------------------------------------------------------------===//

#include "codegen/LiveIntervals.h"
#include "codegen/Lowering.h"
#include "codegen/MachineVerifier.h"
#include "codegen/NativeEngine.h"
#include "codegen/RegAlloc.h"
#include "codegen/X86Encoder.h"
#include "fuzz/RandomModuleGenerator.h"
#include "interp/Interpreter.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "sxe/Pipeline.h"
#include "target/TargetInfo.h"
#include "workloads/Kernels.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// Interpreter options that model the same machine the native code runs
/// on: Machine semantics on the x86_64 target.
InterpOptions x86MachineOptions() {
  InterpOptions Options;
  Options.Target = &TargetInfo::x86_64();
  Options.Semantics = ExecSemantics::Machine;
  return Options;
}

/// Runs \p M both natively and under the x86_64-model interpreter and
/// expects identical trap kind and (on clean exit) return value.
void expectNativeMatchesInterp(Module &M, const std::vector<uint64_t> &Args = {},
                               const NativeOptions &NOpts = {}) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";

  InterpOptions IOpts = x86MachineOptions();
  IOpts.MaxSteps = NOpts.MaxSteps;
  IOpts.MaxCallDepth = NOpts.MaxCallDepth;
  IOpts.MaxArrayLen = NOpts.MaxArrayLen;
  IOpts.CheckWildAddresses = NOpts.CheckWildAddresses;
  ExecResult Want = Interpreter(M, IOpts).run("main", Args);

  std::string Error;
  auto NM = NativeModule::compile(M, NOpts, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  ExecResult Got = NM->run("main", Args);

  EXPECT_EQ(Got.Trap, Want.Trap)
      << "native trap '" << trapKindName(Got.Trap) << "' vs interpreter '"
      << trapKindName(Want.Trap) << "'";
  EXPECT_EQ(Got.TrapMessage, Want.TrapMessage);
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None)
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
}

/// Register pools so small that every interval spills: each operand of
/// every instruction then arrives through the rewriter's scratches.
NativeOptions everythingSpilled() {
  NativeOptions Opts;
  Opts.RegAlloc.MaxCalleeSaved = 0;
  Opts.RegAlloc.MaxCallerSaved = 0;
  return Opts;
}

// --- Encoder ----------------------------------------------------------------
//
// Expected bytes come from GNU as (intel syntax, `{disp32}` where a memory
// operand is involved, since the encoder always emits a 32-bit
// displacement).

using Bytes = std::vector<uint8_t>;

template <typename EmitFn> Bytes encode(EmitFn Emit) {
  X86Assembler A;
  Emit(A);
  return A.code();
}

TEST(X86EncoderTest, IndexedLoadsUseSibWithDisp32) {
  // mov eax, dword [rbp + r8*4 + 8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.loadIndexed(4, RAX, RBP, R8, 8); }),
            (Bytes{0x42, 0x8B, 0x84, 0x85, 0x08, 0x00, 0x00, 0x00}));
  // mov r9, qword [r13 + r14*8 + 8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.loadIndexed(8, R9, R13, R14, 8); }),
            (Bytes{0x4F, 0x8B, 0x8C, 0xF5, 0x08, 0x00, 0x00, 0x00}));
  // movzx esi, byte [r12 + r9*1 + 8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.loadIndexed(1, RSI, R12, R9, 8); }),
            (Bytes{0x43, 0x0F, 0xB6, 0xB4, 0x0C, 0x08, 0x00, 0x00, 0x00}));
  // movzx edi, word [rbx + r10*2 + 8]
  EXPECT_EQ(encode([](X86Assembler &A) { A.loadIndexed(2, RDI, RBX, R10, 8); }),
            (Bytes{0x42, 0x0F, 0xB7, 0xBC, 0x53, 0x08, 0x00, 0x00, 0x00}));
  // mov r11d, dword [r12 + r12*4 + 8]: R12 as both base and index.
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.loadIndexed(4, R11, R12, R12, 8); }),
      (Bytes{0x47, 0x8B, 0x9C, 0xA4, 0x08, 0x00, 0x00, 0x00}));
}

TEST(X86EncoderTest, IndexedStoresOfEveryWidth) {
  // mov byte [r12 + r11*1 + 8], sil
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.storeIndexed(1, R12, R11, 8, RSI); }),
      (Bytes{0x43, 0x88, 0xB4, 0x1C, 0x08, 0x00, 0x00, 0x00}));
  // mov byte [rbp + r12*1 + 8], cl
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.storeIndexed(1, RBP, R12, 8, RCX); }),
      (Bytes{0x42, 0x88, 0x8C, 0x25, 0x08, 0x00, 0x00, 0x00}));
  // mov byte [rbx + r8*1 + 8], r9b
  EXPECT_EQ(encode([](X86Assembler &A) { A.storeIndexed(1, RBX, R8, 8, R9); }),
            (Bytes{0x46, 0x88, 0x8C, 0x03, 0x08, 0x00, 0x00, 0x00}));
  // mov word [r13 + r8*2 + 8], di
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.storeIndexed(2, R13, R8, 8, RDI); }),
      (Bytes{0x66, 0x43, 0x89, 0xBC, 0x45, 0x08, 0x00, 0x00, 0x00}));
  // mov dword [rbx + rsi*4 + 8], r14d
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.storeIndexed(4, RBX, RSI, 8, R14); }),
      (Bytes{0x44, 0x89, 0xB4, 0xB3, 0x08, 0x00, 0x00, 0x00}));
  // mov qword [rbp + r13*8 + 8], rdx
  EXPECT_EQ(
      encode([](X86Assembler &A) { A.storeIndexed(8, RBP, R13, 8, RDX); }),
      (Bytes{0x4A, 0x89, 0x94, 0xED, 0x08, 0x00, 0x00, 0x00}));
}

TEST(X86EncoderTest, LengthCompareAgainstMemory) {
  // cmp esi, dword [r12 + 0]: R12 needs a SIB byte.
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRM32(RSI, R12, 0); }),
            (Bytes{0x41, 0x3B, 0xB4, 0x24, 0x00, 0x00, 0x00, 0x00}));
  // cmp r10d, dword [rbp + 0]
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRM32(R10, RBP, 0); }),
            (Bytes{0x44, 0x3B, 0x95, 0x00, 0x00, 0x00, 0x00}));
}

TEST(X86EncoderTest, DivisionFamily) {
  EXPECT_EQ(encode([](X86Assembler &A) { A.idivR(false, RCX); }),
            (Bytes{0xF7, 0xF9}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.idivR(true, RCX); }),
            (Bytes{0x48, 0xF7, 0xF9}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.idivR(true, R9); }),
            (Bytes{0x49, 0xF7, 0xF9}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cdq(); }), (Bytes{0x99}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cqo(); }), (Bytes{0x48, 0x99}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRImm8(false, RCX, -1); }),
            (Bytes{0x83, 0xF9, 0xFF}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cmpRImm8(true, R11, -1); }),
            (Bytes{0x49, 0x83, 0xFB, 0xFF}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.testRR(false, RCX, RCX); }),
            (Bytes{0x85, 0xC9}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.testRR(true, R8, R8); }),
            (Bytes{0x4D, 0x85, 0xC0}));
}

TEST(X86EncoderTest, ScalarDoubleCompareAndTruncate) {
  EXPECT_EQ(encode([](X86Assembler &A) { A.ucomisd(0, 1); }),
            (Bytes{0x66, 0x0F, 0x2E, 0xC1}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.ucomisd(1, 0); }),
            (Bytes{0x66, 0x0F, 0x2E, 0xC8}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cvttsd2si32(RCX, 0); }),
            (Bytes{0xF2, 0x0F, 0x2C, 0xC8}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.cvttsd2si32(R10, 1); }),
            (Bytes{0xF2, 0x44, 0x0F, 0x2C, 0xD1}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.xorpd(1, 1); }),
            (Bytes{0x66, 0x0F, 0x57, 0xC9}));
  EXPECT_EQ(encode([](X86Assembler &A) {
              A.cmpRImm32(false, RCX, INT32_MIN);
            }),
            (Bytes{0x81, 0xF9, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.movImm32(RCX, 0x7FFFFFFF); }),
            (Bytes{0xB9, 0xFF, 0xFF, 0xFF, 0x7F}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.movImm32(R9, 0x80000000u); }),
            (Bytes{0x41, 0xB9, 0x00, 0x00, 0x00, 0x80}));
}

TEST(X86EncoderTest, ByteRegisterSetccAndLogic) {
  EXPECT_EQ(encode([](X86Assembler &A) { A.setcc(X86Cond::NP, RAX); }),
            (Bytes{0x0F, 0x9B, 0xC0}));
  // sil needs a bare REX, or the encoding would name dh.
  EXPECT_EQ(encode([](X86Assembler &A) { A.setcc(X86Cond::P, RSI); }),
            (Bytes{0x40, 0x0F, 0x9A, 0xC6}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.setcc(X86Cond::A, R8); }),
            (Bytes{0x41, 0x0F, 0x97, 0xC0}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.andRR8(RCX, RAX); }),
            (Bytes{0x20, 0xC1}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.orRR8(RCX, RAX); }),
            (Bytes{0x08, 0xC1}));
  EXPECT_EQ(encode([](X86Assembler &A) { A.andRR8(RDI, RSI); }),
            (Bytes{0x40, 0x20, 0xF7}));
}

// --- Lowering ---------------------------------------------------------------

TEST(LoweringTest, ProducesTwoAddressMachineIR) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  Reg B = F->addParam(Type::I64, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Sum = Bld.add64(A, B, "sum");
  Bld.ret(Sum);

  LoweringStats Stats;
  auto MIR = lowerModule(M, &Stats);
  ASSERT_EQ(MIR->Functions.size(), 1u);
  MFunction &MF = *MIR->Functions[0];
  EXPECT_EQ(MF.NumParams, 2u);
  EXPECT_EQ(Stats.Functions, 1u);
  EXPECT_GT(Stats.MachineInsts, 0u);

  // The entry block loads both parameters before any body instruction.
  ASSERT_FALSE(MF.Blocks.empty());
  const auto &Entry = MF.Blocks.front()->Insts;
  ASSERT_GE(Entry.size(), 3u);
  EXPECT_EQ(Entry[0].Op, MOp::LoadParam);
  EXPECT_EQ(Entry[1].Op, MOp::LoadParam);

  // Two-address discipline: every ALU instruction reads its Def.
  for (const auto &Blk : MF.Blocks)
    for (const MInst &I : Blk->Insts)
      if (I.Op >= MOp::Add && I.Op <= MOp::Not) {
        ASSERT_FALSE(I.Uses.empty());
        EXPECT_EQ(I.Uses[0], I.Def);
      }

  std::string Text = printMachineFunction(MF);
  EXPECT_NE(Text.find("mfunc main"), std::string::npos);
  EXPECT_NE(Text.find("loadparam"), std::string::npos);
}

TEST(LoweringTest, ConversionsBecomeExplicitInstructions) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg S = Bld.sext(16, A, "s");
  Reg Z = Bld.zext32(S, "z");
  Bld.ret(Z);

  LoweringStats Stats;
  auto MIR = lowerModule(M, &Stats);
  EXPECT_EQ(Stats.Conversions, 2u);
  std::string Text = printMachineFunction(*MIR->Functions[0]);
  EXPECT_NE(Text.find("movsx16"), std::string::npos);
  EXPECT_NE(Text.find("movl"), std::string::npos);
}

TEST(LoweringTest, ArrayAccessIsInlineAndOnlyAllocationCalls) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Arr = Bld.newArray(Type::I8, N, "arr");
  Bld.arrayStore(Type::I8, Arr, N, Bld.constI64(1));
  Reg V = Bld.arrayLoad(Type::I8, Arr, N, "v");
  Reg Q = Bld.binop(Opcode::Div, Width::W64, V, Bld.arrayLen(Arr), "q");
  Bld.ret(Q);

  for (bool Wild : {true, false}) {
    LoweringStats Stats;
    LoweringOptions Opts;
    Opts.CheckWildAddresses = Wild;
    auto MIR = lowerModule(M, &Stats, Opts);
    EXPECT_EQ(Stats.HelperCalls, 1u); // the newarray
    std::string Text = printMachineFunction(*MIR->Functions[0]);
    EXPECT_NE(Text.find(Wild ? "arraychk.wild" : "arraychk v"),
              std::string::npos)
        << Text;
    EXPECT_NE(Text.find("stelem.i8"), std::string::npos) << Text;
    EXPECT_NE(Text.find("ldelem.i8"), std::string::npos) << Text;
    EXPECT_NE(Text.find("arraylen"), std::string::npos) << Text;
    EXPECT_NE(Text.find("idiv.w64"), std::string::npos) << Text;
    // Unchecked accesses index with a zero-extended copy of the index.
    EXPECT_EQ(Text.find("movl") != std::string::npos, !Wild) << Text;
  }
}

// --- Live intervals ---------------------------------------------------------

TEST(LiveIntervalTest, ValueLiveAcrossDiamondSpansBothArms) {
  // entry defines Base; the diamond's arms define different addends; the
  // join uses Base again, so Base's interval must cover both arms.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");

  Bld.setBlock(Entry);
  Reg Base = Bld.add64(P, P, "base");
  Reg T = F->newReg(Type::I64, "t");
  Bld.br(P, Then, Else);
  Bld.setBlock(Then);
  Bld.constTo(T, 10);
  Bld.jmp(Join);
  Bld.setBlock(Else);
  Bld.constTo(T, 20);
  Bld.jmp(Join);
  Bld.setBlock(Join);
  Reg Out = Bld.add64(Base, T, "out");
  Bld.ret(Out);

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  BlockLiveness BL = computeBlockLiveness(MF);

  // Machine vreg of Base = FirstVirtReg + Base.
  uint32_t BaseV = FirstVirtReg + Base;
  for (uint32_t BlockId = 1; BlockId <= 2; ++BlockId) { // then, else
    EXPECT_TRUE(BL.liveIn(BlockId, BaseV - FirstVirtReg))
        << "Base not live into arm " << BlockId;
  }

  auto Intervals = computeLiveIntervals(MF);
  ASSERT_FALSE(Intervals.empty());
  // Intervals arrive sorted by start.
  for (size_t Index = 1; Index < Intervals.size(); ++Index)
    EXPECT_LE(Intervals[Index - 1].Start, Intervals[Index].Start);

  const LiveInterval *BaseLI = nullptr;
  for (const auto &LI : Intervals)
    if (LI.VReg == BaseV)
      BaseLI = &LI;
  ASSERT_NE(BaseLI, nullptr);
  // It must reach the join block's use.
  uint32_t JoinStart = MF.Blocks[3]->Insts.front().Pos;
  EXPECT_GE(BaseLI->End, JoinStart);
}

TEST(LiveIntervalTest, LoopCarriedValueCoversWholeLoop) {
  // sum is redefined in the body and used at the header: live around the
  // backedge, so its interval covers the entire loop.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  Reg I = F->newReg(Type::I64, "i");
  Reg Sum = F->newReg(Type::I64, "sum");
  Bld.setBlock(Entry);
  Bld.constTo(I, 0);
  Bld.constTo(Sum, 0);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Reg Cond = Bld.cmp64(CmpPred::SLT, I, N, "cond");
  Bld.br(Cond, Body, Exit);
  Bld.setBlock(Body);
  Bld.binopTo(Sum, Opcode::Add, Width::W64, Sum, I);
  Reg One = Bld.constI64(1);
  Bld.binopTo(I, Opcode::Add, Width::W64, I, One);
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Sum);

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  auto Intervals = computeLiveIntervals(MF);

  uint32_t SumV = FirstVirtReg + Sum;
  const LiveInterval *SumLI = nullptr;
  for (const auto &LI : Intervals)
    if (LI.VReg == SumV)
      SumLI = &LI;
  ASSERT_NE(SumLI, nullptr);

  // The interval must cover every instruction of header and body.
  uint32_t HeaderStart = MF.Blocks[1]->Insts.front().Pos;
  uint32_t BodyEnd = MF.Blocks[2]->Insts.back().Pos;
  EXPECT_LE(SumLI->Start, HeaderStart);
  EXPECT_GE(SumLI->End, BodyEnd);
}

TEST(LiveIntervalTest, CallAtIntervalStartCountsAsCrossing) {
  // `callsite` opens with a call and is laid out before `setup`, which
  // defines V; V is live into `callsite`, so its interval starts on the
  // call itself and must still be marked as crossing it. The call's own
  // result starts there too but does not cross it.
  Module M("m");
  Function *Clobber = M.createFunction("clobber", Type::I64);
  {
    IRBuilder Bld(Clobber);
    Bld.startBlock("entry");
    Bld.ret(Bld.constI64(14));
  }
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *CallSite = F->createBlock("callsite");
  BasicBlock *Setup = F->createBlock("setup");
  BasicBlock *Done = F->createBlock("done");
  Reg V = F->newReg(Type::I64, "v");
  Reg C = F->newReg(Type::I64, "c");
  Bld.setBlock(Entry);
  Bld.jmp(Setup);
  Bld.setBlock(CallSite);
  Bld.callTo(C, Clobber, {});
  Bld.jmp(Done);
  Bld.setBlock(Setup);
  Bld.constTo(V, 1000);
  Bld.jmp(CallSite);
  Bld.setBlock(Done);
  Bld.ret(Bld.add64(V, C, "r"));

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->find("main");
  auto Intervals = computeLiveIntervals(MF);
  uint32_t CallPos = MF.Blocks[1]->Insts.front().Pos;
  ASSERT_TRUE(MF.Blocks[1]->Insts.front().isCall());

  const LiveInterval *VLI = nullptr, *CLI = nullptr;
  for (const auto &LI : Intervals) {
    if (LI.VReg == FirstVirtReg + V)
      VLI = &LI;
    if (LI.VReg == FirstVirtReg + C)
      CLI = &LI;
  }
  ASSERT_NE(VLI, nullptr);
  ASSERT_NE(CLI, nullptr);
  EXPECT_EQ(VLI->Start, CallPos);
  EXPECT_TRUE(VLI->CrossesCall);
  EXPECT_EQ(CLI->Start, CallPos);
  EXPECT_FALSE(CLI->CrossesCall);

  expectNativeMatchesInterp(M);
}

// --- Liveness against the bit-at-a-time reference --------------------------
//
// The liveness fixpoint and interval scan the word-parallel code replaced,
// one bit at a time, kept as an executable specification: every input
// below must produce the same per-block sets and the same interval list.

struct ReferenceLiveness {
  std::vector<std::vector<bool>> LiveIn;
  std::vector<std::vector<bool>> LiveOut;
};

ReferenceLiveness referenceBlockLiveness(const MFunction &MF) {
  size_t NumBlocks = MF.Blocks.size();
  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  ReferenceLiveness L;
  L.LiveIn.assign(NumBlocks, std::vector<bool>(NumVRegs, false));
  L.LiveOut = L.LiveIn;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      const MBlock &B = *MF.Blocks[BI];
      std::vector<bool> Out(NumVRegs, false);
      const MInst &Term = B.Insts.back();
      for (unsigned SI = 0; SI < Term.numSuccessors(); ++SI)
        for (uint32_t R = 0; R < NumVRegs; ++R)
          if (L.LiveIn[Term.Succs[SI]->id()][R])
            Out[R] = true;
      std::vector<bool> Live = Out;
      for (size_t II = B.Insts.size(); II-- > 0;) {
        const MInst &I = B.Insts[II];
        if (I.Def != MNoReg && isVirtReg(I.Def))
          Live[I.Def - FirstVirtReg] = false;
        for (uint32_t U : I.Uses)
          if (isVirtReg(U))
            Live[U - FirstVirtReg] = true;
      }
      Changed |= Out != L.LiveOut[BI] || Live != L.LiveIn[BI];
      L.LiveOut[BI] = std::move(Out);
      L.LiveIn[BI] = std::move(Live);
    }
  }
  return L;
}

/// Hull intervals from a scan of every vreg of every block; a call crosses
/// an interval when it lies in [Start, End) and is not the call whose
/// result starts the interval.
std::vector<LiveInterval> referenceLiveIntervals(MFunction &MF) {
  numberMachineInsts(MF);
  ReferenceLiveness L = referenceBlockLiveness(MF);
  uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
  std::vector<LiveInterval> ByVReg(NumVRegs);
  std::vector<bool> Seen(NumVRegs, false);
  auto Extend = [&](uint32_t VReg, uint32_t Pos) {
    uint32_t R = VReg - FirstVirtReg;
    LiveInterval &LI = ByVReg[R];
    if (!Seen[R]) {
      Seen[R] = true;
      LI.VReg = VReg;
      LI.Start = LI.End = Pos;
    }
    LI.Start = std::min(LI.Start, Pos);
    LI.End = std::max(LI.End, Pos);
  };
  for (const auto &B : MF.Blocks) {
    uint32_t BlockStart = B->Insts.front().Pos;
    uint32_t BlockEnd = B->Insts.back().Pos;
    for (uint32_t R = 0; R < NumVRegs; ++R) {
      if (L.LiveIn[B->id()][R] || L.LiveOut[B->id()][R])
        Extend(FirstVirtReg + R, BlockStart);
      if (L.LiveOut[B->id()][R])
        Extend(FirstVirtReg + R, BlockEnd);
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
  for (uint32_t R = 0; R < NumVRegs; ++R)
    if (Seen[R])
      Intervals.push_back(ByVReg[R]);
  for (LiveInterval &LI : Intervals)
    for (const auto &B : MF.Blocks)
      for (const MInst &I : B->Insts)
        if (I.isCall() && I.Pos >= LI.Start && I.Pos < LI.End &&
            !(I.Pos == LI.Start && I.Def == LI.VReg))
          LI.CrossesCall = true;
  std::sort(Intervals.begin(), Intervals.end(),
            [](const LiveInterval &A, const LiveInterval &B) {
              return A.Start != B.Start ? A.Start < B.Start : A.VReg < B.VReg;
            });
  return Intervals;
}

/// Lowers \p M and expects every function's liveness and intervals to
/// match the reference. Returns the largest vreg count seen.
uint32_t expectLivenessMatchesReference(const Module &M,
                                        const std::string &What) {
  uint32_t MaxVRegs = 0;
  auto MIR = lowerModule(M);
  for (auto &MFP : MIR->Functions) {
    MFunction &MF = *MFP;
    std::string Where = What + ":" + MF.name();
    uint32_t NumVRegs = MF.NextVirtReg - FirstVirtReg;
    MaxVRegs = std::max(MaxVRegs, NumVRegs);

    ReferenceLiveness Want = referenceBlockLiveness(MF);
    BlockLiveness Got = computeBlockLiveness(MF);
    EXPECT_EQ(Got.Words, (NumVRegs + 63) / 64) << Where;
    for (uint32_t B = 0; B < MF.Blocks.size(); ++B) {
      for (uint32_t R = 0; R < NumVRegs; ++R) {
        if (Got.liveIn(B, R) != Want.LiveIn[B][R] ||
            Got.liveOut(B, R) != Want.LiveOut[B][R]) {
          ADD_FAILURE() << Where << ": block " << B << " v" << R
                        << " differs from the reference";
          return MaxVRegs;
        }
      }
      // Bits past the last vreg stay clear.
      if (NumVRegs % 64 != 0) {
        EXPECT_EQ(Got.liveInOf(B)[Got.Words - 1] >> (NumVRegs % 64), 0u)
            << Where;
        EXPECT_EQ(Got.liveOutOf(B)[Got.Words - 1] >> (NumVRegs % 64), 0u)
            << Where;
      }
    }
    // Parameter loads and zero-inits define everything read in the entry
    // block before it is written, so nothing is live into it.
    for (uint32_t R = 0; R < NumVRegs; ++R)
      EXPECT_FALSE(Want.LiveIn[0][R]) << Where << ": v" << R;

    std::vector<LiveInterval> WantIntervals = referenceLiveIntervals(MF);
    std::vector<LiveInterval> GotIntervals = computeLiveIntervals(MF);
    EXPECT_EQ(GotIntervals.size(), WantIntervals.size()) << Where;
    for (size_t Index = 0;
         Index < std::min(GotIntervals.size(), WantIntervals.size());
         ++Index) {
      const LiveInterval &G = GotIntervals[Index];
      const LiveInterval &W = WantIntervals[Index];
      if (G.VReg != W.VReg || G.Start != W.Start || G.End != W.End ||
          G.CrossesCall != W.CrossesCall) {
        ADD_FAILURE() << Where << ": interval " << Index << " is v"
                      << G.VReg - FirstVirtReg << " [" << G.Start << ","
                      << G.End << "] crosses=" << G.CrossesCall
                      << ", reference v" << W.VReg - FirstVirtReg << " ["
                      << W.Start << "," << W.End
                      << "] crosses=" << W.CrossesCall;
        break;
      }
    }
  }
  return MaxVRegs;
}

/// A clone of \p M after the full pipeline for x86-64, the module the
/// native engine compiles.
std::unique_ptr<Module> afterAllPipeline(const Module &M) {
  auto Clone = cloneModule(M);
  runPipeline(*Clone, PipelineConfig::forVariant(Variant::All,
                                                 TargetInfo::x86_64()));
  return Clone;
}

/// main(n): a loop whose body is a diamond. acc and i are live around the
/// back edge and across a call on the `then` arm; t is defined on that arm
/// only and read at the join, so it is live into the entry block and gets
/// zero-initialized. \p Pad unused registers are created before the loop's,
/// pushing the live vregs to the top of the numbering. \p T receives t.
std::unique_ptr<Module> loopDiamondModule(unsigned Pad, Reg *T = nullptr) {
  auto M = std::make_unique<Module>("m");
  Function *Step = M->createFunction("step", Type::I64);
  {
    Reg X = Step->addParam(Type::I64, "x");
    IRBuilder Bld(Step);
    Bld.startBlock("entry");
    Bld.ret(Bld.add64(X, Bld.constI64(3)));
  }
  Function *F = M->createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  for (unsigned Index = 0; Index < Pad; ++Index)
    F->newReg(Type::I64, "pad" + std::to_string(Index));
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Exit = F->createBlock("exit");
  Reg I = F->newReg(Type::I64, "i");
  Reg Acc = F->newReg(Type::I64, "acc");
  Reg TReg = F->newReg(Type::I64, "t");
  if (T)
    *T = TReg;

  Bld.setBlock(Entry);
  Bld.constTo(I, 0);
  Bld.constTo(Acc, 1);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Bld.br(Bld.cmp64(CmpPred::SLT, I, N, "c"), Body, Exit);
  Bld.setBlock(Body);
  Reg Odd = Bld.binop(Opcode::And, Width::W64, I, Bld.constI64(1), "odd");
  Bld.br(Odd, Then, Else);
  Bld.setBlock(Then);
  Bld.callTo(TReg, Step, {Acc});
  Bld.jmp(Join);
  Bld.setBlock(Else);
  Bld.jmp(Join);
  Bld.setBlock(Join);
  Bld.binopTo(Acc, Opcode::Add, Width::W64, Acc, TReg);
  Bld.binopTo(Acc, Opcode::Mul, Width::W64, Acc, Bld.constI64(5));
  Bld.binopTo(I, Opcode::Add, Width::W64, I, Bld.constI64(1));
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Acc);
  return M;
}

/// Vregs of loopDiamondModule(Pad)'s main once lowered.
uint32_t loopDiamondVRegs(unsigned Pad) {
  auto M = loopDiamondModule(Pad);
  auto MIR = lowerModule(*M);
  const MFunction &MF = *MIR->find("main");
  return MF.NextVirtReg - FirstVirtReg;
}

TEST(LivenessReferenceTest, AllKernels) {
  for (const Workload &W : allWorkloads()) {
    auto M = W.Build(WorkloadParams());
    expectLivenessMatchesReference(*M, W.Name);
    expectLivenessMatchesReference(*afterAllPipeline(*M),
                                   std::string(W.Name) + "/all");
  }
}

TEST(LivenessReferenceTest, EveryCorpusProgram) {
  unsigned Programs = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(SXE_SOURCE_DIR) + "/tests/corpus")) {
    if (Entry.path().extension() != ".sxir")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ParseResult Parsed = parseModule(Buffer.str());
    ASSERT_TRUE(Parsed.ok()) << Entry.path() << ": " << Parsed.Error;
    std::string Name = Entry.path().filename().string();
    expectLivenessMatchesReference(*Parsed.M, Name);
    expectLivenessMatchesReference(*afterAllPipeline(*Parsed.M),
                                   Name + "/all");
    ++Programs;
  }
  EXPECT_GE(Programs, 10u);
}

TEST(LivenessReferenceTest, LargeRandomModules) {
  uint32_t MaxVRegs = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    auto M = RandomModuleGenerator(Seed, GeneratorOptions::large()).generate();
    MaxVRegs = std::max(
        MaxVRegs, expectLivenessMatchesReference(
                      *afterAllPipeline(*M), "seed " + std::to_string(Seed)));
    if (HasFailure())
      return;
  }
  // The sets span several words.
  EXPECT_GT(MaxVRegs, 128u);
}

TEST(LivenessReferenceTest, WordBoundaries) {
  uint32_t Base = loopDiamondVRegs(0);
  for (uint32_t Want : {63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    ASSERT_GE(Want, Base);
    auto M = loopDiamondModule(Want - Base);
    ASSERT_EQ(loopDiamondVRegs(Want - Base), Want);
    expectLivenessMatchesReference(*M, std::to_string(Want) + " vregs");
    for (uint64_t N : {0u, 1u, 4u, 7u})
      expectNativeMatchesInterp(*M, {N});
  }
}

TEST(LoweringTest, HighVRegReadBeforeWriteIsZeroInitializedOnce) {
  Reg T = 0;
  auto M = loopDiamondModule(/*Pad=*/70, &T);
  ASSERT_GE(T, 64u);
  LoweringStats Stats;
  auto MIR = lowerModule(*M, &Stats);
  const MFunction &MF = *MIR->find("main");
  uint32_t TV = FirstVirtReg + T;

  // Only t is read before it is written.
  EXPECT_EQ(Stats.ZeroInits, 1u);
  const std::vector<MInst> &Entry = MF.Blocks[0]->Insts;
  ASSERT_GT(Entry.size(), MF.NumParams);
  for (uint32_t P = 0; P < MF.NumParams; ++P)
    EXPECT_EQ(Entry[P].Op, MOp::LoadParam);
  const MInst &Zero = Entry[MF.NumParams];
  EXPECT_EQ(Zero.Op, MOp::MovImm);
  EXPECT_EQ(Zero.Def, TV);
  EXPECT_EQ(Zero.Imm, 0);
  unsigned MovImmsToT = 0;
  for (const auto &B : MF.Blocks)
    for (const MInst &I : B->Insts)
      MovImmsToT += I.Op == MOp::MovImm && I.Def == TV;
  EXPECT_EQ(MovImmsToT, 1u);

  for (uint64_t N : {0u, 1u, 2u, 9u})
    expectNativeMatchesInterp(*M, {N});
}

// --- Register allocation ----------------------------------------------------

/// Builds a function keeping \p Live values simultaneously live, then
/// consuming them in definition order.
std::unique_ptr<Module> manyLiveValuesModule(unsigned Live) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  std::vector<Reg> Vals;
  for (unsigned Index = 0; Index < Live; ++Index) {
    Reg C = Bld.constI64(Index + 1);
    Vals.push_back(Bld.add64(P, C));
  }
  Reg Acc = Vals[0];
  for (unsigned Index = 1; Index < Live; ++Index)
    Acc = Bld.mul64(Acc, Vals[Index]);
  Bld.ret(Acc);
  return M;
}

TEST(RegAllocTest, KPlus1ValuesOnKRegistersSpills) {
  auto M = manyLiveValuesModule(6);
  auto MIR = lowerModule(*M);
  MFunction &MF = *MIR->Functions[0];

  RegAllocOptions Tight;
  Tight.MaxCalleeSaved = 2;
  Tight.MaxCallerSaved = 2; // k = 4 registers for >= 6 live values.
  RegAllocResult RA = allocateRegisters(MF, Tight);
  EXPECT_GT(RA.NumSpilledIntervals, 0u);
  EXPECT_GT(RA.NumSpillSlots, 0u);
  EXPECT_GT(RA.NumSpillLoads, 0u);
  EXPECT_GT(RA.NumSpillStores, 0u);

  // The rewritten function still verifies.
  EXPECT_EQ(verifyMachineFunction(MF, &RA.Intervals), "");
}

TEST(RegAllocTest, AmpleRegistersSpillNothing) {
  auto M = manyLiveValuesModule(4);
  auto MIR = lowerModule(*M);
  RegAllocResult RA = allocateRegisters(*MIR->Functions[0]);
  EXPECT_EQ(RA.NumSpilledIntervals, 0u);
  EXPECT_EQ(verifyMachineFunction(*MIR->Functions[0], &RA.Intervals), "");
}

TEST(RegAllocTest, SpilledCodeComputesTheSameAnswer) {
  auto M = manyLiveValuesModule(10);
  NativeOptions Tight;
  Tight.RegAlloc.MaxCalleeSaved = 1;
  Tight.RegAlloc.MaxCallerSaved = 1;
  expectNativeMatchesInterp(*M, {7});

  if (NativeModule::hostSupported()) {
    std::string Error;
    auto NM = NativeModule::compile(*M, Tight, &Error);
    ASSERT_NE(NM, nullptr) << Error;
    EXPECT_GT(NM->info().SpilledIntervals, 0u);
    ExecResult Got = NM->run("main", {7});
    ExecResult Want = Interpreter(*M, x86MachineOptions()).run("main", {7});
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  }
}

// --- Machine verifier -------------------------------------------------------

TEST(MachineVerifierTest, RejectsUnallocatedVirtualRegisters) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.add64(P, P));

  auto MIR = lowerModule(M);
  // No register allocation ran: virtual registers remain.
  EXPECT_NE(verifyMachineFunction(*MIR->Functions[0]), "");
}

TEST(MachineVerifierTest, RejectsMissingTerminator) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.retVoid();

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  allocateRegisters(MF);
  ASSERT_EQ(verifyMachineFunction(MF), "");
  MF.Blocks.front()->Insts.pop_back(); // Drop the RetR.
  EXPECT_NE(verifyMachineFunction(MF), "");
}

TEST(MachineVerifierTest, RejectsReservedRegisters) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.retVoid();

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  allocateRegisters(MF);
  MInst Bad(MOp::MovRR);
  Bad.Def = RSP;
  Bad.Uses.push_back(RAX);
  MF.Blocks.front()->Insts.insert(MF.Blocks.front()->Insts.begin(), Bad);
  EXPECT_NE(verifyMachineFunction(MF), "");
}

/// An allocated `main(arr, idx)` whose body is one i32 element load.
std::unique_ptr<MModule> allocatedElementLoad(Module &M) {
  Function *F = M.createFunction("main", Type::I64);
  Reg Arr = F->addParam(Type::ArrayRef, "arr");
  Reg Index = F->addParam(Type::I64, "idx");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.arrayLoad(Type::I32, Arr, Index, "v"));
  auto MIR = lowerModule(M);
  allocateRegisters(*MIR->Functions[0]);
  return MIR;
}

MInst &firstOf(MFunction &MF, MOp Op) {
  for (auto &B : MF.Blocks)
    for (MInst &I : B->Insts)
      if (I.Op == Op)
        return I;
  throw std::logic_error("no such instruction");
}

TEST(MachineVerifierTest, RejectsWrongOperandCount) {
  Module M("m");
  auto MIR = allocatedElementLoad(M);
  MFunction &MF = *MIR->Functions[0];
  ASSERT_EQ(verifyMachineFunction(MF), "");
  firstOf(MF, MOp::LoadElem).Uses.pop_back();
  EXPECT_NE(verifyMachineFunction(MF).find("1 uses, expected 2"),
            std::string::npos);
}

TEST(MachineVerifierTest, RejectsRcxOutsideAStore) {
  // The check's wild-address test clobbers RCX, so RCX may not feed it.
  Module M("m");
  auto MIR = allocatedElementLoad(M);
  MFunction &MF = *MIR->Functions[0];
  firstOf(MF, MOp::ArrayCheck).Uses[1] = RCX;
  EXPECT_NE(verifyMachineFunction(MF).find("rcx"), std::string::npos);
}

/// Intervals on physical registers for the overlap check: one
/// {vreg index, start, end, register} per entry.
struct Span {
  uint32_t V, Start, End, Reg;
};
std::string verifyWithIntervals(const std::vector<Span> &Spans) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.retVoid();
  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  allocateRegisters(MF);
  std::vector<LiveInterval> Intervals;
  for (const Span &S : Spans) {
    LiveInterval LI;
    LI.VReg = FirstVirtReg + S.V;
    LI.Start = S.Start;
    LI.End = S.End;
    LI.PhysReg = S.Reg;
    Intervals.push_back(LI);
  }
  return verifyMachineFunction(MF, &Intervals);
}

TEST(MachineVerifierTest, RejectsIntervalsSharingAnEndpoint) {
  // End is inclusive: [4,8] and [8,12] both hold rbx at position 8.
  EXPECT_EQ(verifyWithIntervals({{1, 4, 8, RBX}, {2, 8, 12, RBX}}),
            "main: intervals v1 [4,8] and v2 [8,12] overlap in rbx");
}

TEST(MachineVerifierTest, AcceptsDisjointIntervalsOnOneRegister) {
  EXPECT_EQ(verifyWithIntervals({{1, 4, 8, RBX}, {2, 10, 12, RBX}}), "");
  std::vector<Span> Many;
  for (uint32_t Index = 0; Index < 200; ++Index)
    Many.push_back({Index, 4 * Index, 4 * Index + 2, R12});
  EXPECT_EQ(verifyWithIntervals(Many), "");
}

TEST(MachineVerifierTest, OverlapWithAnEarlierLongIntervalIsFound) {
  // v3 overlaps v1, not its neighbour v2 on another register; v4 on
  // another register again is fine.
  EXPECT_EQ(verifyWithIntervals({{1, 0, 100, RBX},
                                 {2, 2, 3, R12},
                                 {4, 20, 30, RSI},
                                 {3, 50, 60, RBX}}),
            "main: intervals v1 [0,100] and v3 [50,60] overlap in rbx");
  EXPECT_EQ(verifyWithIntervals({{3, 50, 60, RBX}, {1, 0, 100, RBX}}),
            "main: intervals not sorted by start");
  EXPECT_EQ(verifyWithIntervals({{1, 0, 4, NumPhysRegs}}),
            "main: interval v1 assigned to non-register 16");
}

// --- Native execution: arithmetic parity ------------------------------------

TEST(NativeTest, AddW32ZeroExtendsLikeTheHardware) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg A = Bld.constI32(0x7FFFFFFF);
  Reg One = Bld.constI32(1);
  Reg Sum = Bld.add32(A, One, "sum");
  Reg Wide = F->newReg(Type::I64, "wide");
  Bld.copyTo(Wide, Sum);
  Bld.ret(Wide);
  expectNativeMatchesInterp(M);

  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M);
    ASSERT_NE(NM, nullptr);
    // addl writes a 32-bit register: the result is 2^31, zero-extended.
    EXPECT_EQ(NM->run("main").ReturnValue, uint64_t(1) << 31);
  }
}

TEST(NativeTest, ShiftFamilyMatchesInterpreter) {
  for (Opcode Op : {Opcode::Shl, Opcode::Shr, Opcode::Sar}) {
    for (Width W : {Width::W32, Width::W64}) {
      Module M("m");
      Function *F = M.createFunction("main", Type::I64);
      Reg A = F->addParam(Type::I64, "a");
      Reg C = F->addParam(Type::I64, "c");
      IRBuilder Bld(F);
      Bld.startBlock("entry");
      Bld.ret(Bld.binop(Op, W, A, C));
      // Negative value, oversized count: exercises count masking and the
      // W32 zero-extension of the result.
      expectNativeMatchesInterp(M, {static_cast<uint64_t>(-7), 35});
      expectNativeMatchesInterp(M, {0xDEADBEEFCAFEBABEull, 4});
    }
  }
}

TEST(NativeTest, DivisionJavaSemantics) {
  // INT32_MIN / -1 wraps; uses parameters so no folding can hide it.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I32, "a");
  Reg B = F->addParam(Type::I32, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.div32(A, B));
  expectNativeMatchesInterp(
      M, {static_cast<uint64_t>(INT32_MIN), static_cast<uint64_t>(-1)});
  expectNativeMatchesInterp(M, {100, 7});
  expectNativeMatchesInterp(M, {100, 0}); // DivByZero parity.
}

TEST(NativeTest, Div64MinByMinusOneWraps) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::I64, "a");
  Reg B = F->addParam(Type::I64, "b");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.binop(Opcode::Div, Width::W64, A, B));
  expectNativeMatchesInterp(
      M, {static_cast<uint64_t>(INT64_MIN), static_cast<uint64_t>(-1)});
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-100), 9});
}

TEST(NativeTest, FloatingPointAndD2ISaturation) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Big = Bld.constF64(1e18);
  Reg Two = Bld.constF64(2.0);
  Reg Prod = Bld.fmul(Big, Two, "prod");
  Reg I = Bld.d2i(Prod, "i"); // Saturates to INT32_MAX, zero-extended.
  Bld.ret(I);
  expectNativeMatchesInterp(M);
}

TEST(NativeTest, FCmpNaNOnlyNotEqualHolds) {
  for (CmpPred Pred : {CmpPred::EQ, CmpPred::NE, CmpPred::SLT, CmpPred::SGE}) {
    Module M("m");
    Function *F = M.createFunction("main", Type::I64);
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Reg Zero = Bld.constF64(0.0);
    Reg NaN = Bld.fdiv(Zero, Zero, "nan");
    Reg One = Bld.constF64(1.0);
    Bld.ret(Bld.fcmp(Pred, NaN, One));
    expectNativeMatchesInterp(M);
  }
}

TEST(NativeTest, SextAfterUnextendedW32AddCanonicalizes) {
  // The paper's core scenario: a W32 add leaves 2^31 in the register;
  // the sext32 then produces the canonical negative value.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg A = Bld.constI32(0x7FFFFFFF);
  Reg One = Bld.constI32(1);
  Reg Sum = Bld.add32(A, One, "sum");
  Bld.sextTo(Sum, 32, Sum);
  Reg Wide = F->newReg(Type::I64, "wide");
  Bld.copyTo(Wide, Sum);
  Bld.ret(Wide);
  expectNativeMatchesInterp(M);

  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M);
    ASSERT_NE(NM, nullptr);
    EXPECT_EQ(static_cast<int64_t>(NM->run("main").ReturnValue), INT32_MIN);
  }
}

// --- Native execution: arrays, calls, control flow --------------------------

TEST(NativeTest, ArrayRoundTripAndTraps) {
  // Fill a[i] = i*3 over an I16 array, then sum it back.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");

  Reg I = F->newReg(Type::I64, "i");
  Reg Sum = F->newReg(Type::I64, "sum");
  Bld.setBlock(Entry);
  Reg Arr = Bld.newArray(Type::I16, N, "arr");
  Bld.constTo(I, 0);
  Bld.constTo(Sum, 0);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Reg Len = Bld.arrayLen(Arr, "len");
  Reg Cond = Bld.cmp64(CmpPred::SLT, I, Len, "cond");
  Bld.br(Cond, Body, Exit);
  Bld.setBlock(Body);
  Reg Three = Bld.constI64(3);
  Reg V = Bld.mul64(I, Three, "v");
  Bld.arrayStore(Type::I16, Arr, I, V);
  Reg Back = Bld.arrayLoad(Type::I16, Arr, I, "back");
  Bld.binopTo(Sum, Opcode::Add, Width::W64, Sum, Back);
  Reg One = Bld.constI64(1);
  Bld.binopTo(I, Opcode::Add, Width::W64, I, One);
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Sum);

  expectNativeMatchesInterp(M, {50});
  expectNativeMatchesInterp(M, {0});
  // Negative length: NegativeArraySize on both engines.
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-3)});
}

TEST(NativeTest, OutOfBoundsTrapsIdentically) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg Index = F->addParam(Type::I64, "idx");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Ten = Bld.constI64(10);
  Reg Arr = Bld.newArray(Type::I32, Ten, "arr");
  Bld.ret(Bld.arrayLoad(Type::I32, Arr, Index, "v"));
  expectNativeMatchesInterp(M, {9});
  expectNativeMatchesInterp(M, {10}); // BoundsCheck
  expectNativeMatchesInterp(M, {static_cast<uint64_t>(-1)});
}

TEST(NativeTest, EveryElementWidthRoundTripsWithoutTouchingNeighbours) {
  // a[1] = all ones, then a[0] + a[1] + a[2]: only the stored element's
  // own bytes change, and the load zero-extends at the element's width.
  for (Type Elem : {Type::I8, Type::I16, Type::U16, Type::I32, Type::I64}) {
    Module M("m");
    Function *F = M.createFunction("main", Type::I64);
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Reg Arr = Bld.newArray(Elem, Bld.constI64(3), "arr");
    Reg Zero = Bld.constI64(0);
    Reg One = Bld.constI64(1);
    Reg Two = Bld.constI64(2);
    Bld.arrayStore(Elem, Arr, One, Bld.constI64(-1));
    Reg Sum = Bld.add64(Bld.arrayLoad(Elem, Arr, Zero),
                        Bld.arrayLoad(Elem, Arr, One), "s");
    Bld.ret(Bld.add64(Sum, Bld.arrayLoad(Elem, Arr, Two), "t"));
    expectNativeMatchesInterp(M);
    expectNativeMatchesInterp(M, {}, everythingSpilled());
  }
}

TEST(NativeTest, StoreWithEveryOperandSpilledUsesThreeScratches) {
  // The store's array, index and value all come from spill slots, so the
  // rewriter hands out RAX, RDX and RCX; the check before it still needs
  // RCX for the wild-address test.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  Reg I = F->newReg(Type::I32, "i");
  Reg Sum = F->newReg(Type::I64, "sum");
  Bld.setBlock(Entry);
  Reg Arr = Bld.newArray(Type::I32, N, "arr");
  Bld.constTo(I, 0);
  Bld.constTo(Sum, 0);
  Bld.jmp(Header);
  Bld.setBlock(Header);
  Reg Cond = Bld.cmp32(CmpPred::SLT, I, Bld.arrayLen(Arr), "cond");
  Bld.br(Cond, Body, Exit);
  Bld.setBlock(Body);
  Reg V = Bld.mul32(I, Bld.constI32(7), "v");
  Bld.arrayStore(Type::I32, Arr, I, V);
  Reg Back = Bld.arrayLoad(Type::I32, Arr, I, "back");
  Bld.binopTo(Sum, Opcode::Add, Width::W64, Sum, Back);
  Bld.binopTo(I, Opcode::Add, Width::W32, I, Bld.constI32(1));
  Bld.jmp(Header);
  Bld.setBlock(Exit);
  Bld.ret(Sum);

  expectNativeMatchesInterp(M, {40}, everythingSpilled());

  auto MIR = lowerModule(M);
  MFunction &MF = *MIR->Functions[0];
  RegAllocOptions None;
  None.MaxCalleeSaved = 0;
  None.MaxCallerSaved = 0;
  RegAllocResult RA = allocateRegisters(MF, None);
  EXPECT_EQ(verifyMachineFunction(MF, &RA.Intervals), "");
  bool SawThreeScratchStore = false;
  for (const auto &B : MF.Blocks)
    for (const MInst &MI : B->Insts)
      if (MI.Op == MOp::StoreElem && MI.Uses[0] == RAX &&
          MI.Uses[1] == RDX && MI.Uses[2] == RCX)
        SawThreeScratchStore = true;
  EXPECT_TRUE(SawThreeScratchStore) << printMachineFunction(MF);
}

TEST(NativeTest, WildIndexTrapsOnlyWhenChecked) {
  // The index register holds 2^32 + 3: its low half passes the bounds
  // check, but as a 64-bit address index it points far past the array.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg Index = F->addParam(Type::I64, "idx");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Arr = Bld.newArray(Type::I64, Bld.constI64(8), "arr");
  Bld.arrayStore(Type::I64, Arr, Bld.constI64(3), Bld.constI64(42));
  Bld.ret(Bld.arrayLoad(Type::I64, Arr, Index, "v"));
  uint64_t Wild = (uint64_t(1) << 32) + 3;
  expectNativeMatchesInterp(M, {Wild}); // WildAddress on both engines.

  // Unchecked, both engines index with the low half and read a[3].
  NativeOptions Unchecked;
  Unchecked.CheckWildAddresses = false;
  expectNativeMatchesInterp(M, {Wild}, Unchecked);
  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M, Unchecked);
    ASSERT_NE(NM, nullptr);
    EXPECT_EQ(NM->run("main", {Wild}).ReturnValue, 42u);
  }
}

TEST(NativeTest, ArrayRefsCrossTheEntryBoundaryAsHandles) {
  // A returned array comes back as the interpreter's handle number (the
  // second allocation is handle 2); an arrayref argument enters as null.
  Module M("m");
  Function *F = M.createFunction("main", Type::ArrayRef);
  Reg In = F->addParam(Type::ArrayRef, "in");
  Reg UseIn = F->addParam(Type::I64, "use_in");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Touch = F->createBlock("touch");
  BasicBlock *Fresh = F->createBlock("fresh");
  Bld.setBlock(Entry);
  Bld.br(UseIn, Touch, Fresh);
  Bld.setBlock(Touch);
  Bld.arrayLen(In, "len");
  Bld.ret(In);
  Bld.setBlock(Fresh);
  Bld.newArray(Type::I8, Bld.constI64(4), "first");
  Bld.ret(Bld.newArray(Type::I16, Bld.constI64(4), "second"));

  expectNativeMatchesInterp(M, {0, 0});
  expectNativeMatchesInterp(M, {7, 1}); // arraylen of null on both.
  if (NativeModule::hostSupported()) {
    auto NM = NativeModule::compile(M);
    ASSERT_NE(NM, nullptr);
    EXPECT_EQ(NM->run("main", {0, 0}).ReturnValue, 2u);
  }
}

TEST(NativeTest, DivRemEdgeCasesMatchAtBothWidths) {
  const uint64_t Upper = 0xABCD000000000000ull; // ignored by W32 forms
  const std::vector<std::pair<int64_t, int64_t>> Pairs = {
      {7, 2},  {-7, 2},       {7, -2}, {-7, -2}, {INT32_MIN, -1},
      {5, -1}, {INT64_MIN, -1}, {0, 3}, {9, 0}};
  for (Opcode Op : {Opcode::Div, Opcode::Rem}) {
    for (Width W : {Width::W32, Width::W64}) {
      Module M("m");
      Function *F = M.createFunction("main", Type::I64);
      Reg A = F->addParam(Type::I64, "a");
      Reg B = F->addParam(Type::I64, "b");
      IRBuilder Bld(F);
      Bld.startBlock("entry");
      Bld.ret(Bld.binop(Op, W, A, B));
      for (const auto &[X, Y] : Pairs) {
        uint64_t UX = static_cast<uint64_t>(X), UY = static_cast<uint64_t>(Y);
        if (W == Width::W32) {
          UX = (UX & 0xFFFFFFFF) | Upper;
          UY = (UY & 0xFFFFFFFF) | Upper;
        }
        expectNativeMatchesInterp(M, {UX, UY});
        expectNativeMatchesInterp(M, {UX, UY}, everythingSpilled());
      }
    }
  }
}

uint64_t bitsOf(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

TEST(NativeTest, FCmpEveryPredicateOnOrderedAndUnorderedPairs) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> Pairs = {
      {1.0, 2.0}, {2.0, 1.0}, {1.5, 1.5}, {-0.0, 0.0},
      {NaN, 1.0}, {1.0, NaN}, {NaN, NaN}};
  for (CmpPred Pred :
       {CmpPred::EQ, CmpPred::NE, CmpPred::SLT, CmpPred::SLE, CmpPred::SGT,
        CmpPred::SGE, CmpPred::ULT, CmpPred::ULE, CmpPred::UGT,
        CmpPred::UGE}) {
    Module M("m");
    Function *F = M.createFunction("main", Type::I64);
    Reg A = F->addParam(Type::F64, "a");
    Reg B = F->addParam(Type::F64, "b");
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Bld.ret(Bld.fcmp(Pred, A, B));
    for (const auto &[X, Y] : Pairs) {
      expectNativeMatchesInterp(M, {bitsOf(X), bitsOf(Y)});
      expectNativeMatchesInterp(M, {bitsOf(X), bitsOf(Y)},
                                everythingSpilled());
    }
  }
}

TEST(NativeTest, D2ISaturatesAndMapsNaNToZero) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg A = F->addParam(Type::F64, "a");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.ret(Bld.d2i(A));
  const double Inf = std::numeric_limits<double>::infinity();
  for (double D : {3.7, -3.7, -0.0, 2147483647.9, 2147483648.0, 1e18, Inf,
                   -2147483648.9, -2147483649.0, -1e18, -Inf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    expectNativeMatchesInterp(M, {bitsOf(D)});
    expectNativeMatchesInterp(M, {bitsOf(D)}, everythingSpilled());
  }
}

/// Expects \p M to trap with \p Kind on both engines, with the native
/// message equal to the interpreter's word for word.
void expectTrapMessageParity(Module &M, const std::vector<uint64_t> &Args,
                             TrapKind Kind) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  ExecResult Want = Interpreter(M, x86MachineOptions()).run("main", Args);
  auto NM = NativeModule::compile(M);
  ASSERT_NE(NM, nullptr);
  ExecResult Got = NM->run("main", Args);
  EXPECT_EQ(Want.Trap, Kind);
  EXPECT_EQ(Got.Trap, Kind);
  EXPECT_FALSE(Want.TrapMessage.empty());
  EXPECT_EQ(Got.TrapMessage, Want.TrapMessage);
}

TEST(TrapMessageTest, NullArrayLenAndNullAccessKeepTheirOwnMessages) {
  for (bool Len : {true, false}) {
    Module M("m");
    Function *F = M.createFunction("main", Type::I64);
    Reg Arr = F->addParam(Type::ArrayRef, "arr");
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Bld.ret(Len ? Bld.arrayLen(Arr)
                : Bld.arrayLoad(Type::I32, Arr, Bld.constI32(0)));
    expectTrapMessageParity(M, {0}, TrapKind::NullArray);
  }
}

TEST(TrapMessageTest, BoundsAndWildAddress) {
  // The access sits in a callee, whose name the wild-address message
  // carries.
  Module M("m");
  Function *Reader = M.createFunction("reader", Type::I64);
  {
    Reg Arr = Reader->addParam(Type::ArrayRef, "arr");
    Reg Index = Reader->addParam(Type::I64, "idx");
    IRBuilder Bld(Reader);
    Bld.startBlock("entry");
    Bld.ret(Bld.arrayLoad(Type::I16, Arr, Index, "v"));
  }
  Function *F = M.createFunction("main", Type::I64);
  Reg Index = F->addParam(Type::I64, "idx");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Arr = Bld.newArray(Type::I16, Bld.constI64(10), "arr");
  Bld.ret(Bld.call(Reader, {Arr, Index}, "v"));
  expectTrapMessageParity(M, {10}, TrapKind::BoundsCheck);
  expectTrapMessageParity(M, {(uint64_t(1) << 32) + 3},
                          TrapKind::WildAddress);
}

TEST(TrapMessageTest, NegativeSizeAndDivideByZero) {
  Module Alloc("m");
  {
    Function *F = Alloc.createFunction("main", Type::I64);
    Reg N = F->addParam(Type::I64, "n");
    IRBuilder Bld(F);
    Bld.startBlock("entry");
    Bld.ret(Bld.arrayLen(Bld.newArray(Type::I32, N, "arr")));
  }
  expectTrapMessageParity(Alloc, {static_cast<uint64_t>(-3)},
                          TrapKind::NegativeArraySize);

  for (Opcode Op : {Opcode::Div, Opcode::Rem}) {
    for (Width W : {Width::W32, Width::W64}) {
      Module M("m");
      Function *F = M.createFunction("main", Type::I64);
      Reg A = F->addParam(Type::I64, "a");
      Reg B = F->addParam(Type::I64, "b");
      IRBuilder Bld(F);
      Bld.startBlock("entry");
      Bld.ret(Bld.binop(Op, W, A, B));
      // For W32 only the zero low half of the divisor counts.
      expectTrapMessageParity(M, {12, W == Width::W32 ? uint64_t(1) << 32 : 0},
                              TrapKind::DivByZero);
    }
  }
}

TEST(TrapMessageTest, ExplicitTrapAndStackOverflow) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Stop = F->createBlock("stop");
  BasicBlock *Rec = F->createBlock("rec");
  Bld.setBlock(Entry);
  Bld.br(N, Rec, Stop);
  Bld.setBlock(Stop);
  Bld.trap();
  Bld.setBlock(Rec);
  Bld.ret(Bld.call(F, {N}, "r"));
  expectTrapMessageParity(M, {0}, TrapKind::ExplicitTrap);
  expectTrapMessageParity(M, {1}, TrapKind::StackOverflow);
}

TEST(NativeTest, ExplicitTrapPropagates) {
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Bld.trap();
  expectNativeMatchesInterp(M);
}

TEST(NativeTest, CallsPassArgumentsAndReturnValues) {
  Module M("m");
  Function *Callee = M.createFunction("weighted", Type::I64);
  {
    Reg A = Callee->addParam(Type::I64, "a");
    Reg B = Callee->addParam(Type::I64, "b");
    Reg C = Callee->addParam(Type::I64, "c");
    IRBuilder Bld(Callee);
    Bld.startBlock("entry");
    Reg AB = Bld.mul64(A, B, "ab");
    Bld.ret(Bld.add64(AB, C, "r"));
  }
  Function *F = M.createFunction("main", Type::I64);
  Reg P = F->addParam(Type::I64, "p");
  IRBuilder Bld(F);
  Bld.startBlock("entry");
  Reg Two = Bld.constI64(2);
  Reg Five = Bld.constI64(5);
  Reg R1 = Bld.call(Callee, {P, Two, Five}, "r1");
  Reg R2 = Bld.call(Callee, {R1, P, R1}, "r2");
  Bld.ret(R2);
  expectNativeMatchesInterp(M, {13});
}

TEST(NativeTest, RecursionHitsStackOverflowInLockstep) {
  // f(n) = n <= 0 ? 0 : f(n-1)+n; driven past the depth limit.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  Reg N = F->addParam(Type::I64, "n");
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  Bld.setBlock(Entry);
  Reg Zero = Bld.constI64(0);
  Reg IsPos = Bld.cmp64(CmpPred::SGT, N, Zero, "pos");
  Bld.br(IsPos, Rec, Base);
  Bld.setBlock(Base);
  Bld.ret(Zero);
  Bld.setBlock(Rec);
  Reg One = Bld.constI64(1);
  Reg NM1 = Bld.sub64(N, One, "nm1");
  Reg Sub = Bld.call(F, {NM1}, "sub");
  Bld.ret(Bld.add64(Sub, N));

  NativeOptions Opts;
  Opts.MaxCallDepth = 64;
  expectNativeMatchesInterp(M, {10}, Opts);   // Completes: 55.
  expectNativeMatchesInterp(M, {1000}, Opts); // StackOverflow on both.
}

TEST(NativeTest, FuelExhaustionReportsStepLimit) {
  // while (true) {} under a tiny step budget.
  Module M("m");
  Function *F = M.createFunction("main", Type::I64);
  IRBuilder Bld(F);
  BasicBlock *Entry = Bld.startBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  Bld.setBlock(Entry);
  Bld.jmp(Loop);
  Bld.setBlock(Loop);
  Bld.jmp(Loop);

  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";
  NativeOptions Opts;
  Opts.MaxSteps = 1000;
  auto NM = NativeModule::compile(M, Opts);
  ASSERT_NE(NM, nullptr);
  ExecResult R = NM->run("main");
  EXPECT_EQ(R.Trap, TrapKind::StepLimit);
  EXPECT_GE(R.ExecutedInstructions, 1000u);
}

// --- Corpus parity ----------------------------------------------------------

class CorpusNativeParity : public ::testing::TestWithParam<const char *> {};

TEST_P(CorpusNativeParity, NativeMatchesX86Interpreter) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";

  std::string Path =
      std::string(SXE_SOURCE_DIR) + "/tests/corpus/" + GetParam() + ".sxir";
  std::ifstream In(Path);
  ASSERT_TRUE(static_cast<bool>(In)) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult Parsed = parseModule(Buffer.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  InterpOptions IOpts = x86MachineOptions();
  IOpts.MaxSteps = 1u << 22;
  ExecResult Want = Interpreter(*Parsed.M, IOpts).run("main");

  NativeOptions NOpts;
  NOpts.MaxSteps = 1u << 22;
  std::string Error;
  auto NM = NativeModule::compile(*Parsed.M, NOpts, &Error);
  ASSERT_NE(NM, nullptr) << Error;
  ExecResult Got = NM->run("main");

  // Fuel is block-granular, so a step-limited run is compared on the
  // trap kind only (and both engines must agree it was step-limited).
  EXPECT_EQ(Got.Trap, Want.Trap)
      << GetParam() << ": native '" << trapKindName(Got.Trap)
      << "' vs interpreter '" << trapKindName(Want.Trap) << "'";
  if (Want.Trap == TrapKind::None && Got.Trap == TrapKind::None)
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusNativeParity,
                         ::testing::Values("reduced_char_compare",
                                           "reduced_loop_carried",
                                           "reduced_mixed_store",
                                           "reduced_copy_demand",
                                           "reduced_call_boundary",
                                           "reduced_w32_inductive_sext",
                                           "generated_small",
                                           "generated_medium",
                                           "generated_large",
                                           "reduced_call_at_block_head"));

} // namespace
