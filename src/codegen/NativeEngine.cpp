//===- codegen/NativeEngine.cpp - Native x86-64 execution engine -------------===//
//
// The runtime half of the baseline backend: the NativeCtx struct the
// emitted code addresses by fixed offsets, the array blocks it reads and
// writes directly, the two C runtime helpers it still calls (allocation and
// trap), and the compile/run pipeline.
//
// Traps unwind by longjmp: rt_trap records the kind and message in the
// per-run runtime state and jumps straight back to NativeModule::run,
// abandoning the native frames. The native frames own no resources (the
// heap lives in NativeRuntime), so the non-local exit is safe.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"

#include "codegen/CodeBuffer.h"
#include "codegen/Emitter.h"
#include "codegen/LiveIntervals.h"
#include "codegen/MachineVerifier.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <csetjmp>
#include <cstddef>
#include <cstdlib>
#include <cstring>

using namespace sxe;

namespace {

struct NativeRuntime;

/// The struct emitted code addresses through R15. Field offsets are part
/// of the code's ABI; the static_asserts below pin them to
/// NativeCtxLayout, which the emitter compiled against.
struct NativeCtx {
  int64_t Fuel;       ///< Remaining step budget; goes negative on exhaust.
  int32_t Depth;      ///< Current call depth.
  int32_t MaxDepth;   ///< Depth limit (exceeded => StackOverflow).
  void **FnTable;     ///< Entry pointer per module function index.
  NativeRuntime *RT;  ///< The C++ runtime state behind the helpers.
};

static_assert(offsetof(NativeCtx, Fuel) == NativeCtxLayout::FuelOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, Depth) == NativeCtxLayout::DepthOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, MaxDepth) == NativeCtxLayout::MaxDepthOffset,
              "emitted code disagrees with NativeCtx layout");
static_assert(offsetof(NativeCtx, FnTable) == NativeCtxLayout::FnTableOffset,
              "emitted code disagrees with NativeCtx layout");

/// Frees an array block (blocks come from calloc).
struct BlockDeleter {
  void operator()(uint64_t *Block) const { std::free(Block); }
};

/// Per-run state the helpers mutate; reset for every NativeModule::run.
///
/// Heap holds the array blocks in allocation order, so block i is the
/// interpreter's handle i + 1. A block is one 64-bit length word followed
/// by the elements at their real widths (ArrayBlockLayout). It reserves 8
/// bytes per element whatever the width: the IR does not tie an access's
/// element type to the array's, and the inline code scales the index by
/// the access type, so a mismatched access still stays inside the block.
struct NativeRuntime {
  const NativeOptions *Opts = nullptr;
  const MModule *MIR = nullptr;
  std::vector<std::unique_ptr<uint64_t, BlockDeleter>> Heap;
  uint64_t HeapElements = 0;
  TrapKind Trap = TrapKind::None;
  std::string TrapMessage;
  std::jmp_buf Unwind;

  /// The interpreter's handle for block pointer \p Ref (0 stays null).
  uint64_t handleOf(uint64_t Ref) const {
    for (size_t Index = 0; Index < Heap.size(); ++Index)
      if (reinterpret_cast<uint64_t>(Heap[Index].get()) == Ref)
        return Index + 1;
    return 0;
  }
};

/// Records \p Kind and jumps back to NativeModule::run. No frame that
/// longjmp abandons may own an object with a destructor, so callers build
/// the message in RT.TrapMessage before they get here.
[[noreturn]] void unwind(NativeCtx *Ctx, TrapKind Kind) {
  Ctx->RT->Trap = Kind;
  std::longjmp(Ctx->RT->Unwind, 1);
}

[[noreturn]] void raiseTrap(NativeCtx *Ctx, TrapKind Kind,
                            const char *Message) {
  Ctx->RT->TrapMessage = Message;
  unwind(Ctx, Kind);
}

// --- Runtime helpers --------------------------------------------------------
//
// Signatures follow the emitter's helper calling convention: ctx first,
// then the operands. Each body raises exactly the trap and message the
// corresponding Interpreter.cpp case does.

uint64_t rtNewArray(NativeCtx *Ctx, uint64_t Len) {
  NativeRuntime &RT = *Ctx->RT;
  int32_t LenLow = static_cast<int32_t>(Len);
  if (LenLow < 0)
    raiseTrap(Ctx, TrapKind::NegativeArraySize, "negative array size");
  int64_t LenFull = static_cast<int64_t>(Len);
  if (RT.Opts->CheckWildAddresses && LenFull != LenLow)
    raiseTrap(Ctx, TrapKind::WildAddress,
              "newarray length register not sign-extended");
  uint64_t N = static_cast<uint64_t>(LenLow);
  if (N > RT.Opts->MaxArrayLen)
    raiseTrap(Ctx, TrapKind::AllocationLimit,
              "array exceeds the configured limit");
  if (RT.HeapElements + N > RT.Opts->MaxHeapElements)
    reportFatalError("native heap limit exceeded (workload bug)");
  auto *Block = static_cast<uint64_t *>(std::calloc(N + 1, sizeof(uint64_t)));
  if (!Block)
    reportFatalError("native heap: out of memory");
  Block[ArrayBlockLayout::LengthOffset / 8] = N;
  RT.HeapElements += N;
  RT.Heap.emplace_back(Block);
  return reinterpret_cast<uint64_t>(Block);
}

/// Raises the trap of \p Site, reached from function \p FnIndex's stub.
[[noreturn]] void rtTrap(NativeCtx *Ctx, uint64_t Site, uint64_t FnIndex) {
  switch (static_cast<TrapSite>(Site)) {
  case TrapSite::NullArrayLen:
    raiseTrap(Ctx, TrapKind::NullArray, "arraylen of null");
  case TrapSite::NullArrayAccess:
    raiseTrap(Ctx, TrapKind::NullArray, "array access through null");
  case TrapSite::Bounds:
    raiseTrap(Ctx, TrapKind::BoundsCheck, "array index out of bounds");
  case TrapSite::WildIndex:
    Ctx->RT->TrapMessage =
        "effective address disagrees with bounds-checked index in ";
    Ctx->RT->TrapMessage += Ctx->RT->MIR->Functions[FnIndex]->name();
    unwind(Ctx, TrapKind::WildAddress);
  case TrapSite::DivByZero:
    raiseTrap(Ctx, TrapKind::DivByZero, "integer divide by zero");
  case TrapSite::StackOverflow:
    raiseTrap(Ctx, TrapKind::StackOverflow, "call depth limit exceeded");
  case TrapSite::StepLimit:
    raiseTrap(Ctx, TrapKind::StepLimit, "instruction budget exhausted");
  case TrapSite::Explicit:
    raiseTrap(Ctx, TrapKind::ExplicitTrap, "trap instruction executed");
  }
  sxeUnreachable("invalid TrapSite enumerator");
}

HelperTable makeHelperTable() {
  HelperTable T;
  T.NewArray = reinterpret_cast<uint64_t>(&rtNewArray);
  T.Trap = reinterpret_cast<uint64_t>(&rtTrap);
  return T;
}

using EntryFn = uint64_t (*)(NativeCtx *, const uint64_t *);

/// Runs \p Entry with rt_trap's longjmp target set. After a trap the
/// result is 0 and RT->Trap says what happened. Keeping the setjmp in its
/// own frame, with nothing live across it, leaves run()'s locals out of
/// reach of the longjmp.
uint64_t callEntry(EntryFn Entry, NativeCtx &Ctx, const uint64_t *Args) {
  if (setjmp(Ctx.RT->Unwind) != 0)
    return 0;
  return Entry(&Ctx, Args);
}

} // namespace

struct NativeModule::Impl {
  NativeOptions Opts;
  std::unique_ptr<MModule> MIR;
  CodeBuffer Code;
  std::vector<void *> FnTable; ///< Entry pointer per function index.
  NativeCompileInfo Info;
};

NativeModule::NativeModule() : P(new Impl) {}
NativeModule::~NativeModule() = default;

bool NativeModule::hostSupported() {
#if defined(__x86_64__) || defined(_M_X64)
  return CodeBuffer::hostSupported();
#else
  return false;
#endif
}

const NativeCompileInfo &NativeModule::info() const { return P->Info; }

std::unique_ptr<NativeModule>
NativeModule::compile(const Module &M, const NativeOptions &Opts,
                      std::string *Error) {
  auto Fail = [&](const std::string &Why) -> std::unique_ptr<NativeModule> {
    if (Error)
      *Error = Why;
    return nullptr;
  };
  if (!hostSupported())
    return Fail("native execution requires an x86-64 POSIX host");

  verifyModuleOrDie(M);

  uint64_t Start = wallNowNanos();
  std::unique_ptr<NativeModule> NM(new NativeModule);
  NM->P->Opts = Opts;

  LoweringOptions LOpts;
  LOpts.CheckWildAddresses = Opts.CheckWildAddresses;
  NativeCompileInfo &Info = NM->P->Info;
  // Charges the wall time since the previous lap to \p Phase.
  uint64_t Lap = Start;
  auto ChargeLap = [&Lap](uint64_t &Phase) {
    uint64_t Now = wallNowNanos();
    Phase += Now - Lap;
    Lap = Now;
  };

  NM->P->MIR = lowerModule(M, &Info.Lowering, LOpts);
  ChargeLap(Info.LowerNanos);
  MModule &MIR = *NM->P->MIR;

  for (auto &MF : MIR.Functions) {
    RegAllocResult RA = allocateRegisters(*MF, Opts.RegAlloc);
    ChargeLap(Info.RegAllocNanos);
    Info.SpillSlots += RA.NumSpillSlots;
    Info.SpilledIntervals += RA.NumSpilledIntervals;
    Info.SpillLoads += RA.NumSpillLoads;
    Info.SpillStores += RA.NumSpillStores;
    std::string Problem = verifyMachineFunction(*MF, &RA.Intervals);
    ChargeLap(Info.VerifyNanos);
    if (!Problem.empty())
      reportFatalError("machine verifier: " + MF->name() + ": " + Problem);
  }

  EmittedModule EM = emitModule(MIR, makeHelperTable());
  ChargeLap(Info.EmitNanos);
  Info.CodeBytes = EM.Code.size();

  if (!NM->P->Code.allocate(EM.Code.size()))
    return Fail("cannot map a code buffer");
  std::memcpy(NM->P->Code.data(), EM.Code.data(), EM.Code.size());
  if (!NM->P->Code.makeExecutable())
    return Fail("cannot make the code buffer executable (W^X-restricted "
                "environment)");

  NM->P->FnTable.resize(MIR.Functions.size());
  for (size_t Index = 0; Index < MIR.Functions.size(); ++Index)
    NM->P->FnTable[Index] = NM->P->Code.data() + EM.FunctionOffsets[Index];

  Info.CompileNanos = wallNowNanos() - Start;
  return NM;
}

ExecResult NativeModule::run(const std::string &FuncName,
                             const std::vector<uint64_t> &Args) {
  MFunction *MF = P->MIR->find(FuncName);
  if (!MF)
    reportFatalError("native run of unknown function '" + FuncName + "'");
  if (Args.size() != MF->NumParams)
    reportFatalError("native run of '" + FuncName +
                     "': argument count mismatch");

  NativeRuntime RT;
  RT.Opts = &P->Opts;
  RT.MIR = P->MIR.get();

  // An arrayref argument cannot name a block of this run (none exists
  // yet), so it enters as null rather than as a pointer to nowhere.
  const Function &Source = *MF->source();
  std::vector<uint64_t> EntryArgs = Args;
  for (uint32_t Param = 0; Param < MF->NumParams; ++Param)
    if (Source.regType(Param) == Type::ArrayRef)
      EntryArgs[Param] = 0;

  int64_t Fuel = P->Opts.MaxSteps > static_cast<uint64_t>(INT64_MAX)
                     ? INT64_MAX
                     : static_cast<int64_t>(P->Opts.MaxSteps);
  NativeCtx Ctx;
  Ctx.Fuel = Fuel;
  Ctx.Depth = 0;
  Ctx.MaxDepth = static_cast<int32_t>(P->Opts.MaxCallDepth);
  Ctx.FnTable = P->FnTable.data();
  Ctx.RT = &RT;

  ExecResult Result;
  uint64_t Ret = callEntry(reinterpret_cast<EntryFn>(P->FnTable[MF->index()]),
                           Ctx, EntryArgs.data());
  Result.Trap = RT.Trap;
  Result.TrapMessage = RT.TrapMessage;
  if (Result.Trap == TrapKind::None)
    Result.ReturnValue =
        Source.returnType() == Type::ArrayRef ? RT.handleOf(Ret) : Ret;
  // Fuel is charged per block head for the block's whole IR cost, so this
  // matches the interpreter's instruction count on complete blocks and
  // slightly overcounts a block a trap cut short.
  Result.ExecutedInstructions =
      static_cast<uint64_t>(Fuel - (Ctx.Fuel < 0 ? 0 : Ctx.Fuel));
  return Result;
}
