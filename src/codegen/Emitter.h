//===- codegen/Emitter.h - Machine IR to x86-64 bytes ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns allocated machine IR into executable x86-64 bytes.
///
/// Every compiled function uses one internal ABI:
///
///   uint64_t fn(NativeCtx *ctx /* RDI */, const uint64_t *args /* RSI */)
///
/// which is SysV-compatible, so the host C++ code calls entry points
/// directly. The prologue pins the context in R15, saves the callee-saved
/// set, checks the call-depth budget; every block head pays its fuel cost
/// (the interpreter-equivalent step budget). Array access, division,
/// floating-point compares and d2i are inline; every trap, the explicit
/// one included, jumps to a per-function out-of-line stub for its
/// TrapSite, which calls rt_trap(ctx, site, function index); rt_trap
/// longjmps back to NativeModule::run. Internal calls go through the
/// per-run function table in the context (no relocations — the code is
/// position-independent), helper calls through absolute addresses bound at
/// emission.
///
/// Frame layout (rbp-relative):
///
///   [rbp-8..-40]   saved rbx, r12, r13, r14, r15
///   [rbp-48]       incoming args pointer
///   [rbp-56-8i]    spill slot i
///   [rsp+8j]       outgoing argument j of a module-function call
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_EMITTER_H
#define SXE_CODEGEN_EMITTER_H

#include "codegen/MachineIR.h"

#include <cstdint>
#include <vector>

namespace sxe {

/// Absolute addresses of the runtime helpers, bound by NativeEngine.
struct HelperTable {
  uint64_t NewArray = 0;
  uint64_t Trap = 0;
};

/// The array block layout the inline access sequences assume; NativeEngine
/// allocates blocks to match. An arrayref points at the length, a 64-bit
/// word holding a value below 2^31, and element i sits at
/// ElementsOffset + i * elementBytes(type).
struct ArrayBlockLayout {
  static constexpr int32_t LengthOffset = 0;
  static constexpr int32_t ElementsOffset = 8;
};

/// Byte offsets the emitted code assumes inside NativeCtx; NativeEngine
/// static_asserts they match the real struct.
struct NativeCtxLayout {
  static constexpr int32_t FuelOffset = 0;
  static constexpr int32_t DepthOffset = 8;
  static constexpr int32_t MaxDepthOffset = 12;
  static constexpr int32_t FnTableOffset = 16;
};

/// One emitted module: flat code plus each function's entry offset.
struct EmittedModule {
  std::vector<uint8_t> Code;
  std::vector<size_t> FunctionOffsets; ///< Indexed by MFunction::index().
};

/// Emits every (allocated, verified) function of \p MM.
EmittedModule emitModule(const MModule &MM, const HelperTable &Helpers);

} // namespace sxe

#endif // SXE_CODEGEN_EMITTER_H
