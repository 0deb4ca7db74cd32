//===- codegen/X86Encoder.h - x86-64 instruction encoder ---------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal x86-64 byte assembler covering exactly what the baseline
/// emitter needs: 32/64-bit register ALU and division, the explicit
/// conversion family (movsx/movzx/movsxd/movl — the instructions this
/// project measures), moves against [base+disp32] memory, array element
/// loads and stores at [base+index*scale+disp32], scalar double arithmetic
/// and compares through xmm0/xmm1, and rel32 control flow with post-hoc
/// patching.
///
/// Register numbers are the hardware encodings of codegen/MachineIR.h's
/// X86Reg (REX.R/X/B are derived from bit 3). Memory operands are always
/// encoded with a disp32 for simplicity; RSP/R12 bases get their SIB byte
/// automatically. Byte-register operands numbered 4-7 get a REX prefix so
/// they name spl/bpl/sil/dil rather than ah/ch/dh/bh.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_X86ENCODER_H
#define SXE_CODEGEN_X86ENCODER_H

#include "ir/Opcode.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sxe {

/// x86 condition-code values (the tttn field of Jcc/SETcc).
enum class X86Cond : uint8_t {
  B = 0x2,  ///< unsigned <
  AE = 0x3, ///< unsigned >=
  E = 0x4,
  NE = 0x5,
  BE = 0x6, ///< unsigned <=
  A = 0x7,  ///< unsigned >
  S = 0x8,  ///< sign set
  P = 0xA,  ///< parity set (ucomisd: unordered)
  NP = 0xB, ///< parity clear (ucomisd: ordered)
  L = 0xC,  ///< signed <
  GE = 0xD,
  LE = 0xE,
  G = 0xF,
};

/// Maps an IR compare predicate to the condition that makes SETcc/Jcc true.
X86Cond condForPred(CmpPred Pred);

/// Streaming x86-64 encoder.
class X86Assembler {
public:
  const std::vector<uint8_t> &code() const { return Code; }
  size_t size() const { return Code.size(); }

  // --- Register moves and constants -------------------------------------
  void movRR64(uint32_t Dst, uint32_t Src);
  void movRR32(uint32_t Dst, uint32_t Src); ///< movl: implicit zero-extend.
  void movImm64(uint32_t Dst, uint64_t Imm);
  void movImm32(uint32_t Dst, uint32_t Imm); ///< mov r32, imm32 (zero-extends)

  // --- Two-address ALU ---------------------------------------------------
  void addRR(bool W64, uint32_t Dst, uint32_t Src);
  void subRR(bool W64, uint32_t Dst, uint32_t Src);
  void imulRR(bool W64, uint32_t Dst, uint32_t Src);
  void andRR(bool W64, uint32_t Dst, uint32_t Src);
  void orRR(bool W64, uint32_t Dst, uint32_t Src);
  void xorRR(bool W64, uint32_t Dst, uint32_t Src);
  void negR(bool W64, uint32_t Reg);
  void notR(bool W64, uint32_t Reg);
  void shlCl(bool W64, uint32_t Reg);
  void shrCl(bool W64, uint32_t Reg);
  void sarCl(bool W64, uint32_t Reg);
  void idivR(bool W64, uint32_t Divisor); ///< edx:eax / r32 or rdx:rax / r64
  void cdq();                             ///< edx = sign of eax
  void cqo();                             ///< rdx = sign of rax
  void andRR8(uint32_t Dst, uint32_t Src); ///< and r8, r8
  void orRR8(uint32_t Dst, uint32_t Src);  ///< or r8, r8

  // --- Conversions -------------------------------------------------------
  void movsx8(uint32_t Dst, uint32_t Src);  ///< movsx r64, r8
  void movsx16(uint32_t Dst, uint32_t Src); ///< movsx r64, r16
  void movsxd(uint32_t Dst, uint32_t Src);  ///< movsxd r64, r32
  void movzx8(uint32_t Dst, uint32_t Src);  ///< movzx r64, r8
  void movzx16(uint32_t Dst, uint32_t Src); ///< movzx r64, r16

  // --- Compare / test / setcc -------------------------------------------
  void cmpRR(bool W64, uint32_t A, uint32_t B); ///< flags = A - B
  void cmpRImm8(bool W64, uint32_t A, int8_t Imm);   ///< flags = A - Imm
  void cmpRImm32(bool W64, uint32_t A, int32_t Imm); ///< flags = A - Imm
  void testRR(bool W64, uint32_t A, uint32_t B);
  void setcc(X86Cond Cond, uint32_t Reg); ///< setcc r8
  void movzxCl32(uint32_t Dst);           ///< movzx dst32, cl

  // --- Memory (always [Base + disp32]) ----------------------------------
  void movRM64(uint32_t Dst, uint32_t Base, int32_t Disp);
  void movMR64(uint32_t Base, int32_t Disp, uint32_t Src);
  void movRM32(uint32_t Dst, uint32_t Base, int32_t Disp);
  void cmpM32R(uint32_t Base, int32_t Disp, uint32_t Src);
  void cmpRM32(uint32_t Reg, uint32_t Base, int32_t Disp); ///< flags = Reg - mem
  void incM32(uint32_t Base, int32_t Disp);
  void decM32(uint32_t Base, int32_t Disp);
  void subM64Imm32(uint32_t Base, int32_t Disp, int32_t Imm);
  void leaRM(uint32_t Dst, uint32_t Base, int32_t Disp);

  // --- Array elements: [Base + Index*Bytes + Disp32] ---------------------
  // Bytes (1, 2, 4 or 8) is both the access width and the index scale.
  // Loads zero-extend: movzx for bytes and words, a 32-bit mov for dwords.
  void loadIndexed(unsigned Bytes, uint32_t Dst, uint32_t Base,
                   uint32_t Index, int32_t Disp);
  void storeIndexed(unsigned Bytes, uint32_t Base, uint32_t Index,
                    int32_t Disp, uint32_t Src);

  // --- Stack / frame -----------------------------------------------------
  void pushR(uint32_t Reg);
  void popR(uint32_t Reg);
  void subRspImm32(int32_t Imm);

  // --- Scalar double through xmm0/xmm1 ----------------------------------
  void movqXmmR(uint32_t Xmm, uint32_t Reg); ///< movq xmmN, r64
  void movqRXmm(uint32_t Reg, uint32_t Xmm); ///< movq r64, xmmN
  void addsd01();                            ///< addsd xmm0, xmm1
  void subsd01();
  void mulsd01();
  void divsd01();
  void xorpd(uint32_t XmmDst, uint32_t XmmSrc);
  void cvtsi2sd0(uint32_t Src); ///< cvtsi2sd xmm0, r64
  void ucomisd(uint32_t XmmA, uint32_t XmmB);   ///< flags = compare(A, B)
  void cvttsd2si32(uint32_t Dst, uint32_t Xmm); ///< cvttsd2si r32, xmmN

  // --- Control flow ------------------------------------------------------
  void callR(uint32_t Reg);
  void ret();
  void ud2();
  /// Emits `jcc rel32` with a zero displacement; returns the offset of the
  /// rel32 field for patchRel32.
  size_t jccRel32(X86Cond Cond);
  /// Emits `jmp rel32` with a zero displacement; returns the rel32 offset.
  size_t jmpRel32();
  /// Patches the rel32 at \p FixupOffset to land on \p TargetOffset.
  void patchRel32(size_t FixupOffset, size_t TargetOffset);

private:
  void byte(uint8_t B) { Code.push_back(B); }
  void imm32(int32_t V);
  void imm64(uint64_t V);
  /// REX prefix; emitted when any bit is set or \p Force is (a byte
  /// operand in spl..dil needs a bare REX to be told from ah..bh).
  void rex(bool W, uint32_t Reg, uint32_t Rm, uint32_t Index = 0,
           bool Force = false);
  void modRR(uint32_t Reg, uint32_t Rm);
  void modRM(uint32_t Reg, uint32_t Base, int32_t Disp);
  /// ModRM + SIB + disp32 for [Base + Index*Scale + Disp].
  void modSib(uint32_t Reg, uint32_t Base, uint32_t Index, unsigned Scale,
              int32_t Disp);
  void aluRR(uint8_t Opcode, bool W64, uint32_t Dst, uint32_t Src);
  void grp3(uint8_t Ext, bool W64, uint32_t Reg);
  void shiftCl(uint8_t Ext, bool W64, uint32_t Reg);

  std::vector<uint8_t> Code;
};

} // namespace sxe

#endif // SXE_CODEGEN_X86ENCODER_H
