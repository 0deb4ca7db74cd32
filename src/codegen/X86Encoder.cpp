//===- codegen/X86Encoder.cpp - x86-64 instruction encoder -------------------===//

#include "codegen/X86Encoder.h"

#include "support/Error.h"

#include <cstring>

using namespace sxe;

X86Cond sxe::condForPred(CmpPred Pred) {
  switch (Pred) {
  case CmpPred::EQ:
    return X86Cond::E;
  case CmpPred::NE:
    return X86Cond::NE;
  case CmpPred::SLT:
    return X86Cond::L;
  case CmpPred::SLE:
    return X86Cond::LE;
  case CmpPred::SGT:
    return X86Cond::G;
  case CmpPred::SGE:
    return X86Cond::GE;
  case CmpPred::ULT:
    return X86Cond::B;
  case CmpPred::ULE:
    return X86Cond::BE;
  case CmpPred::UGT:
    return X86Cond::A;
  case CmpPred::UGE:
    return X86Cond::AE;
  }
  sxeUnreachable("invalid CmpPred enumerator");
}

void X86Assembler::imm32(int32_t V) {
  uint32_t U = static_cast<uint32_t>(V);
  byte(U & 0xFF);
  byte((U >> 8) & 0xFF);
  byte((U >> 16) & 0xFF);
  byte((U >> 24) & 0xFF);
}

void X86Assembler::imm64(uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    byte((V >> Shift) & 0xFF);
}

namespace {

/// Byte registers 4-7 mean spl..dil only under a REX prefix.
bool needsRexAsByte(uint32_t Reg) { return Reg >= 4 && Reg < 8; }

} // namespace

void X86Assembler::rex(bool W, uint32_t Reg, uint32_t Rm, uint32_t Index,
                       bool Force) {
  uint8_t Rex = 0x40;
  if (W)
    Rex |= 0x08;
  if (Reg >= 8)
    Rex |= 0x04;
  if (Index >= 8)
    Rex |= 0x02;
  if (Rm >= 8)
    Rex |= 0x01;
  if (Rex != 0x40 || Force)
    byte(Rex);
}

void X86Assembler::modRR(uint32_t Reg, uint32_t Rm) {
  byte(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
}

void X86Assembler::modRM(uint32_t Reg, uint32_t Base, int32_t Disp) {
  // mod=10 (disp32) keeps every base encodable, including RBP/R13.
  byte(0x80 | ((Reg & 7) << 3) | (Base & 7));
  if ((Base & 7) == 4) // RSP/R12 demand a SIB byte.
    byte(0x24);
  imm32(Disp);
}

void X86Assembler::modSib(uint32_t Reg, uint32_t Base, uint32_t Index,
                          unsigned Scale, int32_t Disp) {
  if (Index == 4) // Index field 100 without REX.X means "no index".
    reportFatalError("codegen: rsp cannot be an index register");
  uint8_t ScaleBits = Scale == 1 ? 0 : Scale == 2 ? 1 : Scale == 4 ? 2 : 3;
  // mod=10 (disp32), rm=100 (a SIB byte follows).
  byte(0x80 | ((Reg & 7) << 3) | 4);
  byte((ScaleBits << 6) | ((Index & 7) << 3) | (Base & 7));
  imm32(Disp);
}

void X86Assembler::movRR64(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x8B);
  modRR(Dst, Src);
}

void X86Assembler::movRR32(uint32_t Dst, uint32_t Src) {
  rex(false, Dst, Src);
  byte(0x8B);
  modRR(Dst, Src);
}

void X86Assembler::movImm64(uint32_t Dst, uint64_t Imm) {
  rex(true, 0, Dst);
  byte(0xB8 | (Dst & 7));
  imm64(Imm);
}

void X86Assembler::movImm32(uint32_t Dst, uint32_t Imm) {
  rex(false, 0, Dst);
  byte(0xB8 | (Dst & 7));
  imm32(static_cast<int32_t>(Imm));
}

void X86Assembler::aluRR(uint8_t Opcode, bool W64, uint32_t Dst,
                         uint32_t Src) {
  // MR form: reg field is the source, rm the read-modify-written dest.
  rex(W64, Src, Dst);
  byte(Opcode);
  modRR(Src, Dst);
}

void X86Assembler::addRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x01, W64, Dst, Src);
}
void X86Assembler::subRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x29, W64, Dst, Src);
}
void X86Assembler::andRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x21, W64, Dst, Src);
}
void X86Assembler::orRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x09, W64, Dst, Src);
}
void X86Assembler::xorRR(bool W64, uint32_t Dst, uint32_t Src) {
  aluRR(0x31, W64, Dst, Src);
}
void X86Assembler::cmpRR(bool W64, uint32_t A, uint32_t B) {
  aluRR(0x39, W64, A, B); // flags = A - B (rm - reg)
}

void X86Assembler::cmpRImm8(bool W64, uint32_t A, int8_t Imm) {
  rex(W64, 0, A);
  byte(0x83);
  modRR(7, A);
  byte(static_cast<uint8_t>(Imm));
}

void X86Assembler::cmpRImm32(bool W64, uint32_t A, int32_t Imm) {
  rex(W64, 0, A);
  byte(0x81);
  modRR(7, A);
  imm32(Imm);
}

void X86Assembler::andRR8(uint32_t Dst, uint32_t Src) {
  rex(false, Src, Dst, 0, needsRexAsByte(Src) || needsRexAsByte(Dst));
  byte(0x20);
  modRR(Src, Dst);
}

void X86Assembler::orRR8(uint32_t Dst, uint32_t Src) {
  rex(false, Src, Dst, 0, needsRexAsByte(Src) || needsRexAsByte(Dst));
  byte(0x08);
  modRR(Src, Dst);
}

void X86Assembler::imulRR(bool W64, uint32_t Dst, uint32_t Src) {
  // RM form: reg field is the destination.
  rex(W64, Dst, Src);
  byte(0x0F);
  byte(0xAF);
  modRR(Dst, Src);
}

void X86Assembler::grp3(uint8_t Ext, bool W64, uint32_t Reg) {
  rex(W64, 0, Reg);
  byte(0xF7);
  modRR(Ext, Reg);
}

void X86Assembler::negR(bool W64, uint32_t Reg) { grp3(3, W64, Reg); }
void X86Assembler::notR(bool W64, uint32_t Reg) { grp3(2, W64, Reg); }
void X86Assembler::idivR(bool W64, uint32_t Divisor) {
  grp3(7, W64, Divisor);
}

void X86Assembler::cdq() { byte(0x99); }

void X86Assembler::cqo() {
  byte(0x48);
  byte(0x99);
}

void X86Assembler::shiftCl(uint8_t Ext, bool W64, uint32_t Reg) {
  rex(W64, 0, Reg);
  byte(0xD3);
  modRR(Ext, Reg);
}

void X86Assembler::shlCl(bool W64, uint32_t Reg) { shiftCl(4, W64, Reg); }
void X86Assembler::shrCl(bool W64, uint32_t Reg) { shiftCl(5, W64, Reg); }
void X86Assembler::sarCl(bool W64, uint32_t Reg) { shiftCl(7, W64, Reg); }

void X86Assembler::movsx8(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xBE);
  modRR(Dst, Src);
}

void X86Assembler::movsx16(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xBF);
  modRR(Dst, Src);
}

void X86Assembler::movsxd(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x63);
  modRR(Dst, Src);
}

void X86Assembler::movzx8(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xB6);
  modRR(Dst, Src);
}

void X86Assembler::movzx16(uint32_t Dst, uint32_t Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xB7);
  modRR(Dst, Src);
}

void X86Assembler::testRR(bool W64, uint32_t A, uint32_t B) {
  rex(W64, B, A);
  byte(0x85);
  modRR(B, A);
}

void X86Assembler::setcc(X86Cond Cond, uint32_t Reg) {
  rex(false, 0, Reg, 0, needsRexAsByte(Reg));
  byte(0x0F);
  byte(0x90 | static_cast<uint8_t>(Cond));
  modRR(0, Reg);
}

void X86Assembler::movzxCl32(uint32_t Dst) {
  rex(false, Dst, 1);
  byte(0x0F);
  byte(0xB6);
  modRR(Dst, 1); // source is cl (RCX = 1)
}

void X86Assembler::movRM64(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8B);
  modRM(Dst, Base, Disp);
}

void X86Assembler::movMR64(uint32_t Base, int32_t Disp, uint32_t Src) {
  rex(true, Src, Base);
  byte(0x89);
  modRM(Src, Base, Disp);
}

void X86Assembler::movRM32(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(false, Dst, Base);
  byte(0x8B);
  modRM(Dst, Base, Disp);
}

void X86Assembler::cmpM32R(uint32_t Base, int32_t Disp, uint32_t Src) {
  rex(false, Src, Base);
  byte(0x39);
  modRM(Src, Base, Disp);
}

void X86Assembler::cmpRM32(uint32_t Reg, uint32_t Base, int32_t Disp) {
  rex(false, Reg, Base);
  byte(0x3B);
  modRM(Reg, Base, Disp);
}

void X86Assembler::loadIndexed(unsigned Bytes, uint32_t Dst, uint32_t Base,
                               uint32_t Index, int32_t Disp) {
  rex(Bytes == 8, Dst, Base, Index);
  if (Bytes == 1 || Bytes == 2) {
    byte(0x0F);
    byte(Bytes == 1 ? 0xB6 : 0xB7); // movzx r32, r/m8 | r/m16
  } else {
    byte(0x8B); // mov r32 | r64, r/m
  }
  modSib(Dst, Base, Index, Bytes, Disp);
}

void X86Assembler::storeIndexed(unsigned Bytes, uint32_t Base,
                                uint32_t Index, int32_t Disp, uint32_t Src) {
  if (Bytes == 2)
    byte(0x66); // operand-size prefix precedes REX
  rex(Bytes == 8, Src, Base, Index, Bytes == 1 && needsRexAsByte(Src));
  byte(Bytes == 1 ? 0x88 : 0x89); // mov r/m8, r8 | mov r/m, r
  modSib(Src, Base, Index, Bytes, Disp);
}

void X86Assembler::incM32(uint32_t Base, int32_t Disp) {
  rex(false, 0, Base);
  byte(0xFF);
  modRM(0, Base, Disp);
}

void X86Assembler::decM32(uint32_t Base, int32_t Disp) {
  rex(false, 1, Base);
  byte(0xFF);
  modRM(1, Base, Disp);
}

void X86Assembler::subM64Imm32(uint32_t Base, int32_t Disp, int32_t Imm) {
  rex(true, 5, Base);
  byte(0x81);
  modRM(5, Base, Disp);
  imm32(Imm);
}

void X86Assembler::leaRM(uint32_t Dst, uint32_t Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8D);
  modRM(Dst, Base, Disp);
}

void X86Assembler::pushR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0x50 | (Reg & 7));
}

void X86Assembler::popR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0x58 | (Reg & 7));
}

void X86Assembler::subRspImm32(int32_t Imm) {
  byte(0x48);
  byte(0x81);
  byte(0xEC);
  imm32(Imm);
}

void X86Assembler::movqXmmR(uint32_t Xmm, uint32_t Reg) {
  byte(0x66);
  rex(true, Xmm, Reg);
  byte(0x0F);
  byte(0x6E);
  modRR(Xmm, Reg);
}

void X86Assembler::movqRXmm(uint32_t Reg, uint32_t Xmm) {
  byte(0x66);
  rex(true, Xmm, Reg);
  byte(0x0F);
  byte(0x7E);
  modRR(Xmm, Reg);
}

void X86Assembler::addsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x58);
  modRR(0, 1);
}

void X86Assembler::subsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x5C);
  modRR(0, 1);
}

void X86Assembler::mulsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x59);
  modRR(0, 1);
}

void X86Assembler::divsd01() {
  byte(0xF2);
  byte(0x0F);
  byte(0x5E);
  modRR(0, 1);
}

void X86Assembler::xorpd(uint32_t XmmDst, uint32_t XmmSrc) {
  byte(0x66);
  rex(false, XmmDst, XmmSrc);
  byte(0x0F);
  byte(0x57);
  modRR(XmmDst, XmmSrc);
}

void X86Assembler::ucomisd(uint32_t XmmA, uint32_t XmmB) {
  byte(0x66);
  rex(false, XmmA, XmmB);
  byte(0x0F);
  byte(0x2E);
  modRR(XmmA, XmmB);
}

void X86Assembler::cvttsd2si32(uint32_t Dst, uint32_t Xmm) {
  byte(0xF2);
  rex(false, Dst, Xmm);
  byte(0x0F);
  byte(0x2C);
  modRR(Dst, Xmm);
}

void X86Assembler::cvtsi2sd0(uint32_t Src) {
  byte(0xF2);
  rex(true, 0, Src);
  byte(0x0F);
  byte(0x2A);
  modRR(0, Src);
}

void X86Assembler::callR(uint32_t Reg) {
  if (Reg >= 8)
    byte(0x41);
  byte(0xFF);
  modRR(2, Reg);
}

void X86Assembler::ret() { byte(0xC3); }

void X86Assembler::ud2() {
  byte(0x0F);
  byte(0x0B);
}

size_t X86Assembler::jccRel32(X86Cond Cond) {
  byte(0x0F);
  byte(0x80 | static_cast<uint8_t>(Cond));
  size_t Fixup = Code.size();
  imm32(0);
  return Fixup;
}

size_t X86Assembler::jmpRel32() {
  byte(0xE9);
  size_t Fixup = Code.size();
  imm32(0);
  return Fixup;
}

void X86Assembler::patchRel32(size_t FixupOffset, size_t TargetOffset) {
  int64_t Rel = static_cast<int64_t>(TargetOffset) -
                (static_cast<int64_t>(FixupOffset) + 4);
  if (Rel < INT32_MIN || Rel > INT32_MAX)
    reportFatalError("codegen: branch displacement overflows rel32");
  int32_t Rel32 = static_cast<int32_t>(Rel);
  std::memcpy(Code.data() + FixupOffset, &Rel32, sizeof(Rel32));
}
