#include "isa/disasm.h"

#include <string>

namespace paradet::isa {
namespace {

// The helpers build their text by appending: GCC 12 at -O3 raises a false
// -Wrestrict on `"literal" + std::to_string(...)`.
std::string reg(RegIndex r, bool fp) {
  std::string text = fp ? "f" : "x";
  text += std::to_string(static_cast<unsigned>(r));
  return text;
}

/// PC-relative offset as ".+N" / ".-N". The magnitude is negated in
/// unsigned arithmetic, where it is defined for INT64_MIN too.
std::string rel(std::int64_t imm) {
  const auto bits = static_cast<std::uint64_t>(imm);
  std::string text = imm >= 0 ? ".+" : ".-";
  text += std::to_string(imm >= 0 ? bits : 0 - bits);
  return text;
}

}  // namespace

std::string disassemble(const Inst& inst) {
  const Opcode op = inst.op;
  const std::string name{mnemonic(op)};
  const bool fp_rd = writes_fp_reg(op) || store_data_is_fp(op);
  switch (format_of(op)) {
    case Format::kR:
      return name + " " + reg(inst.rd, fp_rd) + ", " +
             reg(inst.rs1, reads_fp_rs1(op)) + ", " +
             reg(inst.rs2, reads_fp_rs2(op));
    case Format::kR1:
      return name + " " + reg(inst.rd, fp_rd) + ", " +
             reg(inst.rs1, reads_fp_rs1(op));
    case Format::kR4:
      return name + " " + reg(inst.rd, fp_rd) + ", " + reg(inst.rs1, true) +
             ", " + reg(inst.rs2, true) + ", " + reg(inst.rs3, true);
    case Format::kI:
      if (is_load(op)) {
        return name + " " + reg(inst.rd, fp_rd) + ", " +
               std::to_string(inst.imm) + "(" + reg(inst.rs1, false) + ")";
      }
      if (op == Opcode::kJalr) {
        return name + " " + reg(inst.rd, false) + ", " +
               reg(inst.rs1, false) + ", " + std::to_string(inst.imm);
      }
      return name + " " + reg(inst.rd, false) + ", " + reg(inst.rs1, false) +
             ", " + std::to_string(inst.imm);
    case Format::kS:
      return name + " " + reg(inst.rd, fp_rd) + ", " +
             std::to_string(inst.imm) + "(" + reg(inst.rs1, false) + ")";
    case Format::kB:
      return name + " " + reg(inst.rs1, false) + ", " + reg(inst.rs2, false) +
             ", " + rel(inst.imm);
    case Format::kJ:
      return name + " " + reg(inst.rd, false) + ", " + rel(inst.imm);
    case Format::kU:
      return name + " " + reg(inst.rd, false) + ", " +
             std::to_string(inst.imm);
    case Format::kSys:
      if (op == Opcode::kRdcycle) return name + " " + reg(inst.rd, false);
      return name;
  }
  return name;
}

}  // namespace paradet::isa
