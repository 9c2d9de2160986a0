#include "isa/disasm.hh"

#include <cstdio>
#include <sstream>

namespace imo::isa
{

namespace
{

std::string
regName(std::uint8_t reg)
{
    char buf[8];
    if (isFpRegId(reg))
        std::snprintf(buf, sizeof(buf), "f%u", reg - numIntRegs);
    else
        std::snprintf(buf, sizeof(buf), "r%u", reg);
    return buf;
}

} // anonymous namespace

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    const OpInfo &info = opInfo(inst.op);
    os << info.name;

    const Operands ops = operandsOf(info.form);
    for (std::uint8_t i = 0; i < ops.count; ++i) {
        os << (i ? ", " : " ");
        switch (ops.at[i]) {
          case Operand::Rd: case Operand::Fd:
            os << regName(inst.rd);
            break;
          case Operand::Rs1: case Operand::Fs1:
            os << regName(inst.rs1);
            break;
          case Operand::Rs2: case Operand::Fs2:
            os << regName(inst.rs2);
            break;
          case Operand::Imm:
            os << inst.imm;
            break;
          case Operand::Mem:
            os << inst.imm << "(" << regName(inst.rs1) << ")";
            break;
          case Operand::MharTarget:
            if (inst.imm == 0) {
                os << "off";
                break;
            }
            [[fallthrough]];
          case Operand::Target:
            os << "@" << inst.imm;
            break;
          case Operand::PcRel:
            os << "pc" << (inst.imm >= 0 ? "+" : "") << inst.imm;
            break;
        }
    }

    if (isDataRef(inst.op) && !inst.informing)
        os << " !informing";
    return os.str();
}

std::string
disassemble(const Program &prog)
{
    std::ostringstream os;
    for (InstAddr pc = 0; pc < prog.size(); ++pc) {
        char addr[16];
        std::snprintf(addr, sizeof(addr), "%5u: ", pc);
        os << addr << disassemble(prog.inst(pc)) << "\n";
    }
    return os.str();
}

} // namespace imo::isa
