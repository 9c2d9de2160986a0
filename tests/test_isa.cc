/**
 * @file
 * Unit tests for the MRISC ISA: op classification, register usage,
 * the program builder, validation, and disassembly.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/instruction.hh"
#include "isa/op.hh"
#include "isa/program.hh"

namespace
{

using namespace imo::isa;

TEST(Op, ClassesAreConsistent)
{
    EXPECT_EQ(opClass(Op::ADD), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::MUL), OpClass::IntMul);
    EXPECT_EQ(opClass(Op::DIV), OpClass::IntDiv);
    EXPECT_EQ(opClass(Op::FADD), OpClass::FpAlu);
    EXPECT_EQ(opClass(Op::FDIV), OpClass::FpDiv);
    EXPECT_EQ(opClass(Op::FSQRT), OpClass::FpSqrt);
    EXPECT_EQ(opClass(Op::LD), OpClass::Load);
    EXPECT_EQ(opClass(Op::FST), OpClass::Store);
    EXPECT_EQ(opClass(Op::PREFETCH), OpClass::Prefetch);
    EXPECT_EQ(opClass(Op::BEQ), OpClass::Branch);
    EXPECT_EQ(opClass(Op::BRMISS), OpClass::Branch);
    EXPECT_EQ(opClass(Op::J), OpClass::Jump);
    EXPECT_EQ(opClass(Op::RETMH), OpClass::Jump);
    EXPECT_EQ(opClass(Op::SETMHAR), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::NOP), OpClass::Nop);
}

TEST(Op, DataRefPredicates)
{
    for (Op op : {Op::LD, Op::ST, Op::FLD, Op::FST})
        EXPECT_TRUE(isDataRef(op));
    EXPECT_FALSE(isDataRef(Op::PREFETCH));
    EXPECT_FALSE(isDataRef(Op::ADD));
    EXPECT_TRUE(isLoad(Op::LD));
    EXPECT_TRUE(isLoad(Op::FLD));
    EXPECT_FALSE(isLoad(Op::ST));
    EXPECT_TRUE(isStore(Op::FST));
    EXPECT_FALSE(isStore(Op::FLD));
}

TEST(Op, ControlPredicates)
{
    EXPECT_TRUE(isControl(Op::BEQ));
    EXPECT_TRUE(isControl(Op::J));
    EXPECT_TRUE(isControl(Op::RETMH));
    EXPECT_TRUE(isControl(Op::BRMISS));
    EXPECT_FALSE(isControl(Op::LD));
    EXPECT_TRUE(isCondBranch(Op::BNE));
    EXPECT_FALSE(isCondBranch(Op::J));
}

TEST(Op, EveryOpHasAName)
{
    for (int i = 0; i < static_cast<int>(Op::NumOps); ++i) {
        const char *name = opName(static_cast<Op>(i));
        EXPECT_STRNE(name, "?") << "op " << i;
    }
}

/**
 * The shape of every op, written out once more by hand: its name,
 * class, which of rd/rs1/rs2 it uses and in which register file
 * ('r' integer, 'f' floating point, '-' unused), and whether imm is a
 * control target.
 */
struct OpExpect
{
    Op op;
    const char *name;
    OpClass cls;
    const char *regs;  //!< rd, rs1, rs2
    bool immTarget;
};

constexpr OpExpect opExpects[] = {
    {Op::ADD, "add", OpClass::IntAlu, "rrr", false},
    {Op::ADDI, "addi", OpClass::IntAlu, "rr-", false},
    {Op::SUB, "sub", OpClass::IntAlu, "rrr", false},
    {Op::MUL, "mul", OpClass::IntMul, "rrr", false},
    {Op::DIV, "div", OpClass::IntDiv, "rrr", false},
    {Op::AND, "and", OpClass::IntAlu, "rrr", false},
    {Op::ANDI, "andi", OpClass::IntAlu, "rr-", false},
    {Op::OR, "or", OpClass::IntAlu, "rrr", false},
    {Op::XOR, "xor", OpClass::IntAlu, "rrr", false},
    {Op::SLL, "sll", OpClass::IntAlu, "rr-", false},
    {Op::SRL, "srl", OpClass::IntAlu, "rr-", false},
    {Op::SLT, "slt", OpClass::IntAlu, "rrr", false},
    {Op::SLTI, "slti", OpClass::IntAlu, "rr-", false},
    {Op::LI, "li", OpClass::IntAlu, "r--", false},
    {Op::FADD, "fadd", OpClass::FpAlu, "fff", false},
    {Op::FSUB, "fsub", OpClass::FpAlu, "fff", false},
    {Op::FMUL, "fmul", OpClass::FpAlu, "fff", false},
    {Op::FDIV, "fdiv", OpClass::FpDiv, "fff", false},
    {Op::FSQRT, "fsqrt", OpClass::FpSqrt, "ff-", false},
    {Op::FMOV, "fmov", OpClass::FpAlu, "ff-", false},
    {Op::CVTIF, "cvtif", OpClass::FpAlu, "fr-", false},
    {Op::CVTFI, "cvtfi", OpClass::IntAlu, "rf-", false},
    {Op::LD, "ld", OpClass::Load, "rr-", false},
    {Op::ST, "st", OpClass::Store, "-rr", false},
    {Op::FLD, "fld", OpClass::Load, "fr-", false},
    {Op::FST, "fst", OpClass::Store, "-rf", false},
    {Op::PREFETCH, "prefetch", OpClass::Prefetch, "-r-", false},
    {Op::BEQ, "beq", OpClass::Branch, "-rr", true},
    {Op::BNE, "bne", OpClass::Branch, "-rr", true},
    {Op::BLT, "blt", OpClass::Branch, "-rr", true},
    {Op::BGE, "bge", OpClass::Branch, "-rr", true},
    {Op::J, "j", OpClass::Jump, "---", true},
    {Op::JAL, "jal", OpClass::Jump, "r--", true},
    {Op::JR, "jr", OpClass::Jump, "-r-", false},
    {Op::SETMHAR, "setmhar", OpClass::IntAlu, "---", true},
    {Op::SETMHARR, "setmharr", OpClass::IntAlu, "-r-", false},
    {Op::GETMHRR, "getmhrr", OpClass::IntAlu, "r--", false},
    {Op::SETMHRR, "setmhrr", OpClass::IntAlu, "-r-", false},
    {Op::RETMH, "retmh", OpClass::Jump, "---", false},
    {Op::BRMISS, "brmiss", OpClass::Branch, "---", true},
    {Op::BRMISS2, "brmiss2", OpClass::Branch, "---", true},
    {Op::SETMHARPC, "setmharpc", OpClass::IntAlu, "---", false},
    {Op::SETMHLVL, "setmhlvl", OpClass::IntAlu, "---", false},
    {Op::NOP, "nop", OpClass::Nop, "---", false},
    {Op::HALT, "halt", OpClass::Nop, "---", false},
};

/** Register number @p n in the file named by @p kind ('f' or else). */
std::uint8_t
regIn(char kind, std::uint8_t n)
{
    return kind == 'f' ? fpReg(n) : intReg(n);
}

/** @return why a {@p in, halt} program fails validation ("" if valid). */
std::string
whyInvalid(const Instruction &in)
{
    Program p("shape");
    p.insts() = {in, Instruction{.op = Op::HALT}};
    if (isDataRef(in.op)) {
        p.insts()[0].staticRefId = 0;
        p.setNumStaticRefs(1);
    }
    std::string why;
    return p.validate(&why) ? "" : why;
}

TEST(Op, EveryOpShapeMatchesItsExpectation)
{
    ASSERT_EQ(std::size(opExpects), static_cast<std::size_t>(Op::NumOps));
    for (std::size_t i = 0; i < std::size(opExpects); ++i) {
        const OpExpect &e = opExpects[i];
        ASSERT_EQ(static_cast<std::size_t>(e.op), i) << e.name;
        SCOPED_TRACE(e.name);
        EXPECT_STREQ(opName(e.op), e.name);
        EXPECT_EQ(opClass(e.op), e.cls);

        const char rd = e.regs[0], rs1 = e.regs[1], rs2 = e.regs[2];
        // Used slots get registers of their file; unused slots hold
        // nonzero integer registers that nothing may report.
        Instruction in{.op = e.op,
                       .rd = regIn(rd, 3),
                       .rs1 = regIn(rs1, 5),
                       .rs2 = regIn(rs2, 7),
                       .imm = 1};
        if (rd == '-') in.rd = intReg(9);
        if (rs1 == '-') in.rs1 = intReg(10);
        if (rs2 == '-') in.rs2 = intReg(11);

        std::vector<std::uint8_t> want_src;
        if (rs1 != '-') want_src.push_back(in.rs1);
        if (rs2 != '-') want_src.push_back(in.rs2);
        const SrcRegs s = srcRegs(in);
        EXPECT_EQ(std::vector<std::uint8_t>(s.reg.begin(),
                                            s.reg.begin() + s.count),
                  want_src);
        EXPECT_EQ(dstReg(in), rd == '-' ? -1 : int{in.rd});
        EXPECT_EQ(readsFpSources(e.op), rs1 == 'f' || rs2 == 'f');
        EXPECT_EQ(writesFp(e.op), rd == 'f');

        // imm = 1 is valid for every op (the halt, trap level 1, pc+1).
        EXPECT_EQ(whyInvalid(in), "");

        // Each used slot is checked against its file.
        for (const auto &[kind, slot, role] :
             {std::tuple{rd, &Instruction::rd, "rd"},
              std::tuple{rs1, &Instruction::rs1, "rs1"},
              std::tuple{rs2, &Instruction::rs2, "rs2"}}) {
            if (kind == '-')
                continue;
            Instruction bad = in;
            bad.*slot = regIn(kind == 'f' ? 'r' : 'f', 4);
            EXPECT_EQ(whyInvalid(bad),
                      std::string("pc 0: ") + role +
                          " register in wrong file");
        }

        // Only a control target is range-checked as an address.
        Instruction far = in;
        far.imm = 1000;
        EXPECT_EQ(whyInvalid(far).find("control target out of range") !=
                      std::string::npos,
                  e.immTarget);
    }
    EXPECT_STREQ(opName(Op::NumOps), "?");
    EXPECT_STREQ(opName(static_cast<Op>(200)), "?");
    EXPECT_EQ(whyInvalid(Instruction{.op = Op::NumOps}),
              "pc 0: bad opcode");
}

TEST(Instruction, SrcRegsThreeOperand)
{
    Instruction in{.op = Op::ADD, .rd = 3, .rs1 = 1, .rs2 = 2};
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 2);
    EXPECT_EQ(s.reg[0], 1);
    EXPECT_EQ(s.reg[1], 2);
    EXPECT_EQ(dstReg(in), 3);
}

TEST(Instruction, ZeroRegisterCarriesNoDependence)
{
    Instruction in{.op = Op::ADD, .rd = 0, .rs1 = 0, .rs2 = 2};
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 1);
    EXPECT_EQ(s.reg[0], 2);
    EXPECT_EQ(dstReg(in), -1);  // writes to r0 are discarded
}

TEST(Instruction, StoreHasNoDest)
{
    Instruction in{.op = Op::ST, .rs1 = 4, .rs2 = 5};
    EXPECT_EQ(dstReg(in), -1);
    const SrcRegs s = srcRegs(in);
    EXPECT_EQ(s.count, 2);
}

TEST(Instruction, FpRegisterHelpers)
{
    EXPECT_EQ(fpReg(0), 32);
    EXPECT_EQ(fpReg(31), 63);
    EXPECT_TRUE(isFpRegId(fpReg(5)));
    EXPECT_FALSE(isFpRegId(intReg(5)));
}

TEST(Instruction, FldMixesFiles)
{
    Instruction in{.op = Op::FLD, .rd = fpReg(1), .rs1 = intReg(2)};
    EXPECT_EQ(dstReg(in), fpReg(1));
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 1);
    EXPECT_EQ(s.reg[0], intReg(2));
}

TEST(Builder, ForwardLabelPatched)
{
    ProgramBuilder b("t");
    Label skip = b.newLabel();
    b.li(intReg(1), 5);
    b.beq(intReg(1), intReg(0), skip);
    b.li(intReg(2), 7);
    b.bind(skip);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(1).imm, 3);
}

TEST(Builder, BackwardLabelPatched)
{
    ProgramBuilder b("t");
    Label top = b.newLabel();
    b.li(intReg(1), 3);
    b.bind(top);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), intReg(0), top);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(2).imm, 1);
}

TEST(Builder, DataAllocationAlignsAndAdvances)
{
    ProgramBuilder b("t");
    const auto a1 = b.allocData(3, 64);
    const auto a2 = b.allocData(1, 64);
    EXPECT_EQ(a1 % 64, 0u);
    EXPECT_EQ(a2 % 64, 0u);
    EXPECT_GE(a2, a1 + 3 * 8);
}

TEST(Builder, StaticRefIdsAreDense)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 0x20000);
    b.ld(intReg(2), intReg(1), 0);
    b.st(intReg(2), intReg(1), 8);
    b.fld(fpReg(0), intReg(1), 16);
    b.prefetch(intReg(1), 24);  // prefetch gets no ref id
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.numStaticRefs(), 3u);
    EXPECT_EQ(p.inst(1).staticRefId, 0u);
    EXPECT_EQ(p.inst(2).staticRefId, 1u);
    EXPECT_EQ(p.inst(3).staticRefId, 2u);
}

TEST(Builder, SetmharDisableIsZero)
{
    ProgramBuilder b("t");
    b.setmharDisable();
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(0).op, Op::SETMHAR);
    EXPECT_EQ(p.inst(0).imm, 0);
}

TEST(Validate, MissingHaltRejected)
{
    Program p("t");
    p.insts().push_back({.op = Op::NOP});
    std::string why;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("HALT"), std::string::npos);
}

TEST(Validate, WrongRegisterFileRejected)
{
    Program p("t");
    // FADD with integer register operands.
    p.insts().push_back({.op = Op::FADD, .rd = fpReg(0), .rs1 = intReg(1),
                         .rs2 = fpReg(1)});
    p.insts().push_back({.op = Op::HALT});
    EXPECT_FALSE(p.validate());
}

TEST(Validate, BranchTargetOutOfRangeRejected)
{
    Program p("t");
    p.insts().push_back({.op = Op::J, .imm = 99});
    p.insts().push_back({.op = Op::HALT});
    EXPECT_FALSE(p.validate());
}

TEST(Validate, GoodProgramAccepted)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 1);
    b.halt();
    Program p = b.finish();
    std::string why;
    EXPECT_TRUE(p.validate(&why)) << why;
}

TEST(Disasm, RendersCommonOps)
{
    Instruction add{.op = Op::ADD, .rd = 1, .rs1 = 2, .rs2 = 3};
    EXPECT_EQ(disassemble(add), "add r1, r2, r3");

    Instruction ld{.op = Op::LD, .rd = 4, .rs1 = 5, .imm = 16};
    EXPECT_EQ(disassemble(ld), "ld r4, 16(r5)");

    Instruction fadd{.op = Op::FADD, .rd = fpReg(1), .rs1 = fpReg(2),
                     .rs2 = fpReg(3)};
    EXPECT_EQ(disassemble(fadd), "fadd f1, f2, f3");

    Instruction br{.op = Op::BRMISS, .imm = 12};
    EXPECT_EQ(disassemble(br), "brmiss @12");

    Instruction off{.op = Op::SETMHAR, .imm = 0};
    EXPECT_EQ(disassemble(off), "setmhar off");
}

TEST(Disasm, MarksNonInformingRefs)
{
    Instruction ld{.op = Op::LD, .rd = 1, .rs1 = 2, .imm = 0,
                   .informing = false};
    EXPECT_NE(disassemble(ld).find("!informing"), std::string::npos);
}

TEST(Disasm, WholeProgramHasOneLinePerInst)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 1);
    b.nop();
    b.halt();
    Program p = b.finish();
    const std::string text = disassemble(p);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

} // namespace
