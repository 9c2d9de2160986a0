/**
 * @file
 * Tests for the MRISC text assembler: parsing, diagnostics, symbols,
 * and the formatAssembly round-trip property (every program the
 * library can build re-assembles to an identical program).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/informing.hh"
#include "func/executor.hh"
#include "isa/asm.hh"
#include "isa/builder.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;
using namespace imo::isa;

TEST(Asm, MinimalProgram)
{
    const auto r = assemble("halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.size(), 1u);
    EXPECT_EQ(r.program.inst(0).op, Op::HALT);
}

TEST(Asm, CommentsAndBlankLines)
{
    const auto r = assemble(
        "; leading comment\n"
        "\n"
        "    li r1, 5   # trailing comment\n"
        "    halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.size(), 2u);
    EXPECT_EQ(r.program.inst(0).imm, 5);
}

TEST(Asm, LabelsForwardAndBackward)
{
    const auto r = assemble(
        "    li r1, 3\n"
        "top:\n"
        "    addi r1, r1, -1\n"
        "    bne r1, r0, top\n"
        "    j done\n"
        "    nop\n"
        "done:\n"
        "    halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.inst(2).imm, 1);   // backward to top
    EXPECT_EQ(r.program.inst(3).imm, 5);   // forward to done
}

TEST(Asm, DataDirectivesAndSymbols)
{
    const auto r = assemble(
        ".name demo\n"
        ".alloc buf 4 64\n"
        ".init buf 10 0x20 30\n"
        "    li r1, buf\n"
        "    ld r2, 8(r1)\n"
        "    halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.name(), "demo");
    ASSERT_EQ(r.program.data().size(), 1u);
    EXPECT_EQ(r.program.data()[0].words[1], 0x20u);

    func::Executor e(r.program,
                     {.l1 = {.sizeBytes = 1024, .lineBytes = 32,
                             .assoc = 1},
                      .l2 = {.sizeBytes = 8192, .lineBytes = 32,
                             .assoc = 2}});
    e.run();
    EXPECT_EQ(e.state().ireg[2], 0x20u);
}

TEST(Asm, MemoryOperandForms)
{
    const auto r = assemble(
        "    ld r2, 16(r1)\n"
        "    st r2, -8(r3)\n"
        "    fld f1, 0(r1)\n"
        "    fst f1, 8(r1)\n"
        "    prefetch 32(r1)\n"
        "    halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.inst(0).imm, 16);
    EXPECT_EQ(r.program.inst(1).imm, -8);
    EXPECT_EQ(r.program.inst(1).rs2, intReg(2));
    EXPECT_EQ(r.program.inst(2).rd, fpReg(1));
}

TEST(Asm, InformingMarkerParsed)
{
    const auto r = assemble("    ld r2, 0(r1) !informing\n    halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.program.inst(0).informing);
}

TEST(Asm, InformingExtensionOps)
{
    const auto r = assemble(
        "    setmhar handler\n"
        "    setmhlvl 2\n"
        "    setmharpc handler\n"
        "    setmhar off\n"
        "    brmiss2 handler\n"
        "    ld r1, 0(r2)\n"
        "    halt\n"
        "handler:\n"
        "    getmhrr r5\n"
        "    retmh\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.inst(0).imm, 7);
    EXPECT_EQ(r.program.inst(1).imm, 2);
    EXPECT_EQ(r.program.inst(2).op, Op::SETMHARPC);
    EXPECT_EQ(r.program.inst(2).imm, 5);   // 7 - 2 (pc-relative)
    EXPECT_EQ(r.program.inst(3).imm, 0);
}

TEST(Asm, DiagnosticsNameTheLine)
{
    const auto r = assemble("    li r1, 1\n    bogus r1\n    halt\n");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorLine, 2);
    EXPECT_NE(r.error.find("bogus"), std::string::npos);
}

TEST(Asm, UnknownLabelRejected)
{
    const auto r = assemble("    j nowhere\n    halt\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("nowhere"), std::string::npos);
}

TEST(Asm, WrongRegisterFileRejected)
{
    const auto r = assemble("    add r1, f2, r3\n    halt\n");
    EXPECT_FALSE(r.ok);
}

TEST(Asm, DuplicateLabelRejected)
{
    const auto r = assemble("x:\n    nop\nx:\n    halt\n");
    EXPECT_FALSE(r.ok);
}

TEST(Asm, OperandCountChecked)
{
    const auto r = assemble("    add r1, r2\n    halt\n");
    EXPECT_FALSE(r.ok);
}

/** The round-trip property on library-built programs. */
void
expectRoundTrip(const Program &prog)
{
    const std::string text = formatAssembly(prog);
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error << " (line " << r.errorLine << ")";
    ASSERT_EQ(r.program.size(), prog.size());
    for (InstAddr pc = 0; pc < prog.size(); ++pc) {
        const Instruction &a = prog.inst(pc);
        const Instruction &b = r.program.inst(pc);
        EXPECT_EQ(a.op, b.op) << "pc " << pc;
        EXPECT_EQ(a.rd, b.rd) << "pc " << pc;
        EXPECT_EQ(a.rs1, b.rs1) << "pc " << pc;
        EXPECT_EQ(a.rs2, b.rs2) << "pc " << pc;
        EXPECT_EQ(a.imm, b.imm) << "pc " << pc;
        EXPECT_EQ(a.informing, b.informing) << "pc " << pc;
        EXPECT_EQ(a.staticRefId, b.staticRefId) << "pc " << pc;
    }
    // Data images match.
    ASSERT_EQ(prog.data().empty(), r.program.data().empty());
}

TEST(AsmRoundTrip, HandBuiltProgram)
{
    ProgramBuilder b("rt");
    const Addr buf = b.allocData(16, 64);
    b.initData(buf, {1, 2, 3});
    Label handler = b.newLabel(), top = b.newLabel();
    b.setmhar(handler);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.li(intReg(2), 0);
    b.bind(top);
    b.ld(intReg(3), intReg(1), 0);
    b.fld(fpReg(1), intReg(1), 8);
    b.fadd(fpReg(2), fpReg(2), fpReg(1));
    b.addi(intReg(2), intReg(2), 1);
    b.slti(intReg(4), intReg(2), 3);
    b.bne(intReg(4), intReg(0), top);
    b.halt();
    b.bind(handler);
    b.getmhrr(intReg(5));
    b.retmh();
    expectRoundTrip(b.finish());
}

TEST(AsmRoundTrip, EveryOpOnce)
{
    // One instruction per op, plus the operand spellings the suite's
    // programs never emit: "setmhar off", a negative pc-relative MHAR,
    // negative displacements and !informing refs.
    const char *text =
        "    add r1, r2, r3\n"
        "    addi r1, r2, -5\n"
        "    sub r1, r2, r3\n"
        "    mul r4, r5, r6\n"
        "    div r4, r5, r6\n"
        "    and r1, r2, r3\n"
        "    andi r1, r2, 255\n"
        "    or r1, r2, r3\n"
        "    xor r1, r2, r3\n"
        "    sll r1, r2, 3\n"
        "    srl r1, r2, 4\n"
        "    slt r1, r2, r3\n"
        "    slti r1, r2, 7\n"
        "    li r7, -42\n"
        "    fadd f1, f2, f3\n"
        "    fsub f1, f2, f3\n"
        "    fmul f1, f2, f3\n"
        "    fdiv f1, f2, f31\n"
        "    fsqrt f4, f5\n"
        "    fmov f4, f0\n"
        "    cvtif f6, r7\n"
        "    cvtfi r8, f6\n"
        "    ld r9, 16(r10)\n"
        "    ld r9, -8(r10) !informing\n"
        "    st r11, 24(r10)\n"
        "    st r11, 0(r10) !informing\n"
        "    fld f7, 8(r10)\n"
        "    fld f7, 8(r10) !informing\n"
        "    fst f8, 32(r10)\n"
        "    fst f8, 32(r10) !informing\n"
        "    prefetch 64(r10)\n"
        "    beq r1, r2, @40\n"
        "    bne r1, r0, @0\n"
        "    blt r1, r2, @44\n"
        "    bge r1, r2, @5\n"
        "    j @44\n"
        "    jal r31, @44\n"
        "    jr r31\n"
        "    setmhar @44\n"
        "    setmhar off\n"
        "    setmharr r12\n"
        "    getmhrr r13\n"
        "    setmhrr r13\n"
        "    retmh\n"
        "    brmiss @0\n"
        "    brmiss2 @44\n"
        "    setmharpc pc-3\n"
        "    setmharpc pc+2\n"
        "    setmhlvl 2\n"
        "    nop\n"
        "    halt\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok) << r.error << " (line " << r.errorLine << ")";
    const Program &prog = r.program;

    std::vector<bool> seen(static_cast<std::size_t>(Op::NumOps));
    for (const Instruction &in : prog.insts())
        seen[static_cast<std::size_t>(in.op)] = true;
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << opName(static_cast<Op>(i));

    EXPECT_EQ(prog.inst(23).imm, -8);
    EXPECT_FALSE(prog.inst(23).informing);
    EXPECT_EQ(prog.inst(39).imm, 0);
    EXPECT_EQ(prog.inst(46).imm, -3);
    EXPECT_EQ(prog.numStaticRefs(), 8u);

    // The formatter prints exactly the source back, and that parses to
    // the same program.
    EXPECT_EQ(formatAssembly(prog), text);
    expectRoundTrip(prog);
}

class WorkloadRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRoundTrip, FormatAssembleIdentical)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    expectRoundTrip(workloads::build(GetParam(), wp));
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadRoundTrip,
                         ::testing::Values("compress", "xlisp", "su2cor",
                                           "tomcatv", "doduc"));

TEST(AsmRoundTrip, InstrumentedProgram)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    const Program base = workloads::build("eqntott", wp);
    expectRoundTrip(core::instrument(
        base, core::InformingMode::TrapUnique, {.length = 10}));
    expectRoundTrip(core::instrument(
        base, core::InformingMode::CondCode, {.length = 1}));
}

TEST(AsmRoundTrip, AssembledProgramExecutesSameAsOriginal)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    const Program base = workloads::build("espresso", wp);
    const AsmResult r = assemble(formatAssembly(base));
    ASSERT_TRUE(r.ok) << r.error;

    const func::Executor::Config cfg{
        .l1 = {.sizeBytes = 8 * 1024, .lineBytes = 32, .assoc = 1},
        .l2 = {.sizeBytes = 64 * 1024, .lineBytes = 32, .assoc = 2}};
    func::Executor a(base, cfg), b(r.program, cfg);
    a.run();
    b.run();
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().l1Misses, b.stats().l1Misses);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.state().ireg[i], b.state().ireg[i]);
}

TEST(AsmFiles, ShippedSamplesAssembleAndRun)
{
    for (const char *name : {"count_misses.mrisc",
                             "condition_code.mrisc"}) {
        const std::string path = std::string(IMO_SOURCE_DIR) +
            "/examples/asm/" + name;
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream text;
        text << in.rdbuf();
        const AsmResult r = assemble(text.str());
        ASSERT_TRUE(r.ok) << name << ": " << r.error << " (line "
                          << r.errorLine << ")";

        func::Executor e(r.program,
                         {.l1 = {.sizeBytes = 8 * 1024, .lineBytes = 32,
                                 .assoc = 1},
                          .l2 = {.sizeBytes = 2 * 1024 * 1024,
                                 .lineBytes = 32, .assoc = 4}});
        e.run();
        EXPECT_TRUE(e.state().halted) << name;
        // Both samples leave their observed miss count in r10.
        EXPECT_GT(e.state().ireg[10], 0u) << name;
        EXPECT_EQ(e.state().ireg[10],
                  name == std::string("count_misses.mrisc")
                      ? e.stats().traps : e.stats().brmissTaken)
            << name;
    }
}

} // namespace
