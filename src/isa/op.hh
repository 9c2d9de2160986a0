/**
 * @file
 * The MRISC operation set.
 *
 * MRISC is the small load/store ISA that every simulated program in this
 * repository is written in. It is a conventional 64-bit RISC plus the
 * informing-memory-operation extensions proposed by Horowitz et al.
 * (ISCA 1996):
 *
 *  - a cache-outcome condition code, set by every data memory operation
 *    and tested by BRMISS (conditional branch-and-link-if-miss);
 *  - the Miss Handler Address Register (MHAR) and Miss Handler Return
 *    Register (MHRR) with SETMHAR / RETMH for the low-overhead
 *    cache-miss-trap mechanism.
 *
 * Every op's shape is one row of opTable below: its mnemonic, its
 * functional-unit class and its operand form, from which follow the
 * registers it reads and writes, their files, and whether its imm is a
 * control target. The assembler, disassembler, validator, instrumenter
 * and both timing models read that row; only what an op does (the
 * executor) and where it may go next (verify.cc) are written per op.
 */

#ifndef IMO_ISA_OP_HH
#define IMO_ISA_OP_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace imo::isa
{

/** Every MRISC operation. */
enum class Op : std::uint8_t
{
    // Integer ALU.
    ADD,    //!< rd = rs1 + rs2
    ADDI,   //!< rd = rs1 + imm
    SUB,    //!< rd = rs1 - rs2
    MUL,    //!< rd = rs1 * rs2
    DIV,    //!< rd = rs1 / rs2 (0 if rs2 == 0)
    AND,    //!< rd = rs1 & rs2
    ANDI,   //!< rd = rs1 & imm
    OR,     //!< rd = rs1 | rs2
    XOR,    //!< rd = rs1 ^ rs2
    SLL,    //!< rd = rs1 << (imm & 63)
    SRL,    //!< rd = rs1 >> (imm & 63) (logical)
    SLT,    //!< rd = (int64)rs1 < (int64)rs2
    SLTI,   //!< rd = (int64)rs1 < imm
    LI,     //!< rd = imm

    // Floating point (operates on the FP register file).
    FADD,   //!< fd = fs1 + fs2
    FSUB,   //!< fd = fs1 - fs2
    FMUL,   //!< fd = fs1 * fs2
    FDIV,   //!< fd = fs1 / fs2
    FSQRT,  //!< fd = sqrt(fs1)
    FMOV,   //!< fd = fs1
    CVTIF,  //!< fd = (double)(int64)rs1
    CVTFI,  //!< rd = (int64)fs1

    // Memory. Effective address is rs1 + imm.
    LD,     //!< rd = mem64[rs1 + imm]
    ST,     //!< mem64[rs1 + imm] = rs2
    FLD,    //!< fd = mem64[rs1 + imm] (as double bits)
    FST,    //!< mem64[rs1 + imm] = fs2
    PREFETCH, //!< hint: move line at rs1 + imm toward the primary cache

    // Control. Branch/jump targets are absolute instruction indices.
    BEQ,    //!< if (rs1 == rs2) pc = imm
    BNE,    //!< if (rs1 != rs2) pc = imm
    BLT,    //!< if ((int64)rs1 < (int64)rs2) pc = imm
    BGE,    //!< if ((int64)rs1 >= (int64)rs2) pc = imm
    J,      //!< pc = imm
    JAL,    //!< rd = pc + 1; pc = imm
    JR,     //!< pc = rs1

    // Informing-memory-operation extensions.
    SETMHAR,  //!< MHAR = imm (0 disables miss trapping)
    SETMHARR, //!< MHAR = rs1
    GETMHRR,  //!< rd = MHRR
    SETMHRR,  //!< MHRR = rs1
    RETMH,    //!< pc = MHRR; re-enables trapping (handler return)
    BRMISS,   //!< if (cache outcome CC == miss) { MHRR = pc + 1; pc = imm }
    // Extensions sketched in the paper: per-level condition codes
    // (section 2.1's "other levels of the memory hierarchy"), a
    // PC-relative MHAR load (footnote 2), and a trap-level threshold
    // enabling section 4.1.3's switch-on-secondary-miss policy.
    BRMISS2,  //!< like BRMISS, but tests the secondary-cache outcome
    SETMHARPC,//!< MHAR = pc + imm (cheap per-reference handler setup)
    SETMHLVL, //!< trap threshold: 1 = any L1 miss, 2 = L2 misses only

    // Miscellaneous.
    NOP,
    HALT,    //!< terminate the program

    NumOps
};

/** Functional-unit class of an operation, used by the timing models. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpDiv,
    FpSqrt,
    Load,
    Store,
    Prefetch,
    Branch,   //!< conditional branches (incl. BRMISS)
    Jump,     //!< unconditional control transfers (incl. RETMH)
    Nop,      //!< NOP / HALT / register-move to special regs
    NumClasses
};

/** Operand form of an op: the assembly syntax of its operands. */
enum class Form : std::uint8_t
{
    R3,       //!< rd, rs1, rs2
    F3,       //!< fd, fs1, fs2
    RRI,      //!< rd, rs1, imm
    RI,       //!< rd, imm
    F2,       //!< fd, fs1
    CVT_IF,   //!< fd, rs1
    CVT_FI,   //!< rd, fs1
    MemLd,    //!< rd, off(base)
    MemLdF,   //!< fd, off(base)
    MemSt,    //!< src, off(base)
    MemStF,   //!< fsrc, off(base)
    Mem0,     //!< off(base)
    Branch,   //!< rs1, rs2, target
    Target,   //!< target
    Jal,      //!< rd, target
    R1,       //!< rs1
    Rd,       //!< rd
    Setmhar,  //!< target | "off"
    SetmharPc,//!< target | "pc+N"
    Level,    //!< imm
    None,
};

/** One operand of a form, in assembly order. */
enum class Operand : std::uint8_t
{
    Rd, Rs1, Rs2,    //!< integer registers
    Fd, Fs1, Fs2,    //!< FP registers in the same slots
    Imm,             //!< imm: a number or data symbol
    Mem,             //!< off(base): imm plus an integer rs1
    Target,          //!< imm: an instruction index (label or @N)
    MharTarget,      //!< Target, or "off" for imm 0 (trapping disabled)
    PcRel,           //!< imm: an offset from the op's own pc ("pc+N")
};

/** The operands of a form, in assembly order. */
struct Operands
{
    std::uint8_t count = 0;
    std::array<Operand, 3> at{};
};

/** @return the operands of @p form. */
constexpr Operands
operandsOf(Form form)
{
    using O = Operand;
    switch (form) {
      case Form::R3: return {3, {O::Rd, O::Rs1, O::Rs2}};
      case Form::F3: return {3, {O::Fd, O::Fs1, O::Fs2}};
      case Form::RRI: return {3, {O::Rd, O::Rs1, O::Imm}};
      case Form::RI: return {2, {O::Rd, O::Imm}};
      case Form::F2: return {2, {O::Fd, O::Fs1}};
      case Form::CVT_IF: return {2, {O::Fd, O::Rs1}};
      case Form::CVT_FI: return {2, {O::Rd, O::Fs1}};
      case Form::MemLd: return {2, {O::Rd, O::Mem}};
      case Form::MemLdF: return {2, {O::Fd, O::Mem}};
      case Form::MemSt: return {2, {O::Rs2, O::Mem}};
      case Form::MemStF: return {2, {O::Fs2, O::Mem}};
      case Form::Mem0: return {1, {O::Mem}};
      case Form::Branch: return {3, {O::Rs1, O::Rs2, O::Target}};
      case Form::Target: return {1, {O::Target}};
      case Form::Jal: return {2, {O::Rd, O::Target}};
      case Form::R1: return {1, {O::Rs1}};
      case Form::Rd: return {1, {O::Rd}};
      case Form::Setmhar: return {1, {O::MharTarget}};
      case Form::SetmharPc: return {1, {O::PcRel}};
      case Form::Level: return {1, {O::Imm}};
      case Form::None: break;
    }
    return {};
}

/** Which of rd/rs1/rs2 an op uses, in which file, and what imm is. */
struct OpShape
{
    bool rd = false, rdFp = false;
    bool rs1 = false, rs1Fp = false;
    bool rs2 = false, rs2Fp = false;
    bool immTarget = false; //!< imm is an absolute instruction index
};

/** @return the register and immediate usage that @p form implies. */
constexpr OpShape
shapeOf(Form form)
{
    OpShape s;
    const Operands ops = operandsOf(form);
    for (std::uint8_t i = 0; i < ops.count; ++i) {
        const Operand o = ops.at[i];
        s.rd |= o == Operand::Rd || o == Operand::Fd;
        s.rdFp |= o == Operand::Fd;
        s.rs1 |= o == Operand::Rs1 || o == Operand::Fs1 || o == Operand::Mem;
        s.rs1Fp |= o == Operand::Fs1;
        s.rs2 |= o == Operand::Rs2 || o == Operand::Fs2;
        s.rs2Fp |= o == Operand::Fs2;
        s.immTarget |= o == Operand::Target || o == Operand::MharTarget;
    }
    return s;
}

/** One row of the op table: everything about an op but its semantics. */
struct OpInfo
{
    Op op = Op::NumOps;
    const char *name = "?";
    OpClass cls = OpClass::NumClasses;
    Form form = Form::None;
    OpShape shape{};  //!< derived from form

    constexpr OpInfo() = default;
    constexpr OpInfo(Op o, const char *n, OpClass c, Form f)
        : op(o), name(n), cls(c), form(f), shape(shapeOf(f))
    {}
};

/**
 * The op table, indexed by Op. Rows past the last op (every other
 * value an Op byte can hold) are named "?" and have no class, so a
 * lookup never leaves the table.
 */
inline constexpr std::array<OpInfo, 256> opTable = [] {
    using C = OpClass;
    using F = Form;
    return std::array<OpInfo, 256>{{
        {Op::ADD, "add", C::IntAlu, F::R3},
        {Op::ADDI, "addi", C::IntAlu, F::RRI},
        {Op::SUB, "sub", C::IntAlu, F::R3},
        {Op::MUL, "mul", C::IntMul, F::R3},
        {Op::DIV, "div", C::IntDiv, F::R3},
        {Op::AND, "and", C::IntAlu, F::R3},
        {Op::ANDI, "andi", C::IntAlu, F::RRI},
        {Op::OR, "or", C::IntAlu, F::R3},
        {Op::XOR, "xor", C::IntAlu, F::R3},
        {Op::SLL, "sll", C::IntAlu, F::RRI},
        {Op::SRL, "srl", C::IntAlu, F::RRI},
        {Op::SLT, "slt", C::IntAlu, F::R3},
        {Op::SLTI, "slti", C::IntAlu, F::RRI},
        {Op::LI, "li", C::IntAlu, F::RI},
        {Op::FADD, "fadd", C::FpAlu, F::F3},
        {Op::FSUB, "fsub", C::FpAlu, F::F3},
        {Op::FMUL, "fmul", C::FpAlu, F::F3},
        {Op::FDIV, "fdiv", C::FpDiv, F::F3},
        {Op::FSQRT, "fsqrt", C::FpSqrt, F::F2},
        {Op::FMOV, "fmov", C::FpAlu, F::F2},
        {Op::CVTIF, "cvtif", C::FpAlu, F::CVT_IF},
        {Op::CVTFI, "cvtfi", C::IntAlu, F::CVT_FI},
        {Op::LD, "ld", C::Load, F::MemLd},
        {Op::ST, "st", C::Store, F::MemSt},
        {Op::FLD, "fld", C::Load, F::MemLdF},
        {Op::FST, "fst", C::Store, F::MemStF},
        {Op::PREFETCH, "prefetch", C::Prefetch, F::Mem0},
        {Op::BEQ, "beq", C::Branch, F::Branch},
        {Op::BNE, "bne", C::Branch, F::Branch},
        {Op::BLT, "blt", C::Branch, F::Branch},
        {Op::BGE, "bge", C::Branch, F::Branch},
        {Op::J, "j", C::Jump, F::Target},
        {Op::JAL, "jal", C::Jump, F::Jal},
        {Op::JR, "jr", C::Jump, F::R1},
        {Op::SETMHAR, "setmhar", C::IntAlu, F::Setmhar},
        {Op::SETMHARR, "setmharr", C::IntAlu, F::R1},
        {Op::GETMHRR, "getmhrr", C::IntAlu, F::Rd},
        {Op::SETMHRR, "setmhrr", C::IntAlu, F::R1},
        {Op::RETMH, "retmh", C::Jump, F::None},
        {Op::BRMISS, "brmiss", C::Branch, F::Target},
        {Op::BRMISS2, "brmiss2", C::Branch, F::Target},
        {Op::SETMHARPC, "setmharpc", C::IntAlu, F::SetmharPc},
        {Op::SETMHLVL, "setmhlvl", C::IntAlu, F::Level},
        {Op::NOP, "nop", C::Nop, F::None},
        {Op::HALT, "halt", C::Nop, F::None},
    }};
}();

static_assert(
    [] {
        for (std::size_t i = 0; i < opTable.size(); ++i) {
            const bool is_op = i < static_cast<std::size_t>(Op::NumOps);
            if ((opTable[i].cls != OpClass::NumClasses) != is_op ||
                (is_op && opTable[i].op != static_cast<Op>(i)))
                return false;
        }
        return true;
    }(),
    "opTable must hold exactly one row per Op, in enumerator order");

// The accessors below run several times per simulated instruction in
// both timing models; they stay inline so the per-instruction loop
// reads the table directly.

/** @return the table row of @p op. */
constexpr const OpInfo &
opInfo(Op op)
{
    return opTable[static_cast<std::uint8_t>(op)];
}

/** @return the functional-unit class of @p op. */
inline OpClass
opClass(Op op)
{
    const OpClass cls = opInfo(op).cls;
    if (cls == OpClass::NumClasses) [[unlikely]]
        panic("opClass: bad op %d", static_cast<int>(op));
    return cls;
}

/** @return the mnemonic for @p op ("?" for a value that is no op). */
constexpr const char *
opName(Op op)
{
    return opInfo(op).name;
}

/** @return true for LD/ST/FLD/FST (PREFETCH excluded: it cannot trap). */
inline bool
isDataRef(Op op)
{
    return op == Op::LD || op == Op::ST || op == Op::FLD || op == Op::FST;
}

/** @return true for loads (LD/FLD). */
inline bool
isLoad(Op op)
{
    return op == Op::LD || op == Op::FLD;
}

/** @return true for stores (ST/FST). */
inline bool
isStore(Op op)
{
    return op == Op::ST || op == Op::FST;
}

/** @return true for any op that may redirect the PC. */
inline bool
isControl(Op op)
{
    switch (opClass(op)) {
      case OpClass::Branch:
      case OpClass::Jump:
        return true;
      default:
        return false;
    }
}

/** @return true for conditional branches (outcome not known at decode). */
inline bool
isCondBranch(Op op)
{
    return opClass(op) == OpClass::Branch;
}

/** @return true if the op reads the FP register file for a source. */
inline bool
readsFpSources(Op op)
{
    const OpShape &s = opInfo(op).shape;
    return s.rs1Fp || s.rs2Fp;
}

/** @return true if the op writes the FP register file. */
inline bool
writesFp(Op op)
{
    return opInfo(op).shape.rdFp;
}

} // namespace imo::isa

#endif // IMO_ISA_OP_HH
