#include "isa/program.hh"

#include <cstdio>
#include <set>

#include "common/hash.hh"

namespace imo::isa
{

namespace
{

bool
complain(std::string *why, const char *fmt, InstAddr pc, const char *extra)
{
    if (why) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), fmt, pc, extra);
        *why = buf;
    }
    return false;
}

/** Does this op's rs1 name an FP register? */
bool
rs1IsFp(Op op)
{
    switch (op) {
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FSQRT: case Op::FMOV: case Op::CVTFI:
        return true;
      default:
        return false;
    }
}

/** Does this op's rs2 name an FP register? */
bool
rs2IsFp(Op op)
{
    switch (op) {
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FST:
        return true;
      default:
        return false;
    }
}

bool
usesRs1(Op op)
{
    switch (op) {
      case Op::ADD: case Op::ADDI: case Op::SUB: case Op::MUL:
      case Op::DIV: case Op::AND: case Op::ANDI: case Op::OR:
      case Op::XOR: case Op::SLL: case Op::SRL: case Op::SLT:
      case Op::SLTI: case Op::FADD: case Op::FSUB: case Op::FMUL:
      case Op::FDIV: case Op::FSQRT: case Op::FMOV: case Op::CVTIF:
      case Op::CVTFI: case Op::LD: case Op::ST: case Op::FLD:
      case Op::FST: case Op::PREFETCH: case Op::BEQ: case Op::BNE:
      case Op::BLT: case Op::BGE: case Op::JR: case Op::SETMHARR:
      case Op::SETMHRR:
        return true;
      default:
        return false;
    }
}

bool
usesRs2(Op op)
{
    switch (op) {
      case Op::ADD: case Op::SUB: case Op::MUL: case Op::DIV:
      case Op::AND: case Op::OR: case Op::XOR: case Op::SLT:
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::ST: case Op::FST: case Op::BEQ: case Op::BNE:
      case Op::BLT: case Op::BGE:
        return true;
      default:
        return false;
    }
}

bool
hasImmTarget(Op op)
{
    switch (op) {
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::J: case Op::JAL: case Op::BRMISS: case Op::BRMISS2:
      case Op::SETMHAR:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

bool
Program::validate(std::string *why) const
{
    bool has_halt = false;
    std::set<std::uint32_t> ref_ids;

    for (InstAddr pc = 0; pc < size(); ++pc) {
        const Instruction &in = _insts[pc];

        if (in.op >= Op::NumOps)
            return complain(why, "pc %u: bad opcode%s", pc, "");

        if (in.op == Op::HALT)
            has_halt = true;

        auto check_reg = [&](std::uint8_t reg, bool want_fp,
                             const char *role) -> bool {
            if (reg >= numUnifiedRegs)
                return complain(why, "pc %u: %s register out of range",
                                pc, role);
            if (isFpRegId(reg) != want_fp)
                return complain(why, "pc %u: %s register in wrong file",
                                pc, role);
            return true;
        };

        if (usesRs1(in.op) && !check_reg(in.rs1, rs1IsFp(in.op), "rs1"))
            return false;
        if (usesRs2(in.op) && !check_reg(in.rs2, rs2IsFp(in.op), "rs2"))
            return false;
        if (dstReg(in) >= 0 &&
            !check_reg(static_cast<std::uint8_t>(dstReg(in)),
                       writesFp(in.op), "rd")) {
            return false;
        }

        if (hasImmTarget(in.op)) {
            const bool disable_mhar = in.op == Op::SETMHAR && in.imm == 0;
            if (!disable_mhar &&
                (in.imm < 0 || in.imm >= static_cast<std::int64_t>(size())))
                return complain(why, "pc %u: control target out of range%s",
                                pc, "");
        }

        if (in.op == Op::SETMHARPC) {
            const std::int64_t target = static_cast<std::int64_t>(pc)
                + in.imm;
            if (target < 0 || target >= static_cast<std::int64_t>(size()))
                return complain(why,
                                "pc %u: pc-relative MHAR out of range%s",
                                pc, "");
        }
        if (in.op == Op::SETMHLVL && (in.imm < 1 || in.imm > 2))
            return complain(why, "pc %u: bad trap level%s", pc, "");

        if (isDataRef(in.op) && in.staticRefId != noRefId)
            ref_ids.insert(in.staticRefId);
    }

    if (!has_halt)
        return complain(why, "program has no HALT (size %u)%s", size(), "");

    // Static-reference ids, when present, must be dense [0, n).
    if (!ref_ids.empty()) {
        if (*ref_ids.rbegin() != ref_ids.size() - 1 ||
            ref_ids.size() != _numStaticRefs) {
            return complain(why, "static ref ids not dense (%u declared)%s",
                            _numStaticRefs, "");
        }
    } else if (_numStaticRefs != 0) {
        return complain(why, "declared %u static refs but tagged none%s",
                        _numStaticRefs, "");
    }

    return true;
}

std::uint64_t
Program::fingerprint() const
{
    Fnv1a f;
    f.str(_name);
    f.u64(_insts.size());
    for (const Instruction &in : _insts) {
        f.u64(static_cast<std::uint64_t>(in.op));
        f.u64((static_cast<std::uint64_t>(in.rd) << 16) |
              (static_cast<std::uint64_t>(in.rs1) << 8) | in.rs2);
        f.u64(static_cast<std::uint64_t>(in.imm));
        f.u64(in.informing ? 1 : 0);
        f.u64(in.staticRefId);
    }
    f.u64(_data.size());
    for (const DataSegment &seg : _data) {
        f.u64(seg.base);
        f.u64(seg.words.size());
        for (const std::uint64_t w : seg.words)
            f.u64(w);
    }
    f.u64(_numStaticRefs);
    return f.value();
}

} // namespace imo::isa
