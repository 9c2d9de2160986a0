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

        const OpInfo &info = opInfo(in.op);
        const OpShape &shape = info.shape;
        if (shape.rs1 && !check_reg(in.rs1, shape.rs1Fp, "rs1"))
            return false;
        if (shape.rs2 && !check_reg(in.rs2, shape.rs2Fp, "rs2"))
            return false;
        if (shape.rd && !check_reg(in.rd, shape.rdFp, "rd"))
            return false;

        if (immIsTarget(in) &&
            (in.imm < 0 || in.imm >= static_cast<std::int64_t>(size())))
            return complain(why, "pc %u: control target out of range%s",
                            pc, "");

        if (info.form == Form::SetmharPc) {
            const std::int64_t target = static_cast<std::int64_t>(pc)
                + in.imm;
            if (target < 0 || target >= static_cast<std::int64_t>(size()))
                return complain(why,
                                "pc %u: pc-relative MHAR out of range%s",
                                pc, "");
        }
        if (info.form == Form::Level && (in.imm < 1 || in.imm > 2))
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
