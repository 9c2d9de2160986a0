#include "core/informing.hh"

#include <bit>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "core/handlers.hh"
#include "isa/op.hh"

namespace imo::core
{

using isa::Instruction;
using isa::Op;
using isa::Program;

const char *
informingModeName(InformingMode mode)
{
    switch (mode) {
      case InformingMode::None: return "N";
      case InformingMode::TrapSingle: return "S";
      case InformingMode::TrapUnique: return "U";
      case InformingMode::CondCode: return "CC";
    }
    return "?";
}

bool
handlerLengthShapesProgram(InformingMode mode)
{
    return mode != InformingMode::None;
}

std::uint32_t
perRefOverheadInsts(InformingMode mode)
{
    switch (mode) {
      case InformingMode::None:
      case InformingMode::TrapSingle:
        return 0;
      case InformingMode::TrapUnique:
      case InformingMode::CondCode:
        return 1;
    }
    return 0;
}

namespace
{

/** Append one generic k-instruction dependent-chain handler; return its
 *  entry address. The chain is ADDI scratch, scratch, 1 repeated. */
InstAddr
appendHandler(std::vector<Instruction> &out,
              const GenericHandlerParams &params, std::uint32_t which)
{
    const InstAddr entry = static_cast<InstAddr>(out.size());
    const std::uint8_t reg = static_cast<std::uint8_t>(
        params.firstScratchReg + which % params.rotateRegs);
    sim_throw_if(reg >= isa::numIntRegs, ErrCode::BadConfig,
                 "handler scratch registers out of range");
    for (std::uint32_t i = 0; i < params.length; ++i)
        out.push_back({.op = Op::ADDI, .rd = reg, .rs1 = reg, .imm = 1});
    out.push_back({.op = Op::RETMH});
    return entry;
}

} // anonymous namespace

Program
instrument(const Program &base, InformingMode mode,
           const GenericHandlerParams &params)
{
    sim_throw_if(params.length == 0, ErrCode::BadConfig,
                 "generic handler length must be nonzero");
    sim_throw_if(params.rotateRegs == 0, ErrCode::BadConfig,
                 "rotateRegs must be nonzero");

    const auto &insts = base.insts();
    const InstAddr n = base.size();

    if (!handlerLengthShapesProgram(mode)) {
        Program copy = base;
        copy.setName(base.name() + ".N");
        return copy;
    }

    // Pass 1: lay out the rewritten text. Each original instruction may
    // get one inserted instruction before (TrapUnique: SETMHAR) or
    // after (CondCode: BRMISS) it. oldToNew maps an original address to
    // the first instruction executed at that point in the new text.
    std::vector<InstAddr> old_to_new(n + 1);
    InstAddr cursor = mode == InformingMode::TrapSingle ? 1 : 0;
    for (InstAddr pc = 0; pc < n; ++pc) {
        old_to_new[pc] = cursor;
        ++cursor; // the instruction itself
        if (isa::isDataRef(insts[pc].op) &&
            (mode == InformingMode::TrapUnique ||
             mode == InformingMode::CondCode)) {
            ++cursor; // its companion SETMHAR / BRMISS
        }
    }
    old_to_new[n] = cursor;
    const InstAddr handler_base = cursor;

    // Pass 2: emit. Handler entries are assigned on first use so their
    // addresses are known before the handler bodies are appended; we
    // compute them up front instead: handlers are laid out in static-
    // reference order, each (length + 1) instructions long.
    const std::uint32_t handler_size = params.length + 1;
    auto handler_entry = [&](std::uint32_t ref_id) -> InstAddr {
        if (mode == InformingMode::TrapSingle)
            return handler_base;
        return handler_base + ref_id * handler_size;
    };

    std::vector<Instruction> out;
    out.reserve(handler_base + handler_size *
                (mode == InformingMode::TrapSingle
                 ? 1 : base.numStaticRefs()));

    if (mode == InformingMode::TrapSingle) {
        out.push_back({.op = Op::SETMHAR,
                       .imm = static_cast<std::int64_t>(handler_base)});
    }

    auto patch_target = [&](std::int64_t old_imm) -> std::int64_t {
        panic_if(old_imm < 0 || old_imm > static_cast<std::int64_t>(n),
                 "control target out of range during instrumentation");
        return old_to_new[old_imm];
    };

    for (InstAddr pc = 0; pc < n; ++pc) {
        Instruction in = insts[pc];
        const bool is_ref = isa::isDataRef(in.op);

        if (is_ref && mode == InformingMode::TrapUnique) {
            out.push_back({.op = Op::SETMHAR,
                           .imm = static_cast<std::int64_t>(
                               handler_entry(in.staticRefId))});
        }

        if (isa::immIsTarget(in))
            in.imm = patch_target(in.imm);
        out.push_back(in);

        if (is_ref && mode == InformingMode::CondCode) {
            out.push_back({.op = Op::BRMISS,
                           .imm = static_cast<std::int64_t>(
                               handler_entry(in.staticRefId))});
        }
    }

    panic_if(out.size() != handler_base,
             "instrumentation layout mismatch: %zu vs %u",
             out.size(), handler_base);

    // Append the handlers.
    if (mode == InformingMode::TrapSingle) {
        appendHandler(out, params, 0);
    } else {
        for (std::uint32_t ref = 0; ref < base.numStaticRefs(); ++ref) {
            const InstAddr entry = appendHandler(out, params, ref);
            panic_if(entry != handler_entry(ref),
                     "handler %u landed at %u, expected %u",
                     ref, entry, handler_entry(ref));
        }
    }

    Program prog(base.name() + "." + informingModeName(mode));
    prog.insts() = std::move(out);
    for (const isa::DataSegment &seg : base.data())
        prog.addData(seg);

    // Reassign dense static-reference ids (the original ids survive the
    // rewrite, but validation requires density and the handler bodies
    // contain no references, so the originals are still dense).
    std::uint32_t next_ref = 0;
    for (Instruction &in : prog.insts()) {
        if (isa::isDataRef(in.op))
            in.staticRefId = next_ref++;
    }
    prog.setNumStaticRefs(next_ref);

    std::string why;
    sim_throw_if(!prog.validate(&why), ErrCode::BadProgram,
                 "instrumented program '%s' invalid: %s",
                 prog.name().c_str(), why.c_str());
    return prog;
}

MissProfilerProgram
instrumentWithMissProfiler(const isa::Program &base, Addr table_base)
{
    const auto &insts = base.insts();
    const InstAddr n = base.size();

    // TrapSingle layout: one SETMHAR prelude, originals shifted by one.
    const InstAddr handler_base = n + 1;

    // Return addresses delivered to the handler are missed-reference
    // pcs plus one, all below handler_base (handler code runs with the
    // trap disarmed and never shows up), so this many low bits of the
    // MHRR name each static reference uniquely.
    const std::uint32_t slots_log2 = std::bit_width(
        static_cast<std::uint64_t>(handler_base));
    const std::int64_t mask =
        (std::int64_t{1} << slots_log2) - 1;
    sim_throw_if(table_base & 7, ErrCode::BadConfig,
                 "profiler table must be 8-byte aligned");

    std::vector<Instruction> out;
    out.reserve(handler_base + 9);
    out.push_back({.op = Op::SETMHAR,
                   .imm = static_cast<std::int64_t>(handler_base)});

    for (InstAddr pc = 0; pc < n; ++pc) {
        Instruction in = insts[pc];
        if (isa::immIsTarget(in))
            in.imm += 1;
        out.push_back(in);
    }

    // The section-4.1.1 hash-table profiler (see emitHashProfiler),
    // emitted as raw text so it can be appended to a finished program.
    const std::uint8_t s0 = handlerScratchBase;
    const std::uint8_t s1 = handlerScratchBase + 1;
    out.push_back({.op = Op::GETMHRR, .rd = s0});
    out.push_back({.op = Op::ANDI, .rd = s0, .rs1 = s0, .imm = mask});
    out.push_back({.op = Op::SLL, .rd = s0, .rs1 = s0, .imm = 3});
    out.push_back({.op = Op::LI, .rd = s1,
                   .imm = static_cast<std::int64_t>(table_base)});
    out.push_back({.op = Op::ADD, .rd = s1, .rs1 = s1, .rs2 = s0});
    out.push_back({.op = Op::LD, .rd = s0, .rs1 = s1, .imm = 0});
    out.push_back({.op = Op::ADDI, .rd = s0, .rs1 = s0, .imm = 1});
    out.push_back({.op = Op::ST, .rs1 = s1, .rs2 = s0, .imm = 0});
    out.push_back({.op = Op::RETMH});

    MissProfilerProgram result;
    result.tableBase = table_base;
    result.slotsLog2 = slots_log2;

    isa::Program prog(base.name() + ".profiled");
    prog.insts() = std::move(out);
    for (const isa::DataSegment &seg : base.data())
        prog.addData(seg);

    std::uint32_t next_ref = 0;
    for (Instruction &in : prog.insts()) {
        if (isa::isDataRef(in.op))
            in.staticRefId = next_ref++;
    }
    prog.setNumStaticRefs(next_ref);

    std::string why;
    sim_throw_if(!prog.validate(&why), ErrCode::BadProgram,
                 "profiled program '%s' invalid: %s",
                 prog.name().c_str(), why.c_str());
    result.program = std::move(prog);
    return result;
}

} // namespace imo::core
