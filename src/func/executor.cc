#include "func/executor.hh"

#include <bit>
#include <cmath>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace imo::func
{

using isa::Op;

Executor::Executor(isa::Program program, const Config &config)
    : _program(std::move(program)), _config(config),
      _hier(config.l1, config.l2)
{
    std::string why;
    sim_throw_if(!_program.validate(&why), ErrCode::BadProgram,
                 "executor: invalid program '%s': %s",
                 _program.name().c_str(), why.c_str());
    for (const isa::DataSegment &seg : _program.data()) {
        for (std::size_t i = 0; i < seg.words.size(); ++i)
            _mem.write64(seg.base + i * 8, seg.words[i]);
    }
}

// The register accessors index without checking the register file:
// the constructor's Program::validate() has checked the file and range
// of every operand these are called with, and _program never changes.

std::uint64_t
Executor::readIreg(std::uint8_t unified) const
{
    return unified == 0 ? 0 : _state.ireg[unified];
}

void
Executor::writeIreg(std::uint8_t unified, std::uint64_t value)
{
    if (unified != 0)
        _state.ireg[unified] = value;
}

double
Executor::readFreg(std::uint8_t unified) const
{
    return _state.freg[unified - isa::numIntRegs];
}

void
Executor::writeFreg(std::uint8_t unified, double value)
{
    _state.freg[unified - isa::numIntRegs] = value;
}

template <bool Fill>
bool
Executor::stepImpl(TraceRecord *out, WarmSink *warm)
{
    if (_state.halted)
        return false;

    sim_throw_if(_stats.instructions >= _config.maxInstructions,
                 ErrCode::RunawayExecution,
                 "program '%s' exceeded %llu instructions without "
                 "halting (runaway?)",
                 _program.name().c_str(),
                 static_cast<unsigned long long>(_config.maxInstructions));

    // Static targets were validated; only a dynamic transfer (JR,
    // RETMH, or a trap through SETMHARR) can take the pc out of range.
    sim_throw_if(_state.pc >= _program.size(), ErrCode::BadProgram,
                 "program '%s': pc %u out of range (wild indirect "
                 "jump or handler return)",
                 _program.name().c_str(), _state.pc);

    const InstAddr pc = _state.pc;
    const isa::Instruction &in = _program.inst(pc);
    const bool handler_code = _inHandler;

    if constexpr (Fill) {
        // Reset the scalar fields individually: value-initializing the
        // whole record would zero the embedded Instruction only to copy
        // over it on the next line, and this runs once per instruction.
        out->inst = in;
        out->pc = pc;
        out->addr = 0;
        out->level = MemLevel::L1;
        out->taken = false;
        out->trapped = false;
        out->handlerCode = handler_code;
    }

    InstAddr next_pc = pc + 1;

    auto as_i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

    switch (in.op) {
      // Integer ALU ---------------------------------------------------
      case Op::ADD:
        writeIreg(in.rd, readIreg(in.rs1) + readIreg(in.rs2));
        break;
      case Op::ADDI:
        writeIreg(in.rd, readIreg(in.rs1) + static_cast<std::uint64_t>(in.imm));
        break;
      case Op::SUB:
        writeIreg(in.rd, readIreg(in.rs1) - readIreg(in.rs2));
        break;
      case Op::MUL:
        writeIreg(in.rd, readIreg(in.rs1) * readIreg(in.rs2));
        break;
      case Op::DIV: {
        const std::uint64_t denom = readIreg(in.rs2);
        writeIreg(in.rd, denom ? readIreg(in.rs1) / denom : 0);
        break;
      }
      case Op::AND:
        writeIreg(in.rd, readIreg(in.rs1) & readIreg(in.rs2));
        break;
      case Op::ANDI:
        writeIreg(in.rd, readIreg(in.rs1) & static_cast<std::uint64_t>(in.imm));
        break;
      case Op::OR:
        writeIreg(in.rd, readIreg(in.rs1) | readIreg(in.rs2));
        break;
      case Op::XOR:
        writeIreg(in.rd, readIreg(in.rs1) ^ readIreg(in.rs2));
        break;
      case Op::SLL:
        writeIreg(in.rd, readIreg(in.rs1) << (in.imm & 63));
        break;
      case Op::SRL:
        writeIreg(in.rd, readIreg(in.rs1) >> (in.imm & 63));
        break;
      case Op::SLT:
        writeIreg(in.rd, as_i64(readIreg(in.rs1)) < as_i64(readIreg(in.rs2)));
        break;
      case Op::SLTI:
        writeIreg(in.rd, as_i64(readIreg(in.rs1)) < in.imm);
        break;
      case Op::LI:
        writeIreg(in.rd, static_cast<std::uint64_t>(in.imm));
        break;

      // Floating point ------------------------------------------------
      case Op::FADD:
        writeFreg(in.rd, readFreg(in.rs1) + readFreg(in.rs2));
        break;
      case Op::FSUB:
        writeFreg(in.rd, readFreg(in.rs1) - readFreg(in.rs2));
        break;
      case Op::FMUL:
        writeFreg(in.rd, readFreg(in.rs1) * readFreg(in.rs2));
        break;
      case Op::FDIV:
        writeFreg(in.rd, readFreg(in.rs1) / readFreg(in.rs2));
        break;
      case Op::FSQRT:
        writeFreg(in.rd, std::sqrt(readFreg(in.rs1)));
        break;
      case Op::FMOV:
        writeFreg(in.rd, readFreg(in.rs1));
        break;
      case Op::CVTIF:
        writeFreg(in.rd, static_cast<double>(as_i64(readIreg(in.rs1))));
        break;
      case Op::CVTFI:
        writeIreg(in.rd, static_cast<std::uint64_t>(
            static_cast<std::int64_t>(readFreg(in.rs1))));
        break;

      // Memory ----------------------------------------------------------
      case Op::LD: case Op::ST: case Op::FLD: case Op::FST: {
        const Addr addr =
            readIreg(in.rs1) + static_cast<std::uint64_t>(in.imm);
        const bool is_store = isa::isStore(in.op);
        const MemLevel level = _hier.access(addr, is_store);
        if (_refSink) [[unlikely]]
            _refSink->onAccess(addr, is_store);

        switch (in.op) {
          case Op::LD:
            writeIreg(in.rd, _mem.read64(addr));
            break;
          case Op::ST:
            _mem.write64(addr, readIreg(in.rs2));
            break;
          case Op::FLD:
            writeFreg(in.rd, std::bit_cast<double>(_mem.read64(addr)));
            break;
          case Op::FST:
            _mem.write64(addr, std::bit_cast<std::uint64_t>(
                readFreg(in.rs2)));
            break;
          default:
            break;
        }

        if constexpr (Fill) {
            out->addr = addr;
            out->level = level;
        }
        ++_stats.dataRefs;
        if (level != MemLevel::L1)
            ++_stats.l1Misses;
        if (level == MemLevel::Memory)
            ++_stats.l2Misses;

        // The cache-outcome condition codes track the most recent
        // data reference's outcome, one bit per hierarchy level
        // (section 2.1 and its multi-level extension).
        _state.ccMiss = level != MemLevel::L1;
        _state.ccMissL2 = level == MemLevel::Memory;

        // Low-overhead miss trap (section 2.2): dispatch if this is an
        // informing operation, trapping is armed, the MHAR is set, and
        // the miss reaches the configured trap level (section 4.1.3's
        // switch-on-secondary-miss filter).
        const bool trap_worthy = _state.trapLevel >= 2
            ? _state.ccMissL2 : _state.ccMiss;
        if (trap_worthy && in.informing && _trapArmed &&
            _state.mhar != 0) {
            if constexpr (Fill)
                out->trapped = true;
            ++_stats.traps;
            _state.mhrr = pc + 1;
            next_pc = static_cast<InstAddr>(_state.mhar);
            _trapArmed = false;
            _inHandler = true;
        }
        break;
      }
      case Op::PREFETCH: {
        const Addr addr =
            readIreg(in.rs1) + static_cast<std::uint64_t>(in.imm);
        _hier.prefetch(addr);
        if (_refSink) [[unlikely]]
            _refSink->onPrefetch(addr);
        if constexpr (Fill)
            out->addr = addr;
        ++_stats.prefetches;
        break;
      }

      // Control ---------------------------------------------------------
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE: {
        bool taken = false;
        const std::uint64_t a = readIreg(in.rs1);
        const std::uint64_t b = readIreg(in.rs2);
        switch (in.op) {
          case Op::BEQ: taken = a == b; break;
          case Op::BNE: taken = a != b; break;
          case Op::BLT: taken = as_i64(a) < as_i64(b); break;
          case Op::BGE: taken = as_i64(a) >= as_i64(b); break;
          default: break;
        }
        ++_stats.condBranches;
        if (taken) {
            ++_stats.takenBranches;
            next_pc = static_cast<InstAddr>(in.imm);
        }
        if constexpr (Fill)
            out->taken = taken;
        else if (warm)
            warm->condBranch(pc, taken);
        break;
      }
      case Op::J:
        next_pc = static_cast<InstAddr>(in.imm);
        break;
      case Op::JAL:
        writeIreg(in.rd, pc + 1);
        next_pc = static_cast<InstAddr>(in.imm);
        break;
      case Op::JR:
        next_pc = static_cast<InstAddr>(readIreg(in.rs1));
        break;

      // Informing extensions ---------------------------------------------
      case Op::SETMHAR:
        _state.mhar = static_cast<std::uint64_t>(in.imm);
        break;
      case Op::SETMHARR:
        _state.mhar = readIreg(in.rs1);
        break;
      case Op::SETMHARPC:
        _state.mhar = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(pc) + in.imm);
        break;
      case Op::SETMHLVL:
        _state.trapLevel = static_cast<std::uint8_t>(in.imm);
        break;
      case Op::GETMHRR:
        writeIreg(in.rd, _state.mhrr);
        break;
      case Op::SETMHRR:
        _state.mhrr = readIreg(in.rs1);
        break;
      case Op::RETMH:
        next_pc = static_cast<InstAddr>(_state.mhrr);
        _trapArmed = true;
        _inHandler = false;
        break;
      case Op::BRMISS:
      case Op::BRMISS2: {
        const bool cc = in.op == Op::BRMISS ? _state.ccMiss
                                            : _state.ccMissL2;
        ++_stats.condBranches;
        if (cc) {
            ++_stats.takenBranches;
            ++_stats.brmissTaken;
            _state.mhrr = pc + 1;
            next_pc = static_cast<InstAddr>(in.imm);
            _inHandler = true;
        }
        if constexpr (Fill)
            out->taken = cc;
        break;
      }

      // Miscellaneous -----------------------------------------------------
      case Op::NOP:
        break;
      case Op::HALT:
        _state.halted = true;
        next_pc = pc;
        break;
      case Op::NumOps:
        panic("executing bad opcode at pc %u", pc);
    }

    ++_stats.instructions;
    if (handler_code)
        ++_stats.handlerInstructions;

    _state.pc = next_pc;
    if constexpr (Fill)
        out->nextPc = next_pc;
    return true;
}

bool
Executor::next(TraceRecord &out)
{
    return stepImpl<true>(&out, nullptr);
}

std::uint64_t
Executor::fastForward(std::uint64_t count, WarmSink *warm)
{
    std::uint64_t done = 0;
    while (done < count && stepImpl<false>(nullptr, warm))
        ++done;
    return done;
}

std::uint64_t
Executor::run()
{
    TraceRecord rec;
    while (next(rec)) {
    }
    return _stats.instructions;
}

void
Executor::registerStats(stats::StatGroup &parent)
{
    auto &g = parent.childGroup("exec");
    g.make<stats::Value>("instructions", "instructions retired",
                         [this] { return _stats.instructions; });
    g.make<stats::Value>("handler_instructions",
                         "instructions retired inside miss handlers",
                         [this] { return _stats.handlerInstructions; });
    g.make<stats::Value>("data_refs", "data references executed",
                         [this] { return _stats.dataRefs; });
    g.make<stats::Value>("l1_misses", "primary-cache misses",
                         [this] { return _stats.l1Misses; });
    g.make<stats::Value>("l2_misses", "secondary-cache misses",
                         [this] { return _stats.l2Misses; });
    g.make<stats::Value>("traps", "informing miss traps dispatched",
                         [this] { return _stats.traps; });
    g.make<stats::Value>("brmiss_taken", "BRMISS branches taken",
                         [this] { return _stats.brmissTaken; });
    g.make<stats::Value>("prefetches", "software prefetches executed",
                         [this] { return _stats.prefetches; });
    g.make<stats::Value>("cond_branches", "conditional branches executed",
                         [this] { return _stats.condBranches; });
    g.make<stats::Value>("taken_branches", "conditional branches taken",
                         [this] { return _stats.takenBranches; });
    g.make<stats::Derived>("l1_miss_rate", "l1_misses / data_refs",
                           [this] { return _stats.l1MissRate(); });
    _hier.registerStats(g);
}

void
Executor::save(Serializer &s) const
{
    s.u64(_program.fingerprint());

    for (const std::uint64_t r : _state.ireg)
        s.u64(r);
    for (const double r : _state.freg)
        s.f64(r);
    s.u32(_state.pc);
    s.u64(_state.mhar);
    s.u64(_state.mhrr);
    s.b(_state.ccMiss);
    s.b(_state.ccMissL2);
    s.u8(_state.trapLevel);
    s.b(_state.halted);

    s.u64(_stats.instructions);
    s.u64(_stats.handlerInstructions);
    s.u64(_stats.dataRefs);
    s.u64(_stats.l1Misses);
    s.u64(_stats.l2Misses);
    s.u64(_stats.traps);
    s.u64(_stats.brmissTaken);
    s.u64(_stats.prefetches);
    s.u64(_stats.condBranches);
    s.u64(_stats.takenBranches);

    s.b(_inHandler);
    s.b(_trapArmed);

    _mem.save(s);
    _hier.save(s);
}

void
Executor::restore(Deserializer &d)
{
    const std::uint64_t fp = d.u64();
    sim_throw_if(fp != _program.fingerprint(), ErrCode::BadCheckpoint,
                 "checkpoint was taken with a different program than "
                 "'%s' (fingerprint %#llx vs %#llx)",
                 _program.name().c_str(),
                 static_cast<unsigned long long>(fp),
                 static_cast<unsigned long long>(_program.fingerprint()));

    for (std::uint64_t &r : _state.ireg)
        r = d.u64();
    for (double &r : _state.freg)
        r = d.f64();
    _state.pc = d.u32();
    _state.mhar = d.u64();
    _state.mhrr = d.u64();
    _state.ccMiss = d.b();
    _state.ccMissL2 = d.b();
    _state.trapLevel = d.u8();
    _state.halted = d.b();
    sim_throw_if(!_state.halted && _state.pc >= _program.size(),
                 ErrCode::BadCheckpoint,
                 "checkpointed pc %u outside program of %u instructions",
                 _state.pc, _program.size());

    _stats.instructions = d.u64();
    _stats.handlerInstructions = d.u64();
    _stats.dataRefs = d.u64();
    _stats.l1Misses = d.u64();
    _stats.l2Misses = d.u64();
    _stats.traps = d.u64();
    _stats.brmissTaken = d.u64();
    _stats.prefetches = d.u64();
    _stats.condBranches = d.u64();
    _stats.takenBranches = d.u64();

    _inHandler = d.b();
    _trapArmed = d.b();

    _mem.restore(d);
    _hier.restore(d);
}

} // namespace imo::func
