/**
 * @file
 * Informing-memory-operation instrumentation.
 *
 * The paper evaluates four configurations per workload (Figures 2-3):
 *   N  no informing operations (baseline),
 *   S  low-overhead miss traps with one global handler (zero overhead
 *      on hits),
 *   U  a unique handler per static reference, selected by one extra
 *      SETMHAR instruction before every memory operation,
 *   CC the cache-outcome condition-code mechanism: one explicit BRMISS
 *      check instruction after every memory operation.
 *
 * The Instrumentor rewrites a finished program into any of these forms,
 * appending generic miss handlers (dependent chains of k instructions,
 * the paper's "generic miss handlers") and re-patching every absolute
 * control target.
 */

#ifndef IMO_CORE_INFORMING_HH
#define IMO_CORE_INFORMING_HH

#include <cstdint>
#include <string>

#include "isa/program.hh"

namespace imo::core
{

/** Informing mechanism / handler-management policy. */
enum class InformingMode : std::uint8_t
{
    None,        //!< N: MHAR stays zero, no checks
    TrapSingle,  //!< S: one handler installed once
    TrapUnique,  //!< U: SETMHAR before every data reference
    CondCode,    //!< explicit BRMISS after every data reference
};

/** @return a short name: "N", "S", "U", "CC". */
const char *informingModeName(InformingMode mode);

/**
 * Does instrument() give @p mode a different program for each handler
 * length? Mode N appends no handlers, so every valid (nonzero) length
 * yields the same program.
 */
bool handlerLengthShapesProgram(InformingMode mode);

/** Parameters of the generic miss handlers of section 4.2. */
struct GenericHandlerParams
{
    /**
     * Number of handler instructions excluding the return. The paper
     * evaluates 1, 10 and 100, pessimistically all data-dependent.
     */
    std::uint32_t length = 10;

    /**
     * Scratch registers rotated across unique handlers. The paper notes
     * that distinct handlers are not data-dependent on each other while
     * a single handler depends on its previous invocation; rotating the
     * chain register across static references reproduces that.
     */
    std::uint32_t rotateRegs = 8;

    /** First integer scratch register used by handler chains. */
    std::uint8_t firstScratchReg = 24;
};

/**
 * Rewrite @p base into informing mode @p mode with generic handlers.
 *
 * Control-flow targets are re-patched across insertions; handler code
 * is appended after the original text. The result validates.
 */
isa::Program instrument(const isa::Program &base, InformingMode mode,
                        const GenericHandlerParams &params);

/** Static cost model: instructions inserted per data reference. */
std::uint32_t perRefOverheadInsts(InformingMode mode);

/**
 * A program rewritten with the section-4.1.1 miss-counting profiler
 * handler, plus the table layout needed to read its results back.
 *
 * The handler hashes the trap return address (MHRR == missed pc + 1)
 * into a table of per-reference 64-bit miss counters: slot
 * (pc + 1) & (slots() - 1). slotsLog2 exceeds log2(program size), so
 * every static reference maps to a unique slot and the handler-
 * collected profile can be compared exactly against a simulator-side
 * per-PC miss profile (obs::PcProfiler) of the same run.
 */
struct MissProfilerProgram
{
    isa::Program program;
    Addr tableBase = 0;
    std::uint32_t slotsLog2 = 0;

    std::uint64_t slots() const { return std::uint64_t{1} << slotsLog2; }

    /** Table address of the counter for the (rewritten-program)
     *  reference at @p pc. */
    Addr
    slotAddr(InstAddr pc) const
    {
        return tableBase + ((pc + 1) & (slots() - 1)) * 8;
    }
};

/**
 * Rewrite @p base in TrapSingle fashion (one SETMHAR prelude, every
 * original instruction shifted by one) with the hash-table profiling
 * handler of section 4.1.1 as the single global handler. The counter
 * table lives at @p table_base (uninitialized memory reads as zero,
 * so no data segment is needed); it must not overlap workload data.
 */
MissProfilerProgram instrumentWithMissProfiler(
    const isa::Program &base, Addr table_base = 0x1000'0000);

} // namespace imo::core

#endif // IMO_CORE_INFORMING_HH
