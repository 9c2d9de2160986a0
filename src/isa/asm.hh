/**
 * @file
 * Text-format MRISC assembler and program formatter.
 *
 * The format round-trips with formatAssembly(): every instruction the
 * disassembler can print is accepted back. Example:
 *
 *     .name demo
 *     .alloc buf 1024 64        ; symbol, words, alignment
 *     .init buf 1 2 3 0xff      ; initial words at a symbol
 *
 *     start:
 *         li r1, buf            ; data symbols usable as immediates
 *         setmhar handler
 *     loop:
 *         ld r2, 0(r1)
 *         addi r1, r1, 8
 *         addi r3, r3, 1
 *         blt r3, r4, loop
 *         halt
 *     handler:
 *         retmh
 *
 * Control targets may be label names or absolute `@N` addresses;
 * `;` and `#` start comments. Mnemonics and operand syntax come from
 * the op table (isa/op.hh): each op is parsed by its form.
 */

#ifndef IMO_ISA_ASM_HH
#define IMO_ISA_ASM_HH

#include <string>

#include "isa/program.hh"

namespace imo::isa
{

/** Outcome of assembling a source text. */
struct AsmResult
{
    bool ok = false;
    std::string error;     //!< first diagnostic when !ok
    int errorLine = 0;     //!< 1-based source line of the diagnostic
    Program program;
};

/** Assemble MRISC source text into a program. */
AsmResult assemble(const std::string &source);

/**
 * Render @p prog as assembler source that re-assembles to an identical
 * program: one disassembled line per instruction (control targets as
 * absolute `@N`), `.alloc`-free (data segments become `.init` at
 * absolute addresses).
 */
std::string formatAssembly(const Program &prog);

} // namespace imo::isa

#endif // IMO_ISA_ASM_HH
