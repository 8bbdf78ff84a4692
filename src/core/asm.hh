/**
 * @file
 * A tiny assembler for hart programs, plus the actual RISC-V instruction
 * encodings of the operations the paper adds/uses (CBO.CLEAN, CBO.FLUSH
 * from the CMO extension [60], and FENCE).
 *
 * The textual form makes microbenchmarks readable and scriptable:
 *
 *   store  0x1000 42     ; sd-style store of an immediate
 *   cbo.flush 0x1000
 *   cbo.clean 0x1000
 *   fence
 *   load   0x1000
 *   delay  100           ; compute for 100 cycles
 *
 * `;` and `#` start comments; blank lines are ignored.
 */

#ifndef SKIPIT_CORE_ASM_HH
#define SKIPIT_CORE_ASM_HH

#include <cstdint>
#include <string>

#include "mem_op.hh"

namespace skipit {

/**
 * Parse an assembly listing into a Program. Each number is one whole
 * token: decimal, 0x-hex or 0-octal.
 * @throws std::runtime_error naming the line on malformed input
 */
Program assembleProgram(const std::string &listing);

/** Render a Program back to its textual form (round-trips assemble). */
std::string disassembleProgram(const Program &program);

/**
 * Machine-code encodings per the RISC-V CMO spec [60] and base ISA [72].
 * CBO.X live in the MISC-MEM major opcode (0001111) with funct3 = CBO
 * (010); the operation is selected by the 12-bit immediate: 1 = clean,
 * 2 = flush. The base address register goes in rs1, rd must be x0.
 */
namespace riscv {

/** Encode `cbo.clean 0(rs1)`. */
std::uint32_t encodeCboClean(unsigned rs1);

/** Encode `cbo.flush 0(rs1)`. */
std::uint32_t encodeCboFlush(unsigned rs1);

/** Encode `cbo.inval 0(rs1)`. */
std::uint32_t encodeCboInval(unsigned rs1);

/** Encode `cbo.zero 0(rs1)` (the CMO spec's CBO.ZERO, imm = 4). */
std::uint32_t encodeCboZero(unsigned rs1);

/** Encode `fence pred, succ` (pred/succ are IORW bitmasks, bit3=I,
 *  bit2=O, bit1=R, bit0=W). FENCE RW,RW = encodeFence(0b0011, 0b0011). */
std::uint32_t encodeFence(unsigned pred, unsigned succ);

/** The strongest fence the BOOM implements (§4): FENCE RW,RW. */
std::uint32_t encodeFenceRwRw();

/** Classify a 32-bit instruction word.
 *  @return "cbo.clean", "cbo.flush", "fence" or "unknown" */
const char *decodeKind(std::uint32_t insn);

} // namespace riscv

} // namespace skipit

#endif // SKIPIT_CORE_ASM_HH
