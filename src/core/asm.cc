#include "asm.hh"

#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace skipit {

namespace {

[[noreturn]] void
bad(const std::string &why, const std::string &line)
{
    throw std::runtime_error(why + " in line: " + line);
}

/** @p tok, the whole token, as a decimal, 0x-hex or 0-octal number. */
std::uint64_t
parseNumber(const std::string &tok, const std::string &line)
{
    if (const std::optional<std::uint64_t> v = unsignedToken(tok))
        return *v;
    bad("bad number '" + tok + "'", line);
}

/** The one-operand mnemonics: what the operand is, and the op. */
const std::map<std::string,
               std::pair<const char *, MemOp (*)(std::uint64_t)>>
    unary = {
        {"load", {"an address", [](Addr a) { return MemOp::load(a); }}},
        {"cbo.clean", {"an address", MemOp::clean}},
        {"cbo.flush", {"an address", MemOp::flush}},
        {"cbo.inval", {"an address", MemOp::inval}},
        {"cbo.zero", {"an address", MemOp::zero}},
        {"delay", {"a cycle count", MemOp::compute}},
        {"rdcycle", {"a marker id", MemOp::marker}},
        {"waituntil", {"an absolute cycle", MemOp::waitUntil}},
};

} // namespace

Program
assembleProgram(const std::string &listing)
{
    Program program;
    std::istringstream in(listing);
    std::string raw;
    while (std::getline(in, raw)) {
        // Strip comments.
        const auto cut = raw.find_first_of(";#");
        std::string line = cut == std::string::npos ? raw
                                                    : raw.substr(0, cut);
        std::istringstream ls(line);
        std::string op;
        if (!(ls >> op))
            continue; // blank line

        std::string a, b;
        ls >> a >> b;
        if (op == "fence") {
            program.push_back(MemOp::fence());
        } else if (op == "store") {
            if (a.empty() || b.empty())
                bad("store needs address and value", raw);
            program.push_back(MemOp::store(parseNumber(a, raw),
                                           parseNumber(b, raw)));
        } else if (const auto it = unary.find(op); it != unary.end()) {
            if (a.empty())
                bad(op + " needs " + it->second.first, raw);
            program.push_back(it->second.second(parseNumber(a, raw)));
        } else {
            bad("unknown mnemonic '" + op + "'", raw);
        }
    }
    return program;
}

std::string
disassembleProgram(const Program &program)
{
    std::ostringstream out;
    out << std::hex;
    for (const MemOp &op : program) {
        switch (op.kind) {
          case MemOpKind::Load:
            out << "load 0x" << op.addr << "\n";
            break;
          case MemOpKind::Store:
            out << "store 0x" << op.addr << " 0x" << op.data << "\n";
            break;
          case MemOpKind::CboClean:
            out << "cbo.clean 0x" << op.addr << "\n";
            break;
          case MemOpKind::CboFlush:
            out << "cbo.flush 0x" << op.addr << "\n";
            break;
          case MemOpKind::CboInval:
            out << "cbo.inval 0x" << op.addr << "\n";
            break;
          case MemOpKind::CboZero:
            out << "cbo.zero 0x" << op.addr << "\n";
            break;
          case MemOpKind::Fence:
            out << "fence\n";
            break;
          case MemOpKind::Delay:
            out << "delay " << std::dec << op.delay << std::hex << "\n";
            break;
          case MemOpKind::Marker:
            out << "rdcycle " << std::dec << op.data << std::hex << "\n";
            break;
          case MemOpKind::WaitUntil:
            out << "waituntil " << std::dec << op.delay << std::hex
                << "\n";
            break;
        }
    }
    return out.str();
}

namespace riscv {

namespace {

constexpr std::uint32_t misc_mem_opcode = 0b0001111;
constexpr std::uint32_t funct3_cbo = 0b010;
constexpr std::uint32_t funct3_fence = 0b000;
constexpr std::uint32_t cbo_inval_imm = 0;
constexpr std::uint32_t cbo_clean_imm = 1;
constexpr std::uint32_t cbo_flush_imm = 2;
constexpr std::uint32_t cbo_zero_imm = 4;

std::uint32_t
encodeCbo(std::uint32_t imm, unsigned rs1)
{
    SKIPIT_ASSERT(rs1 < 32, "rs1 out of range");
    return (imm << 20) | (static_cast<std::uint32_t>(rs1) << 15) |
           (funct3_cbo << 12) | misc_mem_opcode;
}

} // namespace

std::uint32_t
encodeCboClean(unsigned rs1)
{
    return encodeCbo(cbo_clean_imm, rs1);
}

std::uint32_t
encodeCboFlush(unsigned rs1)
{
    return encodeCbo(cbo_flush_imm, rs1);
}

std::uint32_t
encodeCboInval(unsigned rs1)
{
    return encodeCbo(cbo_inval_imm, rs1);
}

std::uint32_t
encodeCboZero(unsigned rs1)
{
    return encodeCbo(cbo_zero_imm, rs1);
}

std::uint32_t
encodeFence(unsigned pred, unsigned succ)
{
    SKIPIT_ASSERT(pred < 16 && succ < 16, "fence sets are 4-bit IORW");
    return (static_cast<std::uint32_t>(pred) << 24) |
           (static_cast<std::uint32_t>(succ) << 20) |
           (funct3_fence << 12) | misc_mem_opcode;
}

std::uint32_t
encodeFenceRwRw()
{
    return encodeFence(0b0011, 0b0011);
}

const char *
decodeKind(std::uint32_t insn)
{
    if ((insn & 0x7f) != misc_mem_opcode)
        return "unknown";
    const std::uint32_t funct3 = (insn >> 12) & 0x7;
    if (funct3 == funct3_fence)
        return "fence";
    if (funct3 == funct3_cbo) {
        const std::uint32_t imm = insn >> 20;
        if (imm == cbo_inval_imm)
            return "cbo.inval";
        if (imm == cbo_clean_imm)
            return "cbo.clean";
        if (imm == cbo_flush_imm)
            return "cbo.flush";
        if (imm == cbo_zero_imm)
            return "cbo.zero";
    }
    return "unknown";
}

} // namespace riscv
} // namespace skipit
