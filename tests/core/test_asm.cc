/**
 * @file
 * Unit tests for the program assembler and the RISC-V CMO / FENCE
 * machine-code encodings.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/asm.hh"
#include "soc/soc.hh"

namespace skipit {
namespace {

TEST(Assembler, ParsesAllMnemonics)
{
    const Program p = assembleProgram(R"(
        store 0x1000 42     ; a store
        cbo.clean 0x1000
        cbo.flush 0x1040    # a flush
        fence
        load 0x1000
        delay 25
    )");
    ASSERT_EQ(p.size(), 6u);
    EXPECT_EQ(p[0].kind, MemOpKind::Store);
    EXPECT_EQ(p[0].addr, 0x1000u);
    EXPECT_EQ(p[0].data, 42u);
    EXPECT_EQ(p[1].kind, MemOpKind::CboClean);
    EXPECT_EQ(p[2].kind, MemOpKind::CboFlush);
    EXPECT_EQ(p[2].addr, 0x1040u);
    EXPECT_EQ(p[3].kind, MemOpKind::Fence);
    EXPECT_EQ(p[4].kind, MemOpKind::Load);
    EXPECT_EQ(p[5].kind, MemOpKind::Delay);
    EXPECT_EQ(p[5].delay, 25u);
}

TEST(Assembler, ParsesAndRoundTripsWaitUntil)
{
    const Program p = assembleProgram(R"(
        waituntil 1234
        load 0x1000
    )");
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0].kind, MemOpKind::WaitUntil);
    EXPECT_EQ(p[0].delay, 1234u);
    const Program p2 = assembleProgram(disassembleProgram(p));
    ASSERT_EQ(p2.size(), 2u);
    EXPECT_EQ(p2[0].kind, MemOpKind::WaitUntil);
    EXPECT_EQ(p2[0].delay, 1234u);
}

TEST(Assembler, IgnoresBlankAndCommentLines)
{
    const Program p = assembleProgram("\n; nothing\n# nothing\n\nfence\n");
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0].kind, MemOpKind::Fence);
}

TEST(Assembler, AcceptsDecimalAndHex)
{
    const Program p = assembleProgram("store 4096 0x2a\n");
    EXPECT_EQ(p[0].addr, 4096u);
    EXPECT_EQ(p[0].data, 42u);
}

TEST(Assembler, DisassembleRoundTrips)
{
    const Program p = assembleProgram(R"(
        store 0x2000 0x7
        cbo.flush 0x2000
        fence
        load 0x2000
        delay 10
    )");
    const Program p2 = assembleProgram(disassembleProgram(p));
    ASSERT_EQ(p2.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_EQ(p2[i].kind, p[i].kind) << i;
        EXPECT_EQ(p2[i].addr, p[i].addr) << i;
        EXPECT_EQ(p2[i].data, p[i].data) << i;
        EXPECT_EQ(p2[i].delay, p[i].delay) << i;
    }
}

TEST(Assembler, AssembledProgramRunsOnTheSoC)
{
    SoC soc{SoCConfig{}};
    soc.hart(0).setProgram(assembleProgram(R"(
        store 0x3000 123
        cbo.flush 0x3000
        fence
    )"));
    soc.runToCompletion();
    EXPECT_EQ(soc.dram().peekWord(0x3000), 123u);
}

/** The message assembleProgram() throws for @p listing, or "" if it
 *  assembles. */
std::string
assembleError(const std::string &listing)
{
    try {
        assembleProgram(listing);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

TEST(Assembler, RejectsUnknownMnemonic)
{
    EXPECT_NE(assembleError("frobnicate 0x10\n").find("unknown"),
              std::string::npos);
}

TEST(Assembler, RejectsMissingOperand)
{
    EXPECT_NE(assembleError("store 0x10\n").find("store needs"),
              std::string::npos);
}

TEST(Assembler, RejectsANumberWithATail)
{
    // The whole token is the number: "42x" is not a store of 42.
    for (const char *line : {"store 0x1000 42x\n", "load 0x1000z\n",
                             "delay -5\n", "store 0x1000 +1\n"}) {
        EXPECT_NE(assembleError(line).find("bad number"), std::string::npos)
            << line;
    }
    EXPECT_NE(assembleError("store 0x1000 42x\n")
                  .find("bad number '42x' in line: store 0x1000 42x"),
              std::string::npos);
}

TEST(RiscvEncoding, CboCleanMatchesCmoSpec)
{
    // cbo.clean with rs1 = x10 (a0): imm=1, funct3=CBO(010), opcode
    // MISC-MEM (0001111), rd = x0.
    const std::uint32_t insn = riscv::encodeCboClean(10);
    EXPECT_EQ(insn, (1u << 20) | (10u << 15) | (0b010u << 12) | 0b0001111u);
    EXPECT_STREQ(riscv::decodeKind(insn), "cbo.clean");
}

TEST(RiscvEncoding, CboFlushMatchesCmoSpec)
{
    const std::uint32_t insn = riscv::encodeCboFlush(5);
    EXPECT_EQ(insn, (2u << 20) | (5u << 15) | (0b010u << 12) | 0b0001111u);
    EXPECT_STREQ(riscv::decodeKind(insn), "cbo.flush");
}

TEST(RiscvEncoding, FenceRwRw)
{
    // FENCE RW,RW: pred=succ=0011 in bits 27:24 / 23:20.
    const std::uint32_t insn = riscv::encodeFenceRwRw();
    EXPECT_EQ(insn, (0b0011u << 24) | (0b0011u << 20) | 0b0001111u);
    EXPECT_STREQ(riscv::decodeKind(insn), "fence");
}

TEST(RiscvEncoding, DecodeRejectsForeignOpcodes)
{
    EXPECT_STREQ(riscv::decodeKind(0x00000013), "unknown"); // addi x0,x0,0
    EXPECT_STREQ(riscv::decodeKind((7u << 20) | (0b010u << 12) |
                                   0b0001111u),
                 "unknown"); // CBO with reserved imm
}

} // namespace
} // namespace skipit
