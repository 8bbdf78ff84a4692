/**
 * @file
 * Stall-watchdog tests: a wedged FSHR (the mock L2 withholds its
 * RootReleaseAck) must be flagged with the occupying transaction's full
 * event history, while legal long waits and a healthy Fig-9-style SoC run
 * must never trip it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../l1/mock_manager.hh"
#include "l1/data_cache.hh"
#include "sim/txn_tracer.hh"
#include "sim/watchdog.hh"
#include "workloads/workloads.hh"

namespace skipit {
namespace {

/** L1-against-mock-L2 rig with a tightly wound watchdog. */
class WatchdogRig : public ::testing::Test
{
  protected:
    Simulator sim;
    Stats stats;
    L1Config cfg{};
    WatchdogConfig wcfg{};
    std::unique_ptr<TLLink> link;
    std::unique_ptr<DataCache> dc;
    std::unique_ptr<MockManager> l2;
    std::unique_ptr<Watchdog> wd;
    TxnTracer tracer;
    std::ostringstream report;
    std::uint64_t next_id = 1;

    void
    build()
    {
        // Thresholds far below the defaults so tests stay fast; a healthy
        // flush completes in ~100 cycles, so 600 cycles of no progress is
        // unambiguous in this rig.
        wcfg.stall_threshold = 600;
        wcfg.scan_interval = 16;
        link = std::make_unique<TLLink>(sim, 1);
        dc = std::make_unique<DataCache>("l1d", sim, cfg, 0, *link, stats);
        l2 = std::make_unique<MockManager>(sim, *link);
        wd = std::make_unique<Watchdog>("watchdog", sim, wcfg);
        wd->watch(*dc);
        wd->setTracer(&tracer);
        wd->setStream(&report);
        sim.probes().attach(tracer);
        sim.add(*dc);
        sim.add(*l2);
        sim.add(*wd);
    }

    /** Submit one request (retrying nacks) and wait for its response.
     *  The rig has no LSU, so transaction ids are drawn here. */
    TxnId
    doOp(CpuOpKind kind, Addr addr, std::uint64_t data = 0)
    {
        for (int attempt = 0; attempt < 100; ++attempt) {
            CpuReq req;
            req.kind = kind;
            req.addr = addr;
            req.data = data;
            req.id = next_id++;
            req.txn = sim.probes().newTxn();
            dc->submit(req);
            CpuResp resp;
            sim.runUntil([&] {
                while (dc->respReady()) {
                    resp = dc->popResp();
                    if (resp.id == req.id)
                        return true;
                }
                return false;
            });
            if (!resp.nack)
                return req.txn;
            sim.run(4);
        }
        ADD_FAILURE() << "operation nacked forever";
        return 0;
    }

    /** Dirty @p addr and wait for the fill to land. */
    void
    dirtyLine(Addr addr, std::uint64_t value)
    {
        doOp(CpuOpKind::Store, addr, value);
        sim.runUntil([&] { return dc->lineDirty(addr); });
    }
};

TEST_F(WatchdogRig, WedgedFshrIsReportedWithTxnHistory)
{
    build();
    l2->hold_rootrelease_acks = true;

    dirtyLine(0x1000, 42);
    const TxnId flush_txn = doOp(CpuOpKind::CboFlush, 0x1000);
    ASSERT_NE(flush_txn, 0u);

    // The FSHR sends RootReleaseData and then waits forever for the ack
    // the mock is holding back.
    sim.run(3000);

    ASSERT_GE(wd->stallsDetected(), 1u);
    const StallRecord &stall = wd->stalls().front();
    EXPECT_NE(stall.resource.find("fshr"), std::string::npos)
        << stall.resource;
    EXPECT_EQ(stall.txn, flush_txn);
    EXPECT_GE(stall.reported_at - stall.stuck_since, wcfg.stall_threshold);

    const std::string out = report.str();
    EXPECT_NE(out.find("WATCHDOG"), std::string::npos);
    EXPECT_NE(out.find("history"), std::string::npos);
    // The dumped history must show how the transaction got here: through
    // the flush queue and into the FSHR.
    EXPECT_NE(out.find("l1.flushq"), std::string::npos);
    EXPECT_NE(out.find("l1.fshr"), std::string::npos);
}

TEST_F(WatchdogRig, StallsFoundInOneScanAreReportedInSnapshotOrder)
{
    // Two FSHRs take the first two flushes and the other four wait in
    // the queue; every one stalls. The names and descriptions are
    // formatted at report time, and the stalls come out in the order the
    // L1 lists them: FSHRs by index, then the queue head to tail.
    cfg.fshrs = 2;
    build();
    l2->hold_rootrelease_acks = true;
    std::vector<TxnId> flushes;
    for (unsigned i = 0; i < 6; ++i)
        dirtyLine(0x6000 + Addr{i} * line_bytes, i + 1);
    for (unsigned i = 0; i < 6; ++i)
        flushes.push_back(
            doOp(CpuOpKind::CboFlush, 0x6000 + Addr{i} * line_bytes));
    sim.run(3000);

    std::vector<std::string> want = {"l1d.fshr0", "l1d.fshr1"};
    for (unsigned i = 2; i < 6; ++i)
        want.push_back("l1d.flushq.txn" + std::to_string(flushes[i]));
    std::vector<std::string> names;
    for (const StallRecord &s : wd->stalls())
        names.push_back(s.resource);
    ASSERT_EQ(names, want);
    EXPECT_EQ(wd->stalls()[1].describe, "state=root-release-ack");
    EXPECT_EQ(wd->stalls()[2].describe, "queued at position 0");
    EXPECT_EQ(wd->stalls()[5].describe, "queued at position 3");
    const StallRecord &s = wd->stalls()[2];
    EXPECT_NE(report.str().find(
                  "WATCHDOG: " + s.resource + " stalled for " +
                  std::to_string(s.reported_at - s.stuck_since) +
                  " cycles (txn " + std::to_string(s.txn) +
                  ", queued at position 0)\n"),
              std::string::npos)
        << report.str();
}

TEST_F(WatchdogRig, StallReportedOncePerContinuousStall)
{
    build();
    l2->hold_rootrelease_acks = true;
    dirtyLine(0x2000, 7);
    doOp(CpuOpKind::CboFlush, 0x2000);

    sim.run(3000);
    const std::size_t after_first = wd->stallsDetected();
    ASSERT_GE(after_first, 1u);
    sim.run(3000);
    EXPECT_EQ(wd->stallsDetected(), after_first);
}

TEST_F(WatchdogRig, RecoveredStallClearsAndDoesNotRefire)
{
    build();
    l2->hold_rootrelease_acks = true;
    dirtyLine(0x3000, 9);
    doOp(CpuOpKind::CboFlush, 0x3000);
    sim.run(3000);
    ASSERT_GE(wd->stallsDetected(), 1u);
    const std::size_t count = wd->stallsDetected();

    // Unwedge: the held ack completes the FSHR; the resource vanishes and
    // nothing new is reported no matter how long we keep running.
    l2->releaseHeldAcks();
    sim.runUntil([&] { return dc->quiesced(); });
    sim.run(3000);
    EXPECT_EQ(wd->stallsDetected(), count);
}

TEST_F(WatchdogRig, HealthyFlushTrafficNeverTrips)
{
    build();
    // Normal acks, many flushes back to back: every FSHR keeps making
    // progress, so even the tight test threshold must stay silent.
    for (int i = 0; i < 8; ++i) {
        const Addr addr = 0x4000 + static_cast<Addr>(i) * line_bytes;
        dirtyLine(addr, static_cast<std::uint64_t>(i + 1));
        doOp(CpuOpKind::CboFlush, addr);
    }
    sim.runUntil([&] { return dc->quiesced(); });
    sim.run(2000);
    EXPECT_EQ(wd->stallsDetected(), 0u);
    EXPECT_TRUE(report.str().empty());
}

TEST_F(WatchdogRig, DisabledWatchdogStaysSilentEvenWhenWedged)
{
    wcfg.enabled = false;
    build();
    l2->hold_rootrelease_acks = true;
    dirtyLine(0x5000, 1);
    doOp(CpuOpKind::CboFlush, 0x5000);
    sim.run(3000);
    EXPECT_EQ(wd->stallsDetected(), 0u);
}

TEST(WatchdogSoc, HealthyFig9StyleRunHasZeroStalls)
{
    // Full-system sanity: the watchdog is on by default in every SoC; a
    // Fig-9-style dirty-then-writeback run must complete with no stalls
    // even with a much tighter threshold than the default.
    SoCConfig cfg;
    cfg.watchdog.stall_threshold = 20'000;
    cfg.watchdog.scan_interval = 128;
    SoC soc(cfg);

    constexpr unsigned lines = 64; // 4 KiB region
    soc.hart(0).setProgram(
        workloads::dirtyRegion(workloads::region_base, lines));
    soc.runToQuiescence();
    soc.hart(0).setProgram(workloads::writebackRegion(
        workloads::region_base, lines, /*flush=*/true));
    soc.runToCompletion();

    EXPECT_EQ(soc.watchdog().stallsDetected(), 0u);
    EXPECT_EQ(soc.dram().peekWord(workloads::region_base), 1u);
}

} // namespace
} // namespace skipit
