/**
 * @file
 * Unit tests for the observability layer: probe hub dispatch, log2
 * histograms, the transaction tracer's pairing/histogram logic, and the
 * Chrome trace-event JSON export.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/histogram.hh"
#include "sim/probe.hh"
#include "sim/simulator.hh"
#include "sim/txn_tracer.hh"

namespace skipit {
namespace {

class RecordingSink : public probe::Sink
{
  public:
    std::vector<probe::Event> events;
    void onEvent(const probe::Event &e) override { events.push_back(e); }
};

TEST(ProbeHub, InactiveWithoutSinks)
{
    probe::Hub hub;
    EXPECT_FALSE(hub.active());
    RecordingSink sink;
    hub.attach(sink);
    EXPECT_TRUE(hub.active());
    hub.detach(sink);
    EXPECT_FALSE(hub.active());
}

TEST(ProbeHub, TxnIdsAdvanceWhetherObservedOrNot)
{
    // Determinism requirement: attaching a sink must never change the ids
    // handed out, so newTxn() counts unconditionally.
    probe::Hub hub;
    const TxnId first = hub.newTxn();
    RecordingSink sink;
    hub.attach(sink);
    const TxnId second = hub.newTxn();
    EXPECT_EQ(second, first + 1);
}

TEST(ProbeHub, EventsReachEveryAttachedSink)
{
    probe::Hub hub;
    RecordingSink a, b;
    hub.attach(a);
    hub.attach(b);
    hub.instant(7, 42, "stage", "track", "detail");
    ASSERT_EQ(a.events.size(), 1u);
    ASSERT_EQ(b.events.size(), 1u);
    EXPECT_EQ(a.events[0].cycle, 7u);
    EXPECT_EQ(a.events[0].txn, 42u);
    EXPECT_STREQ(a.events[0].stage, "stage");
    EXPECT_EQ(a.events[0].track, "track");
}

TEST(ProbeHub, PrintEventFormatsOneLine)
{
    // One format for TxnTracer::dumpTxn and skipit-run's --trace sink.
    const probe::Event begin{112, 0, 3, probe::Event::Kind::Begin,
                             "l1.flushq", "core0.l1d.flushq",
                             "cbo.flush 0x1000"};
    const probe::Event span{131, 20, 3, probe::Event::Kind::Span,
                            "dram.write", "dram", ""};
    std::ostringstream os;
    probe::printEvent(os, begin);
    EXPECT_EQ(os.str(),
              "112 [l1.flushq] begin core0.l1d.flushq: cbo.flush 0x1000");
    os.str("");
    probe::printEvent(os, span);
    EXPECT_EQ(os.str(), "131 [dram.write] span dram (dur 20)");

    TxnTracer tracer;
    tracer.onEvent(begin);
    tracer.onEvent(span);
    std::ostringstream dump;
    tracer.dumpTxn(3, dump, "> ");
    EXPECT_EQ(dump.str(),
              "> 112 [l1.flushq] begin core0.l1d.flushq: cbo.flush 0x1000\n"
              "> 131 [dram.write] span dram (dur 20)\n");
}

TEST(SimulatorHub, AccessibleThroughConstReference)
{
    // TLChannel and other latency-only holders keep `const Simulator &`;
    // they must still be able to emit events.
    Simulator sim;
    const Simulator &cref = sim;
    RecordingSink sink;
    cref.probes().attach(sink);
    EXPECT_TRUE(cref.probes().active());
    cref.probes().instant(0, cref.probes().newTxn(), "s", "t");
    EXPECT_EQ(sink.events.size(), 1u);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo)
{
    Histogram h;
    h.add(0);    // bucket 0: [0, 1)
    h.add(0.5);  // bucket 0
    h.add(1);    // bucket 1: [1, 2)
    h.add(2);    // bucket 2: [2, 4)
    h.add(3);    // bucket 2
    h.add(4);    // bucket 3: [4, 8)
    h.add(1024); // bucket 11: [1024, 2048)
    const auto &b = h.buckets();
    ASSERT_EQ(b.size(), 12u);
    EXPECT_EQ(b[0], 2u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 2u);
    EXPECT_EQ(b[3], 1u);
    EXPECT_EQ(b[11], 1u);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(2), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(2), 4.0);
}

TEST(Histogram, ExactPercentilesFromRetainedSamples)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, EmptyQueriesAreNaN)
{
    Histogram h;
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.median()));
    EXPECT_TRUE(std::isnan(h.percentile(99)));
}

TEST(TxnTracer, PairsBeginEndIntoStageLatencies)
{
    TxnTracer tracer;
    probe::Hub hub;
    hub.attach(tracer);
    hub.begin(10, 1, "l1.fshr", "l1d.fshr0");
    hub.begin(12, 2, "l1.fshr", "l1d.fshr1");
    hub.end(30, 1, "l1.fshr", "l1d.fshr0");
    hub.end(52, 2, "l1.fshr", "l1d.fshr1");
    hub.span(5, 4, 1, "tl.c", "core0.tl.c");
    const Histogram *fshr = tracer.histogram("l1.fshr");
    ASSERT_NE(fshr, nullptr);
    EXPECT_EQ(fshr->count(), 2u);
    EXPECT_DOUBLE_EQ(fshr->min(), 20.0);
    EXPECT_DOUBLE_EQ(fshr->max(), 40.0);
    const Histogram *tl = tracer.histogram("tl.c");
    ASSERT_NE(tl, nullptr);
    EXPECT_DOUBLE_EQ(tl->max(), 4.0);
    EXPECT_EQ(tracer.histogram("never"), nullptr);
}

TEST(TxnTracer, EventsForReturnsOneTxnsHistoryInOrder)
{
    TxnTracer tracer;
    probe::Hub hub;
    hub.attach(tracer);
    hub.begin(1, 7, "lsu.window", "core0.lsu");
    hub.instant(2, 8, "lsu.fire", "core0.lsu"); // different txn
    hub.instant(3, 7, "lsu.fire", "core0.lsu");
    hub.end(9, 7, "lsu.window", "core0.lsu");
    const auto events = tracer.eventsFor(7);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].cycle, 1u);
    EXPECT_EQ(events[1].cycle, 3u);
    EXPECT_EQ(events[2].cycle, 9u);
    EXPECT_TRUE(tracer.eventsFor(99).empty());

    std::ostringstream os;
    tracer.dumpTxn(7, os);
    EXPECT_NE(os.str().find("lsu.window"), std::string::npos);
    EXPECT_NE(os.str().find("begin"), std::string::npos);
}

TEST(TxnTracer, ChromeExportIsWellFormedJson)
{
    TxnTracer tracer;
    probe::Hub hub;
    hub.attach(tracer);
    hub.begin(10, 1, "l1.fshr", "l1d.fshr0", "cbo.flush 0x1000");
    hub.instant(15, 1, "l1.fshr.state", "l1d.fshr0", "root-release");
    hub.end(40, 1, "l1.fshr", "l1d.fshr0");
    hub.span(11, 4, 1, "tl.c", "core0.tl.c", "data \"beats\"\n");
    hub.begin(50, 2, "l1.fshr", "l1d.fshr0"); // left open: wedged txn
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();

    // Structural spot checks (no JSON library in the test binary).
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"l1d.fshr0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":30"), std::string::npos); // 40 - 10
    EXPECT_NE(json.find(" (open)"), std::string::npos);    // unmatched begin
    EXPECT_NE(json.find("\\\"beats\\\"\\n"), std::string::npos); // escaping
    // Balanced braces/brackets => parseable nesting.
    long depth = 0;
    bool in_str = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
        } else if (c == '"') {
            in_str = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

TEST(TxnTracer, HistogramOnlyModeKeepsNoEvents)
{
    TxnTracer tracer(/*keep_events=*/false);
    probe::Hub hub;
    hub.attach(tracer);
    hub.begin(0, 1, "s", "t");
    hub.end(8, 1, "s", "t");
    EXPECT_EQ(tracer.eventCount(), 0u);
    ASSERT_NE(tracer.histogram("s"), nullptr);
    EXPECT_DOUBLE_EQ(tracer.histogram("s")->max(), 8.0);
}

} // namespace
} // namespace skipit
