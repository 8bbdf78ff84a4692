#include "durability.hh"

#include <cstring>
#include <utility>

#include "dram/dram.hh"
#include "l1/data_cache.hh"
#include "l2/directory.hh"
#include "l2/cache.hh"
#include "sim/logging.hh"

namespace skipit::verify {

DurabilityOracle::DurabilityOracle(std::string name, Simulator &sim,
                                   const DurabilityConfig &cfg)
    : Ticked(std::move(name), Role::Observer), sim_(sim), cfg_(cfg)
{
}

void
DurabilityOracle::addL1(const DataCache &l1)
{
    l1s_.push_back(&l1);
}

void
DurabilityOracle::onEvent(const probe::Event &e)
{
    if (!cfg_.enabled || summary_.crashed)
        return;
    pending_.push_back(e);
}

std::uint64_t
DurabilityOracle::durableKey(TxnId txn, std::uint64_t fp)
{
    return probe::fingerprint(0, txn, fp);
}

std::uint64_t
DurabilityOracle::persistLineFp(Addr line) const
{
    SKIPIT_ASSERT(dram_ != nullptr, "durability oracle without a DRAM");
    return lineFingerprint(dram_->persistLine(line));
}

std::vector<DurabilityOracle::Obligation> &
DurabilityOracle::completedFor(unsigned hart)
{
    if (completed_.size() <= hart)
        completed_.resize(hart + 1);
    return completed_[hart];
}

void
DurabilityOracle::tick()
{
    if (!cfg_.enabled) {
        pending_.clear();
        return;
    }
    if (summary_.crashed) {
        // The power is off: events from post-crash execution never
        // happened as far as the audit is concerned.
        pending_.clear();
        return;
    }
    for (const probe::Event &e : pending_)
        process(e);
    pending_.clear();
}

void
DurabilityOracle::process(const probe::Event &e)
{
    // Event-triggered crash: arm for the next cycle boundary, so the
    // frozen image includes everything up to and including the cycle the
    // trigger event happened in.
    if (!cfg_.crash_on_stage.empty() && armed_crash_at_ == 0 &&
        cfg_.crash_on_stage == e.stage) {
        armed_crash_at_ = e.cycle + 1;
    }

    if (std::strcmp(e.stage, "persist.wb.data") == 0) {
        // A data-carrying RootRelease left the FSHR: record the promise.
        Obligation ob;
        ob.line = e.addr;
        ob.fp = e.arg;
        ob.capture_seq = next_seq_;
        wb_data_[e.txn] = ob;
        return;
    }

    if (std::strcmp(e.stage, "dram.write") == 0) {
        durable_.insert(durableKey(e.txn, e.arg));
        line_last_write_[e.addr] = LastWrite{next_seq_++, e.arg};
        return;
    }

    if (std::strcmp(e.stage, "persist.complete") == 0) {
        auto it = wb_data_.find(e.txn);
        if (it == wb_data_.end())
            return; // data-less completion: nothing promised
        Obligation ob = it->second;
        wb_data_.erase(it);
        const CboKind kind = static_cast<CboKind>(e.arg & 3);
        if (kind == CboKind::Inval)
            return; // contract: CBO.INVAL discards dirty data
        // The promise is discharged by the exact captured data landing,
        // or by any coherence-newer write of the line (seq >= capture):
        // a racing store can merge into the writeback below the FSHR,
        // and the newer line subsumes the captured stores.
        auto lw = line_last_write_.find(ob.line);
        const bool newer_line_write = lw != line_last_write_.end() &&
                                      lw->second.seq >= ob.capture_seq;
        if (durable_.find(durableKey(e.txn, ob.fp)) == durable_.end() &&
            !newer_line_write) {
            fail("completion-durability",
                 detail::concat("txn ", e.txn, " completed cbo on 0x",
                                std::hex, ob.line,
                                " but its data (fp ", ob.fp,
                                ") never reached the persist domain"));
            return;
        }
        // Track the claim only while its write is the line's latest; a
        // newer write means newer data legitimately superseded it.
        if (lw == line_last_write_.end() || lw->second.fp != ob.fp)
            return;
        ob.wb_seq = lw->second.seq;
        const unsigned lane =
            static_cast<unsigned>(e.txn >> probe::Hub::txn_lane_shift);
        if (lane == 0)
            return; // not a hart-issued transaction
        completedFor(lane - 1).push_back(ob);
        return;
    }

    if (std::strcmp(e.stage, "persist.fence") == 0) {
        // The hart has observed every older CBO complete: its completed
        // obligations become sealed durability claims.
        const unsigned hart = static_cast<unsigned>(e.arg);
        if (fences_.size() <= hart)
            fences_.resize(hart + 1, 0);
        ++fences_[hart];
        std::vector<Obligation> &done = completedFor(hart);
        for (const Obligation &ob : done) {
            auto it = sealed_.find(ob.line);
            if (it == sealed_.end() || it->second.wb_seq < ob.wb_seq)
                sealed_[ob.line] = ob;
        }
        done.clear();
        return;
    }

    if (std::strcmp(e.stage, "l1.skipit") == 0) {
        // Skip-drop soundness (§6.1): the elided writeback's bytes must
        // already be in the persist domain.
        const std::uint64_t img = persistLineFp(e.addr);
        if (img != e.arg) {
            fail("skip-drop",
                 detail::concat("skip bit elided a writeback of 0x",
                                std::hex, e.addr, " (txn ", std::dec,
                                e.txn, ") whose data (fp ", e.arg,
                                ") differs from the persist domain (fp ",
                                img, ")"));
        }
        return;
    }

    if (std::strcmp(e.stage, "persist.skipset") == 0) {
        const std::uint64_t img = persistLineFp(e.addr);
        if (img != e.arg) {
            fail("skip-set",
                 detail::concat("skip bit set on 0x", std::hex, e.addr,
                                " (txn ", std::dec, e.txn,
                                ") whose data (fp ", e.arg,
                                ") differs from the persist domain (fp ",
                                img, ")"));
        }
        return;
    }

    if (std::strcmp(e.stage, "l2.llcskip") == 0) {
        const std::uint64_t img = persistLineFp(e.addr);
        if (img != e.arg) {
            fail("llc-skip",
                 detail::concat("LLC skipped the DRAM write of 0x",
                                std::hex, e.addr, " (txn ", std::dec,
                                e.txn, ") whose data (fp ", e.arg,
                                ") differs from the persist domain (fp ",
                                img, ")"));
        }
        return;
    }
}

void
DurabilityOracle::freezeTick()
{
    if (!cfg_.enabled || summary_.crashed)
        return;
    Cycle at = cfg_.crash_at;
    if (armed_crash_at_ != 0 && (at == 0 || armed_crash_at_ < at))
        at = armed_crash_at_;
    if (at == 0 || sim_.now() < at)
        return;
    crashNow();
}

void
DurabilityOracle::crashNow()
{
    if (!cfg_.enabled || summary_.crashed)
        return;
    SKIPIT_ASSERT(dram_ != nullptr, "durability oracle without a DRAM");
    // Events already delivered this cycle belong to pre-crash execution
    // only when the freeze runs from the freezer's tick, first in the
    // cycle, where pending_ is always empty (the oracle's tick at the end
    // of the previous cycle drained it). When crashNow() is called from a
    // runner between cycles, drain first.
    for (const probe::Event &e : pending_)
        process(e);
    pending_.clear();
    image_ = dram_->persistImage();
    summary_ = scanSummary();
    summary_.crashed = true;
    summary_.crash_cycle = sim_.now();
    summary_.image_lines = image_.size();
    audit();
}

PersistSummary
DurabilityOracle::scanSummary() const
{
    PersistSummary s;
    s.image_lines = dram_->persistImage().size();
    s.pending_writes = dram_->pendingWrites();
    s.sealed_claims = sealed_.size();
    for (const DataCache *l1 : l1s_) {
        const L1Arrays &arrays = l1->arrays();
        for (unsigned set = 0; set < arrays.sets(); ++set) {
            for (unsigned way = 0; way < arrays.ways(); ++way) {
                const L1Meta &meta = arrays.meta(set, way);
                if (meta.valid() && meta.dirty)
                    ++s.dirty_l1_lines;
            }
        }
        for (const Fshr &f : l1->fshrs()) {
            if (f.busy())
                ++s.busy_fshrs;
        }
        s.queued_cbos += l1->flushQueue().size();
    }
    for (const L2Cache *l2 : l2s_) {
        const Directory &dir = l2->directory();
        for (unsigned set = 0; set < dir.sets(); ++set) {
            for (unsigned way = 0; way < dir.ways(); ++way) {
                const DirEntry &e = dir.entry(set, way);
                if (e.valid && e.dirty)
                    ++s.dirty_l2_lines;
            }
        }
    }
    return s;
}

void
DurabilityOracle::audit()
{
    // Lines with an accepted-but-unissued write: the queued data is in
    // the image and legitimately supersedes older sealed claims.
    std::unordered_set<Addr> queued;
    for (Addr line : dram_->queuedWriteLines())
        queued.insert(line);

    for (const auto &[line, ob] : sealed_) {
        auto lw = line_last_write_.find(line);
        if (lw != line_last_write_.end() && lw->second.seq != ob.wb_seq)
            continue; // a later issued write superseded the claim
        if (queued.count(line) != 0)
            continue; // a later accepted write supersedes it too
        auto img = image_.find(line);
        const std::uint64_t img_fp =
            img == image_.end() ? lineFingerprint(LineData{})
                                : lineFingerprint(img->second);
        if (img_fp != ob.fp) {
            fail("durability",
                 detail::concat(
                     "crash @ cycle ", summary_.crash_cycle,
                     ": hart-observed flush of 0x", std::hex, line,
                     " (fp ", ob.fp, ") missing from the post-crash ",
                     "image (fp ", img_fp, ")"));
        }
    }
}

void
DurabilityOracle::reportSummary(std::ostream &os) const
{
    const PersistSummary s = summary_.crashed ? summary_ : scanSummary();
    os << "persist domain @ cycle "
       << (s.crashed ? s.crash_cycle : sim_.now())
       << (s.crashed ? " (crashed)" : " (live)") << ":\n"
       << "  durable lines: " << s.image_lines << " (incl. "
       << s.pending_writes << " accepted queued write(s))\n"
       << "  volatile dirty lines: " << s.dirty_l1_lines << " in L1, "
       << s.dirty_l2_lines << " in L2 (lost on crash)\n"
       << "  in-flight CBOs: " << s.busy_fshrs << " FSHR(s), "
       << s.queued_cbos << " queued\n"
       << "  fence-observed durability claims: " << s.sealed_claims
       << "\n";
}

void
DurabilityOracle::report(std::ostream &os) const
{
    os << "durability oracle: "
       << (summary_.crashed
               ? "crashed @ cycle " + std::to_string(summary_.crash_cycle)
               : std::string("no crash"))
       << ", " << violations_.size() << " violation(s)\n";
    for (const Violation &v : violations_) {
        os << "  cycle " << v.cycle << " [" << v.invariant << "] "
           << v.detail << "\n";
    }
}

void
DurabilityOracle::fail(const char *invariant, std::string detail)
{
    if (cfg_.fatal) {
        SKIPIT_PANIC("durability invariant '", invariant,
                     "' violated @ cycle ", sim_.now(), ": ", detail);
    }
    if (violations_.size() < cfg_.max_violations)
        violations_.push_back({sim_.now(), invariant, std::move(detail)});
}

} // namespace skipit::verify
