#include "dram.hh"

#include <cstring>

namespace skipit {

Dram::Dram(std::string name, Simulator &sim, const DramConfig &cfg,
           Stats &stats)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg),
      req_q_(cfg.max_inflight), resp_q_(sim)
{
    SKIPIT_ASSERT(cfg_.issue_interval >= 1, "issue_interval must be >= 1");
    stats.add("dram.", {{"reads", &ctr_.reads}, {"writes", &ctr_.writes}});
}

bool
Dram::canAccept() const
{
    return !req_q_.full();
}

void
Dram::submit(const MemReq &req)
{
    SKIPIT_ASSERT(canAccept(), "submit to full DRAM queue");
    SKIPIT_ASSERT(lineAlign(req.addr) == req.addr,
                  "DRAM requests must be line aligned");
    const bool pushed = req_q_.tryPush(req);
    SKIPIT_ASSERT(pushed, "DRAM push failed");
    ++(req.write ? ctr_.writes : ctr_.reads);
    wakeAt(std::max(sim_.now(), next_issue_));
}

Cycle
Dram::nextWake() const
{
    // tick() only issues queued requests; response delivery is the LLC's
    // concern (see respWakeAt, folded into L2Cache::nextWake).
    if (req_q_.empty())
        return wake_never;
    return std::max(sim_.now(), next_issue_);
}

Cycle
Dram::respWakeAt() const
{
    if (resp_q_.empty())
        return Ticked::wake_never;
    return std::max(sim_.now(), resp_q_.frontReadyAt());
}

void
Dram::tick()
{
    if (req_q_.empty() || sim_.now() < next_issue_)
        return;

    MemReq req = req_q_.pop();
    next_issue_ = sim_.now() + cfg_.issue_interval;

    MemResp resp;
    resp.write = req.write;
    resp.addr = req.addr;
    resp.tag = req.tag;
    if (req.write) {
        storeLine(req.addr, req.data);
        resp_q_.pushIn(resp, cfg_.write_ack_latency);
    } else {
        resp.data = peekLine(req.addr);
        resp_q_.pushIn(resp, cfg_.latency);
    }
    for (Ticked *slice : readers_)
        slice->wakeAt(resp_q_.frontReadyAt());
    if (sim_.probes().active()) {
        sim_.probes().span(
            sim_.now(), req.write ? cfg_.write_ack_latency : cfg_.latency,
            req.txn, req.write ? "dram.write" : "dram.read", name(),
            detail::concat(req.write ? "write 0x" : "read 0x",
                           std::hex, req.addr),
            req.addr, req.write ? lineFingerprint(req.data) : 0);
    }
}

MemResp
Dram::popResp()
{
    return resp_q_.pop();
}

LineData
Dram::peekLine(Addr line_addr) const
{
    auto it = slot_of_.find(lineAlign(line_addr));
    if (it == slot_of_.end())
        return LineData{}; // untouched memory reads as zero
    return lines_[it->second];
}

void
Dram::pokeLine(Addr line_addr, const LineData &data)
{
    storeLine(lineAlign(line_addr), data);
}

void
Dram::storeLine(Addr line_addr, const LineData &data)
{
    const auto [it, fresh] =
        slot_of_.try_emplace(line_addr, line_addrs_.size());
    if (fresh) {
        line_addrs_.push_back(line_addr);
        lines_.emplace_back();
    } else if (lines_[it->second] == data) {
        return; // the same bytes again: nothing changed
    }
    changes_.mark(it->second);
    lines_[it->second] = data;
}

std::unordered_map<Addr, LineData>
Dram::persistImage() const
{
    std::unordered_map<Addr, LineData> image;
    image.reserve(lines_.size());
    for (std::size_t s = 0; s < lines_.size(); ++s)
        image.emplace(line_addrs_[s], lines_[s]);
    for (const MemReq &req : req_q_) {
        if (req.write)
            image[req.addr] = req.data;
    }
    return image;
}

LineData
Dram::persistLine(Addr line_addr) const
{
    const Addr line = lineAlign(line_addr);
    LineData data = peekLine(line);
    for (const MemReq &req : req_q_) {
        if (req.write && req.addr == line)
            data = req.data;
    }
    return data;
}

unsigned
Dram::pendingWrites() const
{
    unsigned n = 0;
    for (const MemReq &req : req_q_) {
        if (req.write)
            ++n;
    }
    return n;
}

std::vector<Addr>
Dram::queuedWriteLines() const
{
    std::vector<Addr> lines;
    for (const MemReq &req : req_q_) {
        if (req.write)
            lines.push_back(req.addr);
    }
    return lines;
}

std::uint64_t
Dram::peekWord(Addr addr) const
{
    return lineWord(peekLine(addr), addr);
}

} // namespace skipit
