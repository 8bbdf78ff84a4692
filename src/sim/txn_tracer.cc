#include "txn_tracer.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "logging.hh"

namespace skipit {

void
TxnTracer::onEvent(const probe::Event &e)
{
    last_cycle_ = std::max(last_cycle_, e.cycle + e.dur);
    switch (e.kind) {
      case probe::Event::Kind::Begin:
        open_[{e.stage, e.txn}].push_back(e.cycle);
        break;
      case probe::Event::Kind::End: {
        const auto it = open_.find({e.stage, e.txn});
        if (it != open_.end() && !it->second.empty()) {
            const Cycle begin = it->second.back();
            it->second.pop_back();
            if (it->second.empty())
                open_.erase(it);
            hists_[e.stage].add(
                static_cast<double>(e.cycle - begin));
        }
        break;
      }
      case probe::Event::Kind::Span:
        hists_[e.stage].add(static_cast<double>(e.dur));
        break;
      case probe::Event::Kind::Instant:
        break;
    }
    if (keep_events_) {
        by_txn_[e.txn].push_back(events_.size());
        events_.push_back(e);
    }
}

std::vector<probe::Event>
TxnTracer::eventsFor(TxnId txn) const
{
    std::vector<probe::Event> out;
    const auto it = by_txn_.find(txn);
    if (it == by_txn_.end())
        return out;
    out.reserve(it->second.size());
    for (const std::size_t idx : it->second)
        out.push_back(events_[idx]);
    return out;
}

void
TxnTracer::dumpTxn(TxnId txn, std::ostream &os, const char *indent) const
{
    const std::vector<probe::Event> events = eventsFor(txn);
    if (events.empty()) {
        os << indent << "(no recorded events for txn " << txn << ")\n";
        return;
    }
    for (const probe::Event &e : events) {
        os << indent;
        probe::printEvent(os, e);
        os << "\n";
    }
}

const Histogram *
TxnTracer::histogram(const std::string &stage) const
{
    const auto it = hists_.find(stage);
    return it == hists_.end() ? nullptr : &it->second;
}

void
TxnTracer::dumpHistograms(std::ostream &os) const
{
    for (const auto &[stage, hist] : hists_)
        hist.renderText(os, stage);
}

std::string
TxnTracer::jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
TxnTracer::writeChromeTrace(std::ostream &os) const
{
    SKIPIT_ASSERT(keep_events_,
                  "Chrome export needs a tracer built with keep_events");

    // Stable track -> tid mapping in first-appearance order.
    std::map<std::string, int> tids;
    std::vector<const std::string *> track_order;
    for (const probe::Event &e : events_) {
        if (tids.emplace(e.track, 0).second)
            track_order.push_back(&e.track);
    }
    int next_tid = 1;
    for (const std::string *t : track_order)
        tids[*t] = next_tid++;

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    for (const std::string *t : track_order) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << tids[*t] << ",\"args\":{\"name\":\"" << jsonEscape(*t)
           << "\"}}";
    }

    // Pair Begin/End per (stage, txn) into Complete ("X") slices; emit
    // Instants as "i" and Spans as "X" directly. Unmatched Begins render
    // as open slices reaching the end of the recorded run — exactly what
    // a wedged transaction looks like.
    std::map<std::pair<std::string, TxnId>,
             std::vector<const probe::Event *>> open;
    const auto emitSlice = [&](const probe::Event &b, Cycle end_cycle,
                               bool unfinished) {
        sep();
        os << "{\"name\":\""
           << jsonEscape(b.detail.empty() ? b.stage : b.detail)
           << (unfinished ? " (open)" : "") << "\",\"cat\":\"" << b.stage
           << "\",\"ph\":\"X\",\"ts\":" << b.cycle << ",\"dur\":"
           << (end_cycle - b.cycle) << ",\"pid\":1,\"tid\":"
           << tids[b.track] << ",\"args\":{\"txn\":" << b.txn << "}}";
    };

    for (const probe::Event &e : events_) {
        switch (e.kind) {
          case probe::Event::Kind::Begin:
            open[{e.stage, e.txn}].push_back(&e);
            break;
          case probe::Event::Kind::End: {
            const auto it = open.find({e.stage, e.txn});
            if (it != open.end() && !it->second.empty()) {
                emitSlice(*it->second.back(), e.cycle, false);
                it->second.pop_back();
            } else {
                // End without Begin: degrade to an instant.
                sep();
                os << "{\"name\":\""
                   << jsonEscape(e.detail.empty() ? e.stage : e.detail)
                   << "\",\"cat\":\"" << e.stage
                   << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.cycle
                   << ",\"pid\":1,\"tid\":" << tids[e.track]
                   << ",\"args\":{\"txn\":" << e.txn << "}}";
            }
            break;
          }
          case probe::Event::Kind::Instant:
            sep();
            os << "{\"name\":\""
               << jsonEscape(e.detail.empty() ? e.stage : e.detail)
               << "\",\"cat\":\"" << e.stage
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.cycle
               << ",\"pid\":1,\"tid\":" << tids[e.track]
               << ",\"args\":{\"txn\":" << e.txn << "}}";
            break;
          case probe::Event::Kind::Span:
            sep();
            os << "{\"name\":\""
               << jsonEscape(e.detail.empty() ? e.stage : e.detail)
               << "\",\"cat\":\"" << e.stage << "\",\"ph\":\"X\",\"ts\":"
               << e.cycle << ",\"dur\":" << e.dur << ",\"pid\":1,\"tid\":"
               << tids[e.track] << ",\"args\":{\"txn\":" << e.txn << "}}";
            break;
        }
    }

    for (const auto &[key, begins] : open) {
        for (const probe::Event *b : begins)
            emitSlice(*b, last_cycle_, true);
    }

    os << "\n]}\n";
}

bool
TxnTracer::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write Chrome trace to ", path);
        return false;
    }
    writeChromeTrace(out);
    return out.good();
}

} // namespace skipit
