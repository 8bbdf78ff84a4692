#include "probe.hh"

#include <algorithm>
#include <ostream>

#include "logging.hh"

namespace skipit::probe {

namespace {

const char *
kindName(Event::Kind k)
{
    switch (k) {
      case Event::Kind::Begin:
        return "begin";
      case Event::Kind::End:
        return "end";
      case Event::Kind::Instant:
        return "instant";
      case Event::Kind::Span:
        return "span";
    }
    return "?";
}

} // namespace

void
printEvent(std::ostream &os, const Event &e)
{
    os << e.cycle << " [" << e.stage << "] " << kindName(e.kind) << " "
       << e.track;
    if (!e.detail.empty())
        os << ": " << e.detail;
    if (e.kind == Event::Kind::Span)
        os << " (dur " << e.dur << ")";
}

void
Hub::attach(Sink &sink)
{
    SKIPIT_ASSERT(std::find(sinks_.begin(), sinks_.end(), &sink) ==
                      sinks_.end(),
                  "probe sink attached twice");
    sinks_.push_back(&sink);
}

void
Hub::detach(Sink &sink)
{
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), &sink),
                 sinks_.end());
}

void
Hub::emit(const Event &e)
{
    for (Sink *s : sinks_)
        s->onEvent(e);
}

void
Hub::begin(Cycle cycle, TxnId txn, const char *stage, std::string track,
           std::string detail)
{
    emit(Event{cycle, 0, txn, Event::Kind::Begin, stage, std::move(track),
               std::move(detail)});
}

void
Hub::end(Cycle cycle, TxnId txn, const char *stage, std::string track,
         std::string detail)
{
    emit(Event{cycle, 0, txn, Event::Kind::End, stage, std::move(track),
               std::move(detail)});
}

void
Hub::instant(Cycle cycle, TxnId txn, const char *stage, std::string track,
             std::string detail)
{
    emit(Event{cycle, 0, txn, Event::Kind::Instant, stage, std::move(track),
               std::move(detail)});
}

void
Hub::span(Cycle cycle, Cycle dur, TxnId txn, const char *stage,
          std::string track, std::string detail)
{
    emit(Event{cycle, dur, txn, Event::Kind::Span, stage, std::move(track),
               std::move(detail)});
}

void
Hub::end(Cycle cycle, TxnId txn, const char *stage, std::string track,
         std::string detail, Addr addr, std::uint64_t arg)
{
    emit(Event{cycle, 0, txn, Event::Kind::End, stage, std::move(track),
               std::move(detail), addr, arg});
}

void
Hub::instant(Cycle cycle, TxnId txn, const char *stage, std::string track,
             std::string detail, Addr addr, std::uint64_t arg)
{
    emit(Event{cycle, 0, txn, Event::Kind::Instant, stage, std::move(track),
               std::move(detail), addr, arg});
}

void
Hub::span(Cycle cycle, Cycle dur, TxnId txn, const char *stage,
          std::string track, std::string detail, Addr addr,
          std::uint64_t arg)
{
    emit(Event{cycle, dur, txn, Event::Kind::Span, stage, std::move(track),
               std::move(detail), addr, arg});
}

} // namespace skipit::probe
