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

namespace {

/** The calling thread's staging target; null outside the lane phase. */
thread_local std::vector<Event> *tl_stage = nullptr;

} // namespace

void
Hub::emit(const Event &e)
{
    if (tl_stage != nullptr) {
        tl_stage->push_back(e);
        return;
    }
    for (Sink *s : sinks_)
        s->onEvent(e);
}

void
Hub::enableStaging(std::size_t buffers)
{
    staged_.resize(buffers);
}

void
Hub::stageInto(std::size_t index)
{
    SKIPIT_ASSERT(index < staged_.size(),
                  "staging buffer out of range: ", index);
    tl_stage = &staged_[index];
}

void
Hub::unstage()
{
    tl_stage = nullptr;
}

void
Hub::flushStaged()
{
    SKIPIT_ASSERT(tl_stage == nullptr,
                  "flushStaged() while this thread is staging");
    for (std::vector<Event> &buf : staged_) {
        for (const Event &e : buf) {
            for (Sink *s : sinks_)
                s->onEvent(e);
        }
        buf.clear();
    }
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
