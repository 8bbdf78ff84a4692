#include "persist.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace skipit {

namespace {

/** Simulated virtual region holding the FliT hash table. */
constexpr Addr flit_table_base = 0x7f0000000000ULL;

/** Direct-mapped functional counter array size for FliT-adjacent. */
constexpr std::size_t adjacent_counters = std::size_t{1} << 21;

} // namespace

const char *
toString(FlushPolicy p)
{
    switch (p) {
      case FlushPolicy::Plain:
        return "plain";
      case FlushPolicy::FlitAdjacent:
        return "flit-adjacent";
      case FlushPolicy::FlitHashTable:
        return "flit-hashtable";
      case FlushPolicy::LinkAndPersist:
        return "link-and-persist";
      default:
        return "skip-it";
    }
}

const char *
toString(PersistMode m)
{
    switch (m) {
      case PersistMode::NonPersistent:
        return "non-persistent";
      case PersistMode::Automatic:
        return "automatic";
      case PersistMode::NvTraverse:
        return "nvtraverse";
      default:
        return "manual";
    }
}

PersistCtx::PersistCtx(MemSim &mem, const PersistConfig &cfg)
    : mem_(mem), cfg_(cfg)
{
    if (cfg_.policy == FlushPolicy::FlitAdjacent) {
        flit_counters_ = std::vector<std::atomic<std::int32_t>>(
            adjacent_counters);
        flit_mask_ = adjacent_counters - 1;
    } else if (cfg_.policy == FlushPolicy::FlitHashTable) {
        SKIPIT_ASSERT(cfg_.flit_table_entries > 0,
                      "FliT table needs entries");
        flit_counters_ = std::vector<std::atomic<std::int32_t>>(
            cfg_.flit_table_entries);
        flit_mask_ = 0; // modulo indexing, not power-of-two masking
    }
}

Addr
PersistCtx::wordAddr(const std::atomic<std::uint64_t> &w)
{
    return reinterpret_cast<Addr>(&w);
}

Addr
PersistCtx::dataAddr(Addr a) const
{
    if (cfg_.policy == FlushPolicy::FlitAdjacent) {
        // Interleaving a counter next to every word doubles the
        // footprint: each original 64 B line spreads over 128 B, word i
        // moving to offset 16*i (its counter at 16*i + 8). Words 0-3 stay
        // in the first spread line, words 4-7 spill into the second —
        // exactly the locality loss of FliT-adjacent's fattened layout.
        return ((a >> line_shift) << (line_shift + 1)) |
               (((a >> 3) & 7) << 4) | (a & 7);
    }
    return a;
}

Addr
PersistCtx::counterAddr(Addr a) const
{
    if (cfg_.policy == FlushPolicy::FlitAdjacent) {
        // The counter sits right next to the word, in the same (spread)
        // line: a separate access, but almost always an L1 hit.
        return (dataAddr(a) & ~Addr{15}) + 8;
    }
    SKIPIT_ASSERT(cfg_.policy == FlushPolicy::FlitHashTable,
                  "counterAddr without a FliT policy");
    const std::size_t idx = avalanche(a >> 3) % cfg_.flit_table_entries;
    return flit_table_base + static_cast<Addr>(idx) * 8;
}

std::atomic<std::int32_t> &
PersistCtx::counter(Addr a)
{
    if (cfg_.policy == FlushPolicy::FlitAdjacent)
        return flit_counters_[avalanche(a >> 3) & flit_mask_];
    return flit_counters_[avalanche(a >> 3) % cfg_.flit_table_entries];
}

void
PersistCtx::registerWord(std::atomic<std::uint64_t> &w)
{
    const Addr a = wordAddr(w);
    std::lock_guard<std::mutex> g(shadow_mu_);
    auto [it, inserted] = shadow_.try_emplace(a);
    if (inserted) {
        it->second.word = &w;
        // Whatever the word holds at first registration counts as its
        // initial durable state: structure construction happens before
        // the crash epoch (and fresh node words are zero, C++20 atomics
        // value-initialize).
        it->second.persisted = w.load(std::memory_order_acquire);
        shadow_lines_[lineAlign(a)].push_back(a);
    }
}

Cycle
PersistCtx::doWriteback(unsigned tid, Addr orig_addr)
{
    // Armed mid-operation crash: the power fails *before* this
    // writeback takes effect, so the shadow keeps its pre-writeback
    // durable values. Single-threaded by the injection tests' design.
    const std::int64_t armed =
        crash_after_.load(std::memory_order_relaxed);
    if (armed > 0) {
        crash_after_.store(armed - 1, std::memory_order_relaxed);
        if (armed == 1)
            throw CrashInjected{};
    }

    WbOutcome out;
    const Cycle c =
        mem_.writeback(tid, dataAddr(orig_addr), cfg_.invalidating, &out);
    // Snapshot the words this writeback just made durable. A drop at the
    // L1 skip bit means the line was already persisted and the shadows
    // are current.
    if (out != WbOutcome::SkippedL1) {
        std::lock_guard<std::mutex> g(shadow_mu_);
        auto it = shadow_lines_.find(lineAlign(orig_addr));
        if (it != shadow_lines_.end()) {
            for (const Addr a : it->second) {
                // With FliT-adjacent the original line spreads over two
                // simulated lines; only the covered half persists.
                if (!sameLine(dataAddr(a), dataAddr(orig_addr)))
                    continue;
                ShadowEntry &e = shadow_[a];
                e.persisted =
                    e.word->load(std::memory_order_acquire);
            }
        }
    }
    return c;
}

void
PersistCtx::persistInitRange(unsigned tid,
                             const std::atomic<std::uint64_t> *first,
                             std::size_t n_words)
{
    OpGuard op(active_ops_);
    for (std::size_t i = 0; i < n_words; ++i) {
        registerWord(const_cast<std::atomic<std::uint64_t> &>(first[i]));
    }
    if (!writesInstrumented())
        return;
    Addr prev_line = ~Addr{0};
    for (std::size_t i = 0; i < n_words; ++i) {
        const Addr a = wordAddr(first[i]);
        const Addr spread_line = lineAlign(dataAddr(a));
        if (spread_line != prev_line) {
            doWriteback(tid, a);
            prev_line = spread_line;
        }
    }
}

void
PersistCtx::crash()
{
    // Reverting words under a racing operation would corrupt both the
    // structure and the shadow: the crash epoch must be quiescent.
    const int in_flight = active_ops_.load(std::memory_order_acquire);
    SKIPIT_ASSERT(in_flight == 0,
                  "PersistCtx::crash() requires quiescence: ", in_flight,
                  " operation(s) still in flight");
    crash_after_.store(0, std::memory_order_relaxed);
    mem_.reset();
    std::lock_guard<std::mutex> g(shadow_mu_);
    for (auto &[a, e] : shadow_) {
        (void)a;
        e.word->store(e.persisted, std::memory_order_release);
    }
    // FliT counters are plain volatile memory; quiesced they are zero.
    for (auto &c : flit_counters_)
        c.store(0, std::memory_order_relaxed);
}

void
PersistCtx::armCrashAfter(std::uint64_t n_writebacks)
{
    crash_after_.store(static_cast<std::int64_t>(n_writebacks),
                       std::memory_order_relaxed);
}

std::vector<std::pair<Addr, std::uint64_t>>
PersistCtx::recoverPersisted() const
{
    std::lock_guard<std::mutex> g(shadow_mu_);
    std::vector<std::pair<Addr, std::uint64_t>> out;
    out.reserve(shadow_.size());
    for (const auto &[a, e] : shadow_)
        out.emplace_back(a, e.persisted);
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
PersistCtx::readPlain(unsigned tid, const std::atomic<std::uint64_t> &w)
{
    OpGuard op(active_ops_);
    const Addr a = wordAddr(w);
    mem_.load(tid, dataAddr(a));
    std::uint64_t v = w.load(std::memory_order_acquire);
    if (cfg_.policy == FlushPolicy::LinkAndPersist) {
        // Every consumer of a word must strip the persistence mark.
        mem_.cpuWork(tid, 1);
        v &= ~lp_mark;
    }
    return v;
}

void
PersistCtx::writePlain(unsigned tid, std::atomic<std::uint64_t> &w,
                       std::uint64_t v)
{
    OpGuard op(active_ops_);
    const Addr a = wordAddr(w);
    registerWord(w);
    mem_.store(tid, dataAddr(a));
    w.store(v, std::memory_order_release);
}

void
PersistCtx::ensureReadPersisted(unsigned tid, Addr a,
                                const std::atomic<std::uint64_t> &w,
                                std::uint64_t observed)
{
    switch (cfg_.policy) {
      case FlushPolicy::Plain:
        // Unconditional writeback + fence on every instrumented read.
        doWriteback(tid, a);
        mem_.fence(tid);
        return;

      case FlushPolicy::FlitAdjacent:
      case FlushPolicy::FlitHashTable:
        // FLIT_LOAD: flush only if the counter says a store is in flight.
        mem_.load(tid, counterAddr(a));
        if (counter(a).load(std::memory_order_acquire) != 0) {
            doWriteback(tid, a);
            mem_.fence(tid);
        }
        return;

      case FlushPolicy::LinkAndPersist: {
        // Readers seeing the mark help: flush, fence, clear.
        if ((observed & lp_mark) != 0) {
            doWriteback(tid, a);
            mem_.fence(tid);
            auto &word = const_cast<std::atomic<std::uint64_t> &>(w);
            std::uint64_t cur = observed;
            word.compare_exchange_strong(cur, observed & ~lp_mark);
            mem_.store(tid, dataAddr(a));
        }
        return;
      }

      case FlushPolicy::SkipIt:
        // No software check at all: issue the writeback and let the
        // hardware skip bit drop it when redundant (§6).
        doWriteback(tid, a);
        mem_.fence(tid);
        return;
    }
}

std::uint64_t
PersistCtx::readImpl(unsigned tid, const std::atomic<std::uint64_t> &w,
                     bool instrumented)
{
    OpGuard op(active_ops_);
    const Addr a = wordAddr(w);
    mem_.load(tid, dataAddr(a));
    std::uint64_t v = w.load(std::memory_order_acquire);

    if (cfg_.policy == FlushPolicy::LinkAndPersist)
        mem_.cpuWork(tid, 1); // mandatory masking

    if (instrumented)
        ensureReadPersisted(tid, a, w, v);

    if (cfg_.policy == FlushPolicy::LinkAndPersist)
        v &= ~lp_mark;
    return v;
}

std::uint64_t
PersistCtx::readTrav(unsigned tid, const std::atomic<std::uint64_t> &w)
{
    return readImpl(tid, w, traversalInstrumented());
}

std::uint64_t
PersistCtx::read(unsigned tid, const std::atomic<std::uint64_t> &w)
{
    return readImpl(tid, w, criticalReadInstrumented());
}

void
PersistCtx::persistWrite(unsigned tid, Addr a)
{
    doWriteback(tid, a);
    mem_.fence(tid);
}

void
PersistCtx::write(unsigned tid, std::atomic<std::uint64_t> &w,
                  std::uint64_t v)
{
    OpGuard op(active_ops_);
    const Addr a = wordAddr(w);
    registerWord(w);

    if (!writesInstrumented()) {
        mem_.store(tid, dataAddr(a));
        w.store(v, std::memory_order_release);
        return;
    }

    switch (cfg_.policy) {
      case FlushPolicy::Plain:
      case FlushPolicy::SkipIt:
        mem_.store(tid, dataAddr(a));
        w.store(v, std::memory_order_release);
        persistWrite(tid, a);
        return;

      case FlushPolicy::FlitAdjacent:
      case FlushPolicy::FlitHashTable:
        // FLIT_STORE: counter++, store, flush, fence, counter--.
        counter(a).fetch_add(1, std::memory_order_acq_rel);
        mem_.amo(tid, counterAddr(a));
        mem_.store(tid, dataAddr(a));
        w.store(v, std::memory_order_release);
        persistWrite(tid, a);
        counter(a).fetch_add(-1, std::memory_order_acq_rel);
        mem_.amo(tid, counterAddr(a));
        return;

      case FlushPolicy::LinkAndPersist: {
        // Store with the mark set, persist, then clear the mark.
        mem_.store(tid, dataAddr(a));
        w.store(v | lp_mark, std::memory_order_release);
        persistWrite(tid, a);
        std::uint64_t cur = v | lp_mark;
        w.compare_exchange_strong(cur, v);
        mem_.store(tid, dataAddr(a));
        return;
      }
    }
}

bool
PersistCtx::cas(unsigned tid, std::atomic<std::uint64_t> &w,
                std::uint64_t &expected, std::uint64_t desired)
{
    OpGuard op(active_ops_);
    const Addr a = wordAddr(w);
    registerWord(w);

    if (cfg_.policy != FlushPolicy::LinkAndPersist) {
        std::uint64_t exp = expected;
        const bool ok = w.compare_exchange_strong(
            exp, desired, std::memory_order_acq_rel);
        if (!ok) {
            mem_.load(tid, dataAddr(a));
            expected = exp;
            return false;
        }
        mem_.store(tid, dataAddr(a));
        if (writesInstrumented()) {
            if (cfg_.policy == FlushPolicy::FlitAdjacent ||
                cfg_.policy == FlushPolicy::FlitHashTable) {
                counter(a).fetch_add(1, std::memory_order_acq_rel);
                mem_.amo(tid, counterAddr(a));
                persistWrite(tid, a);
                counter(a).fetch_add(-1, std::memory_order_acq_rel);
                mem_.amo(tid, counterAddr(a));
            } else {
                persistWrite(tid, a);
            }
        }
        return true;
    }

    // Link-and-persist CAS: the word may carry the mark; help persist it,
    // then install the new value marked, persist, and clear.
    while (true) {
        std::uint64_t cur = w.load(std::memory_order_acquire);
        mem_.load(tid, dataAddr(a));
        mem_.cpuWork(tid, 1);
        if ((cur & ~lp_mark) != expected) {
            expected = cur & ~lp_mark;
            return false;
        }
        if (writesInstrumented() && (cur & lp_mark) != 0) {
            // Help persist the previous update before replacing it.
            doWriteback(tid, a);
            mem_.fence(tid);
            std::uint64_t m = cur;
            w.compare_exchange_strong(m, cur & ~lp_mark);
            mem_.store(tid, dataAddr(a));
            continue;
        }
        const std::uint64_t next =
            writesInstrumented() ? (desired | lp_mark) : desired;
        std::uint64_t exp_raw = cur;
        if (w.compare_exchange_strong(exp_raw, next,
                                      std::memory_order_acq_rel)) {
            mem_.store(tid, dataAddr(a));
            if (writesInstrumented()) {
                persistWrite(tid, a);
                std::uint64_t m = next;
                w.compare_exchange_strong(m, desired);
                mem_.store(tid, dataAddr(a));
            }
            return true;
        }
        // Lost the race; loop and re-evaluate.
    }
}

void
PersistCtx::opEnd(unsigned tid)
{
    OpGuard op(active_ops_);
    if (cfg_.mode != PersistMode::NonPersistent)
        mem_.fence(tid);
}

} // namespace skipit
