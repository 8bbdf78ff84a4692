#include "watchdog.hh"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <numeric>
#include <utility>

#include "logging.hh"
#include "txn_tracer.hh"

namespace skipit {

Watchdog::Watchdog(std::string name, Simulator &sim,
                   const WatchdogConfig &cfg)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg)
{
}

void
Watchdog::watch(const probe::Inspectable &component)
{
    components_.push_back(&component);
}

void
Watchdog::tick()
{
    if (!cfg_.enabled)
        return;
    if (sim_.now() < next_scan_)
        return;
    next_scan_ = sim_.now() + cfg_.scan_interval;
    scan();
}

Cycle
Watchdog::nextWake() const
{
    // Scans fire at exactly the same cycles as in the ticked baseline, so
    // stall detection timing is unchanged; fast-forward jumps are merely
    // capped at scan_interval while the watchdog is enabled.
    if (!cfg_.enabled)
        return wake_never;
    return std::max(sim_.now(), next_scan_);
}

bool
Watchdog::keyLess(const Key &a, const Key &b)
{
    if (a.component != b.component)
        return a.component < b.component;
    if (a.kind != b.kind) {
        const int k = std::strcmp(a.kind, b.kind);
        if (k != 0)
            return k < 0;
    }
    return a.index < b.index;
}

void
Watchdog::scan()
{
    const Cycle now = sim_.now();

    snaps_.clear();
    keys_.clear();
    for (unsigned c = 0; c < components_.size(); ++c) {
        components_[c]->snapshotResources(snaps_);
        for (std::size_t i = keys_.size(); i < snaps_.size(); ++i)
            keys_.push_back(Key{c, snaps_[i].kind, snaps_[i].index});
    }
    order_.resize(snaps_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(),
              [this](std::size_t a, std::size_t b) {
                  return keyLess(keys_[a], keys_[b]);
              });

    // Merge the sorted snapshots into the sorted tracked list. A tracked
    // resource no snapshot names went idle and is dropped, so a later
    // reoccupation starts a fresh stall window.
    next_.clear();
    due_.clear();
    auto old = tracked_.cbegin();
    for (const std::size_t i : order_) {
        const probe::ResourceSnapshot &snap = snaps_[i];
        while (old != tracked_.cend() && keyLess(old->key, keys_[i]))
            ++old;
        Tracked t{keys_[i], snap.fingerprint, now, false};
        if (old != tracked_.cend() && !keyLess(keys_[i], old->key)) {
            if (old->fingerprint == snap.fingerprint) {
                t.since = old->since;
                t.reported = old->reported;
                if (!t.reported && now - t.since >= cfg_.stall_threshold) {
                    t.reported = true;
                    due_.emplace_back(i, t.since);
                }
            }
            ++old;
        }
        next_.push_back(t);
    }
    tracked_.swap(next_);

    // Report in snapshot order.
    std::sort(due_.begin(), due_.end());
    for (const auto &[i, since] : due_)
        report(snaps_[i], keys_[i], since);
}

void
Watchdog::report(const probe::ResourceSnapshot &snap, const Key &key,
                 Cycle since)
{
    using probe::ResourceSnapshot;
    const Cycle now = sim_.now();
    StallRecord rec;
    rec.resource =
        components_[key.component]->resourcePrefix() + "." + snap.kind;
    if (snap.index != ResourceSnapshot::none)
        rec.resource += std::to_string(snap.index);
    rec.txn = snap.txn;
    rec.stuck_since = since;
    rec.reported_at = now;
    for (const char *part : snap.describe) {
        if (part != nullptr)
            rec.describe += part;
    }
    if (snap.position != ResourceSnapshot::none)
        rec.describe += std::to_string(snap.position);
    stalls_.push_back(rec);

    std::ostream &os = os_ != nullptr ? *os_ : std::cerr;
    os << "WATCHDOG: " << rec.resource << " stalled for " << (now - since)
       << " cycles (txn " << snap.txn;
    if (!rec.describe.empty())
        os << ", " << rec.describe;
    os << ")\n";
    if (tracer_ != nullptr && snap.txn != 0) {
        os << "  transaction " << snap.txn << " history:\n";
        tracer_->dumpTxn(snap.txn, os, "    ");
    }
    if (escalation_)
        escalation_(os);
    if (cfg_.fatal) {
        SKIPIT_FATAL("watchdog: ", rec.resource, " stalled for ",
                     now - since, " cycles (txn ", snap.txn, ")");
    }
}

} // namespace skipit
