#include "skiplist.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace skipit {

namespace {
constexpr std::uint64_t head_key = 0;
constexpr std::uint64_t tail_key = ~std::uint64_t{0} >> 8;
} // namespace

SkipList::SkipList(PersistCtx &ctx) : ctx_(ctx)
{
    tail_ = new Node;
    tail_->key.store(tail_key, std::memory_order_relaxed);
    tail_->level.store(max_level, std::memory_order_relaxed);
    head_ = new Node;
    head_->key.store(head_key, std::memory_order_relaxed);
    head_->level.store(max_level, std::memory_order_relaxed);
    for (unsigned l = 0; l < max_level; ++l) {
        tail_->next[l].store(0, std::memory_order_relaxed);
        head_->next[l].store(rawOf(tail_), std::memory_order_relaxed);
    }
}

unsigned
SkipList::levelFor(std::uint64_t key)
{
    // Deterministic geometric(1/2) height derived from the key, so runs
    // are reproducible regardless of thread interleaving.
    const std::uint64_t h = avalanche(stirSeed(key, 0));
    unsigned level = 1;
    while (level < max_level && (h >> level) % 2 == 0)
        ++level;
    return level;
}

SkipList::Node *
SkipList::newNode(unsigned tid, std::uint64_t key, unsigned level)
{
    Node *n = new Node;
    ctx_.writePlain(tid, n->key, key);
    ctx_.writePlain(tid, n->level, level);
    for (unsigned l = 0; l < max_level; ++l)
        n->next[l].store(0, std::memory_order_relaxed);
    return n;
}

bool
SkipList::find(unsigned tid, std::uint64_t key,
               std::array<Node *, max_level> &preds,
               std::array<Node *, max_level> &succs)
{
  retry:
    Node *pred = head_;
    for (int lvl = max_level - 1; lvl >= 0; --lvl) {
        std::uint64_t curr_raw = ctx_.readTrav(tid, pred->next[lvl]);
        Node *curr = ptrOf(curr_raw);
        while (true) {
            SKIPIT_ASSERT(curr != nullptr, "skiplist fell off tail");
            std::uint64_t succ_raw = ctx_.readTrav(tid, curr->next[lvl]);
            while (markedOf(succ_raw)) {
                // curr is deleted at this level: snip it.
                std::uint64_t expected = rawOf(curr);
                if (!ctx_.cas(tid, pred->next[lvl], expected,
                              succ_raw & ~mark_bit)) {
                    goto retry;
                }
                curr = ptrOf(succ_raw);
                SKIPIT_ASSERT(curr != nullptr, "skiplist snip hit null");
                succ_raw = ctx_.readTrav(tid, curr->next[lvl]);
            }
            if (ctx_.readTrav(tid, curr->key) < key) {
                pred = curr;
                curr = ptrOf(succ_raw);
            } else {
                break;
            }
        }
        preds[static_cast<unsigned>(lvl)] = pred;
        succs[static_cast<unsigned>(lvl)] = curr;
    }
    return ctx_.readTrav(tid, succs[0]->key) == key;
}

bool
SkipList::contains(unsigned tid, std::uint64_t key)
{
    SKIPIT_ASSERT(key >= 1 && key <= max_user_key, "key out of range");
    Node *pred = head_;
    Node *curr = nullptr;
    for (int lvl = max_level - 1; lvl >= 0; --lvl) {
        curr = ptrOf(ctx_.readTrav(tid, pred->next[lvl]));
        while (true) {
            std::uint64_t succ_raw = ctx_.readTrav(tid, curr->next[lvl]);
            while (markedOf(succ_raw)) {
                curr = ptrOf(succ_raw);
                succ_raw = ctx_.readTrav(tid, curr->next[lvl]);
            }
            if (ctx_.readTrav(tid, curr->key) < key) {
                pred = curr;
                curr = ptrOf(succ_raw);
            } else {
                break;
            }
        }
    }
    // Critical read at the bottom level.
    const bool found = ctx_.readTrav(tid, curr->key) == key &&
                       !markedOf(ctx_.read(tid, curr->next[0]));
    ctx_.opEnd(tid);
    return found;
}

bool
SkipList::insert(unsigned tid, std::uint64_t key)
{
    SKIPIT_ASSERT(key >= 1 && key <= max_user_key, "key out of range");
    const unsigned top = levelFor(key);
    std::array<Node *, max_level> preds{}, succs{};
    while (true) {
        if (find(tid, key, preds, succs)) {
            // Present: persist the linearization evidence.
            ctx_.read(tid, succs[0]->next[0]);
            ctx_.opEnd(tid);
            return false;
        }
        Node *node = newNode(tid, key, top);
        for (unsigned l = 0; l < top; ++l)
            ctx_.writePlain(tid, node->next[l], rawOf(succs[l]));
        // Persist the tower before publication (key, level, next[0..top)).
        ctx_.persistInitRange(tid, &node->key, 2 + top);
        // Linearize by linking the bottom level.
        std::uint64_t expected = rawOf(succs[0]);
        if (!ctx_.cas(tid, preds[0]->next[0], expected, rawOf(node))) {
            // Lost the race; leak the registered node (no reclamation).
            continue;
        }
        // Link the upper levels (best effort, helped by find()).
        for (unsigned l = 1; l < top; ++l) {
            while (true) {
                std::uint64_t own_raw = ctx_.readTrav(tid, node->next[l]);
                if (markedOf(own_raw))
                    break; // concurrently deleted; stop linking
                std::uint64_t exp = rawOf(succs[l]);
                if (own_raw != exp) {
                    // Our snapshot is stale; refresh it.
                    std::uint64_t fix = own_raw;
                    if (!ctx_.cas(tid, node->next[l], fix, exp))
                        continue;
                }
                std::uint64_t pexp = rawOf(node);
                // pred at this level should point at succs[l]; swing to us.
                std::uint64_t pred_exp = rawOf(succs[l]);
                if (ctx_.cas(tid, preds[l]->next[l], pred_exp,
                             rawOf(node))) {
                    break;
                }
                (void)pexp;
                // Re-find to refresh preds/succs at all levels.
                if (find(tid, key, preds, succs)) {
                    if (succs[0] != node)
                        break; // a different tower with our key exists
                } else {
                    break; // our node was removed meanwhile
                }
            }
        }
        ctx_.opEnd(tid);
        return true;
    }
}

bool
SkipList::remove(unsigned tid, std::uint64_t key)
{
    SKIPIT_ASSERT(key >= 1 && key <= max_user_key, "key out of range");
    std::array<Node *, max_level> preds{}, succs{};
    while (true) {
        if (!find(tid, key, preds, succs)) {
            ctx_.read(tid, succs[0]->next[0]);
            ctx_.opEnd(tid);
            return false;
        }
        Node *victim = succs[0];
        const unsigned top = static_cast<unsigned>(
            ctx_.readTrav(tid, victim->level));
        // Mark the upper levels top-down.
        for (unsigned l = top; l-- > 1;) {
            std::uint64_t raw = ctx_.readTrav(tid, victim->next[l]);
            while (!markedOf(raw)) {
                std::uint64_t exp = raw;
                if (ctx_.cas(tid, victim->next[l], exp, raw | mark_bit))
                    break;
                raw = ctx_.readTrav(tid, victim->next[l]);
            }
        }
        // Marking the bottom level is the linearization point.
        std::uint64_t raw = ctx_.read(tid, victim->next[0]);
        while (true) {
            if (markedOf(raw))
                break; // someone else removed it
            std::uint64_t exp = raw;
            if (ctx_.cas(tid, victim->next[0], exp, raw | mark_bit)) {
                // Physical cleanup via a final find().
                find(tid, key, preds, succs);
                ctx_.opEnd(tid);
                return true;
            }
            raw = exp;
        }
        // Lost the bottom-level race: the key was removed concurrently.
        ctx_.opEnd(tid);
        return false;
    }
}

std::size_t
SkipList::sizeSlow() const
{
    std::size_t n = 0;
    const Node *curr = ptrOf(head_->next[0].load(std::memory_order_acquire) &
                             ~PersistCtx::lp_mark);
    while (curr != tail_) {
        const std::uint64_t raw =
            curr->next[0].load(std::memory_order_acquire);
        if (!markedOf(raw))
            ++n;
        curr = ptrOf(raw & ~PersistCtx::lp_mark);
        SKIPIT_ASSERT(curr != nullptr, "sizeSlow fell off the skiplist");
    }
    return n;
}

} // namespace skipit
