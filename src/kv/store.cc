#include "store.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace skipit::kv {

/** Mirror node: the host-side twin of one persistent skiplist node. */
struct KvStore::Node
{
    std::uint64_t key = 0;
    Addr addr = 0;
    unsigned level = 1;
    Addr value_addr = 0;
    std::uint64_t version = 0;
    std::vector<Node *> next; //!< size = level (head: max_level)

    /// @name Word addresses inside the persistent node
    /// @{
    Addr keyAddr() const { return addr; }
    Addr valuePtrAddr() const { return addr + 8; }
    Addr levelAddr() const { return addr + 16; }
    Addr nextAddr(unsigned lvl) const { return addr + 24 + 8 * lvl; }
    /// @}
};

KvStore::KvStore(const KvStoreConfig &cfg)
    : cfg_(cfg), base_(KvLayout::baseFor(cfg.hart)),
      log_head_(base_ + KvLayout::log_off),
      node_head_(base_ + KvLayout::node_off),
      value_words_(std::max(1u, (cfg.value_bytes + 7) / 8))
{
    // The head sentinel is a real persistent node (key 0 sorts below
    // every user key; user keys are >= 1).
    head_ = std::make_unique<Node>();
    head_->key = 0;
    head_->level = max_level;
    head_->next.assign(max_level, nullptr);
    head_->addr = node_head_;
    node_head_ += (nodeBytes(max_level) + line_bytes - 1) &
                  ~static_cast<Addr>(line_bytes - 1);
    writeWord(nullptr, head_->keyAddr(), 0);
    writeWord(nullptr, head_->levelAddr(), max_level);
    writeWord(nullptr, head_->valuePtrAddr(), 0);
    for (unsigned l = 0; l < max_level; ++l)
        writeWord(nullptr, head_->nextAddr(l), 0);
    writeWord(nullptr, metaLogHead(), log_head_);
    writeWord(nullptr, metaNodeHead(), node_head_);
    writeWord(nullptr, metaKeyCount(), 0);
}

KvStore::~KvStore() = default;

unsigned
KvStore::levelFor(std::uint64_t key)
{
    // Hash-derived geometric (p = 1/2), the src/ds/skiplist idiom: the
    // tower height is a pure function of the key, so the index shape is
    // independent of insertion order.
    std::uint64_t h = mix64(key * 0x9e3779b97f4a7c15ULL + 0x1234567);
    unsigned level = 1;
    while ((h & 1) != 0 && level < max_level) {
        ++level;
        h >>= 1;
    }
    return level;
}

std::uint64_t
KvStore::valueWord(std::uint64_t key, std::uint64_t version, unsigned idx)
{
    return mix64(key ^ (version << 20) ^ (static_cast<std::uint64_t>(idx)
                                          << 52));
}

void
KvStore::writeWord(Program *prog, Addr addr, std::uint64_t v)
{
    LineData &line = image_[lineAlign(addr)];
    const unsigned off = lineOffset(addr);
    for (unsigned i = 0; i < 8; ++i)
        line[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    if (prog != nullptr)
        prog->push_back(MemOp::store(addr, v));
}

void
KvStore::loadWord(Program *prog, Addr addr)
{
    if (prog != nullptr)
        prog->push_back(MemOp::load(addr));
}

void
KvStore::cleanRange(Program *prog, Addr addr, std::size_t bytes)
{
    if (prog == nullptr)
        return;
    for (Addr a = lineAlign(addr); a < addr + bytes; a += line_bytes) {
        prog->push_back(MemOp::clean(a));
        epoch_lines_.insert(a);
    }
}

void
KvStore::emitCheckpoint(Program &prog)
{
    if (epoch_lines_.empty())
        return;
    for (const Addr a : epoch_lines_)
        prog.push_back(MemOp::clean(a));
    prog.push_back(MemOp::fence());
    epoch_lines_.clear();
}

std::uint64_t
KvStore::imageWord(Addr addr) const
{
    return skipit::imageWord(image_, addr);
}

std::uint64_t
KvStore::version(std::uint64_t key) const
{
    const auto it = by_key_.find(key);
    SKIPIT_ASSERT(it != by_key_.end(), "kv: version of absent key ", key);
    return it->second->version;
}

Addr
KvStore::valueAddr(std::uint64_t key) const
{
    const auto it = by_key_.find(key);
    return it == by_key_.end() ? 0 : it->second->value_addr;
}

KvStore::Node *
KvStore::search(Program *prog, std::uint64_t key,
                std::vector<Node *> &preds)
{
    // The exact trace a pointer-chasing skiplist search issues: at each
    // hop, load the pred's next pointer, then the candidate's key.
    preds.assign(max_level, head_.get());
    Node *x = head_.get();
    for (unsigned lvl = max_level; lvl-- > 0;) {
        for (;;) {
            loadWord(prog, x->nextAddr(lvl));
            Node *nxt = x->next[lvl];
            if (nxt == nullptr)
                break;
            loadWord(prog, nxt->keyAddr());
            if (nxt->key >= key)
                break;
            x = nxt;
        }
        preds[lvl] = x;
    }
    Node *cand = x->next[0];
    return (cand != nullptr && cand->key == key) ? cand : nullptr;
}

Addr
KvStore::appendRecord(Program *prog, std::uint64_t key,
                      std::uint64_t version)
{
    const Addr rec = log_head_;
    SKIPIT_ASSERT(rec + recordBytes() <=
                      base_ + KvLayout::region_stride,
                  "kv: value log overflow (hart ", cfg_.hart, ")");
    writeWord(prog, rec, key);
    writeWord(prog, rec + 8, version);
    for (unsigned w = 0; w < value_words_; ++w)
        writeWord(prog, rec + 16 + 8 * w, valueWord(key, version, w));
    log_head_ += (recordBytes() + line_bytes - 1) &
                 ~static_cast<Addr>(line_bytes - 1);
    writeWord(prog, metaLogHead(), log_head_);
    return rec;
}

void
KvStore::loadRecord(Program *prog, Addr addr) const
{
    for (unsigned w = 0; w < 2 + value_words_; ++w)
        loadWord(prog, addr + 8 * w);
}

void
KvStore::emitGet(Program &prog, std::uint64_t key)
{
    std::vector<Node *> preds;
    Node *n = search(&prog, key, preds);
    SKIPIT_ASSERT(n != nullptr, "kv: get of absent key ", key);
    loadWord(&prog, n->valuePtrAddr());
    loadRecord(&prog, n->value_addr);
}

void
KvStore::emitUpdate(Program &prog, std::uint64_t key)
{
    std::vector<Node *> preds;
    Node *n = search(&prog, key, preds);
    SKIPIT_ASSERT(n != nullptr, "kv: update of absent key ", key);

    // Value epoch: the record (and the log head) must be durable before
    // the index can point at it.
    const Addr rec = appendRecord(&prog, key, n->version + 1);
    cleanRange(&prog, rec, recordBytes());
    cleanRange(&prog, metaLogHead(), 8);
    prog.push_back(MemOp::fence());

    // Publish epoch: swing the value pointer, then conservatively clean
    // the whole node — the lines holding its (unchanged) tower are the
    // redundant cleans the skip bit eats.
    writeWord(&prog, n->valuePtrAddr(), rec);
    n->value_addr = rec;
    ++n->version;
    cleanRange(&prog, n->addr, nodeBytes(n->level));
    prog.push_back(MemOp::fence());
}

std::uint64_t
KvStore::insertImpl(Program *prog)
{
    const std::uint64_t key = ++key_count_;
    const unsigned level = levelFor(key);

    std::vector<Node *> preds;
    SKIPIT_ASSERT(search(prog, key, preds) == nullptr,
                  "kv: insert of existing key ", key);

    // Value epoch.
    const Addr rec = appendRecord(prog, key, 0);
    cleanRange(prog, rec, recordBytes());
    cleanRange(prog, metaLogHead(), 8);
    if (prog != nullptr)
        prog->push_back(MemOp::fence());

    // Node-init epoch: the node's words must be durable before any
    // pred publishes a pointer to them (a crash in between must not
    // resurrect a zero-filled node).
    auto owned = std::make_unique<Node>();
    Node *node = owned.get();
    nodes_.push_back(std::move(owned));
    node->key = key;
    node->level = level;
    node->value_addr = rec;
    node->next.assign(level, nullptr);
    node->addr = node_head_;
    node_head_ += (nodeBytes(level) + line_bytes - 1) &
                  ~static_cast<Addr>(line_bytes - 1);
    SKIPIT_ASSERT(node_head_ <= base_ + KvLayout::log_off,
                  "kv: node arena overflow (hart ", cfg_.hart, ")");
    writeWord(prog, node->keyAddr(), key);
    writeWord(prog, node->valuePtrAddr(), rec);
    writeWord(prog, node->levelAddr(), level);
    for (unsigned l = 0; l < level; ++l) {
        node->next[l] = preds[l]->next[l];
        writeWord(prog, node->nextAddr(l),
                  node->next[l] == nullptr ? 0 : node->next[l]->addr);
    }
    cleanRange(prog, node->addr, nodeBytes(level));
    if (prog != nullptr)
        prog->push_back(MemOp::fence());

    // Publish epoch: link every level, then clean each touched pred's
    // full footprint (one word per pred changed; tall preds span two
    // lines — more skip-bit fodder) plus the manifest.
    for (unsigned l = 0; l < level; ++l) {
        writeWord(prog, preds[l]->nextAddr(l), node->addr);
        preds[l]->next[l] = node;
    }
    writeWord(prog, metaNodeHead(), node_head_);
    writeWord(prog, metaKeyCount(), key_count_);
    Node *last = nullptr;
    for (unsigned l = 0; l < level; ++l) {
        if (preds[l] == last)
            continue; // contiguous duplicate: same pred serves a run
        last = preds[l];
        cleanRange(prog, last->addr, nodeBytes(last->level));
    }
    cleanRange(prog, metaLogHead(), 24);
    if (prog != nullptr)
        prog->push_back(MemOp::fence());

    by_key_[key] = node;
    return key;
}

std::uint64_t
KvStore::emitInsert(Program &prog)
{
    return insertImpl(&prog);
}

void
KvStore::emitScan(Program &prog, std::uint64_t key, unsigned n)
{
    std::vector<Node *> preds;
    search(&prog, key, preds);
    Node *x = preds[0]->next[0]; // first key >= the scan start
    for (unsigned i = 0; i < n && x != nullptr; ++i) {
        loadWord(&prog, x->keyAddr());
        loadWord(&prog, x->valuePtrAddr());
        loadRecord(&prog, x->value_addr);
        loadWord(&prog, x->nextAddr(0));
        x = x->next[0];
    }
}

void
KvStore::prefill(std::uint64_t n)
{
    SKIPIT_ASSERT(key_count_ == 0, "kv: prefill on a non-empty store");
    for (std::uint64_t i = 0; i < n; ++i)
        insertImpl(nullptr);
}

} // namespace skipit::kv
