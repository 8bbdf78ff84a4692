#include "hash_table.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace skipit {

HashTable::HashTable(PersistCtx &ctx, std::size_t buckets) : ctx_(ctx)
{
    SKIPIT_ASSERT(buckets > 0, "hash table needs at least one bucket");
    buckets_.reserve(buckets);
    for (std::size_t i = 0; i < buckets; ++i)
        buckets_.push_back(std::make_unique<LinkedList>(ctx));
}

LinkedList &
HashTable::bucketFor(std::uint64_t key)
{
    return *buckets_[avalanche(key) % buckets_.size()];
}

bool
HashTable::contains(unsigned tid, std::uint64_t key)
{
    return bucketFor(key).contains(tid, key);
}

bool
HashTable::insert(unsigned tid, std::uint64_t key)
{
    return bucketFor(key).insert(tid, key);
}

bool
HashTable::remove(unsigned tid, std::uint64_t key)
{
    return bucketFor(key).remove(tid, key);
}

std::size_t
HashTable::sizeSlow() const
{
    std::size_t n = 0;
    for (const auto &b : buckets_)
        n += b->sizeSlow();
    return n;
}

} // namespace skipit
