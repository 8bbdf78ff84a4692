/**
 * @file
 * Lightweight statistics: named counters and sample distributions.
 *
 * The paper reports medians and standard deviations of repeated
 * microbenchmarks (§7.1), so Distribution keeps raw samples and can produce
 * median / mean / stddev / percentiles.
 */

#ifndef SKIPIT_SIM_STATS_HH
#define SKIPIT_SIM_STATS_HH

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace skipit {

/** A sampled value distribution with summary statistics. */
class Distribution
{
  public:
    void add(double v) { samples_.push_back(v); }
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;
    /** Median of the samples; NaN when the distribution is empty. */
    double median() const;
    double stddev() const;
    /**
     * Linearly interpolated percentile of the samples.
     * @param p percentile in [0,100]
     * @return NaN when the distribution is empty
     */
    double percentile(double p) const;
    double min() const;
    double max() const;

    const std::vector<double> &samples() const { return samples_; }
    void clear() { samples_.clear(); }

  private:
    std::vector<double> samples_;
};

/**
 * The read-only counter registry of one simulated machine.
 *
 * Components own their counters as plain integer fields and register
 * them once, at construction, as a {name, &field} table under a prefix
 * ("l1.0.", "core0.lsu.", "l2.", "dram."). Stats reads the fields only
 * when asked: a counter's full name is prefix + name, counters sharing a
 * full name are summed (every L2 slice registers under "l2."), and a
 * counter still at zero is hidden, as if it had never been bumped.
 *
 * A bump is an increment of a field its component owns, so reads are
 * exact after every step(). Registered components must outlive every
 * read.
 */
class Stats
{
  public:
    /** One registered counter: its name under the owner's prefix (a
     *  string literal) and the field holding its value. */
    struct Field
    {
        const char *name;
        const std::uint64_t *value;
    };

    /** Register a component's counters under @p prefix. */
    void add(std::string prefix, std::initializer_list<Field> fields);

    /** Read a counter; returns 0 when it is zero or unregistered. */
    std::uint64_t get(const std::string &name) const;

    void dump(std::ostream &os) const;

    /// @name Hierarchical queries
    ///
    /// Counter names are dot-separated component paths (core 0's L1
    /// counts under "l1.0.", DRAM traffic under "dram.", …), so a
    /// prefix selects one component subtree.
    /// @{

    /** All non-zero counters whose name starts with @p prefix, in name
     *  order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    byPrefix(const std::string &prefix) const;

    /** Sum of every counter whose name starts with @p prefix. */
    std::uint64_t sumPrefix(const std::string &prefix) const;

    /** dump() restricted to counters under @p prefix. */
    void dumpPrefix(std::ostream &os, const std::string &prefix) const;
    /// @}

  private:
    /** One component's registration. */
    struct Group
    {
        std::string prefix;
        std::vector<Field> fields;
    };

    std::vector<Group> groups_;
};

} // namespace skipit

#endif // SKIPIT_SIM_STATS_HH
