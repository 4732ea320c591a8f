/**
 * @file
 * Statistics primitives: named scalar counters and callback-backed
 * gauges grouped in a registry, ratio formatting, and fixed-bucket
 * histograms. Modeled loosely on gem5's stats package but kept
 * deliberately small.
 *
 * The registry (StatGroup) is the metrics backbone: components
 * register their counters under stable dotted names
 * ("engine.all.branches", "sfpf.squashes"), harnesses snapshot the
 * whole group for export (util/metrics.hh), and reset() returns every
 * registered component to a fresh-run state - including counters the
 * component keeps privately, via reset hooks.
 */

#ifndef PABP_UTIL_STATS_HH
#define PABP_UTIL_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pabp {

/** A named monotonically adjustable scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(std::uint64_t n) { val += n; return *this; }
    void reset() { val = 0; }

    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/**
 * A histogram with uniform integer buckets plus an overflow bucket.
 * Used for e.g. predicate define-to-branch distance distributions.
 *
 * Bucket i covers [i*width, (i+1)*width - 1]; a sample exactly at a
 * bucket's lower boundary (value == i*width) lands in bucket i, and
 * the first value past the last bucket (num_buckets*width) lands in
 * overflow. mean() over zero samples is 0. Both edge cases are pinned
 * by tests/test_stats.cc.
 */
class Histogram
{
  public:
    /**
     * @param num_buckets Number of uniform buckets.
     * @param bucket_width Width of each bucket (>= 1).
     */
    Histogram(std::size_t num_buckets, std::uint64_t bucket_width);

    /** Record one sample. */
    void sample(std::uint64_t value);

    std::uint64_t count() const { return total; }
    double mean() const;
    std::uint64_t sumOfSamples() const { return sum; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets.at(i); }
    std::uint64_t overflowCount() const { return overflow; }
    std::size_t numBuckets() const { return buckets.size(); }
    std::uint64_t bucketWidth() const { return width; }

    /** Reset all buckets and counts. */
    void reset();

    /** Print "lo-hi: count" lines. */
    void print(std::ostream &os, const std::string &name) const;

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t width;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
};

/**
 * A registry of named statistics. Components register their counters
 * by dotted name ("fetch.branches") - either as Scalars owned by the
 * group, or as gauges: callbacks reading a counter the component
 * itself owns. Harnesses snapshot or dump
 * them all.
 *
 * Gauge callbacks capture component pointers; the group must not
 * outlive the components registered into it.
 */
class StatGroup
{
  public:
    using Gauge = std::function<std::uint64_t()>;

    /** Fetch-or-create a scalar by name. References stay valid. */
    Scalar &scalar(const std::string &name);

    /**
     * Register a callback-backed stat. The component keeps ownership
     * of the underlying counter; the group reads it on demand.
     * Re-registering a name replaces the callback (a component
     * re-registered after reconstruction must not leave a dangling
     * capture behind).
     */
    void gauge(const std::string &name, Gauge fn);

    /**
     * Register a hook run by reset(). Components whose counters live
     * behind gauges add one so that resetting the group really
     * zeroes every registered statistic, not just the owned scalars -
     * the reset()/resetStats() symmetry the sweep layer depends on.
     */
    void onReset(std::function<void()> hook);

    /** Value of a named scalar or gauge, 0 when absent. */
    std::uint64_t value(const std::string &name) const;

    /** Is @p name a registered scalar or gauge? */
    bool has(const std::string &name) const;

    /** a/b as a double; 0 when b is 0. */
    static double ratio(std::uint64_t a, std::uint64_t b);

    /** All current values (scalars + gauges), sorted by name. */
    std::map<std::string, std::uint64_t> snapshot() const;

    /** Dump "name value" lines sorted by name. */
    void print(std::ostream &os) const;

    /** Zero all scalars and run every reset hook. */
    void reset();

    const std::map<std::string, Scalar> &all() const { return scalars; }
    std::size_t numGauges() const { return gauges.size(); }

  private:
    std::map<std::string, Scalar> scalars;
    std::map<std::string, Gauge> gauges;
    std::vector<std::function<void()>> resetHooks;
};

} // namespace pabp

#endif // PABP_UTIL_STATS_HH
