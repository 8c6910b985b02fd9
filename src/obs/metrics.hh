/**
 * @file
 * Process-wide metrics registry: lock-free counters and gauges plus
 * fixed-bucket log-scale histograms, registered by name and
 * snapshot-able as one flat JSONL record or a text exposition dump.
 *
 * Design constraints, in order:
 *  - the observation path (inc/set/observe) is wait-free -- relaxed
 *    atomics only, no locks, no allocation -- so instrumentation at
 *    job/request granularity can never perturb simulation results or
 *    measurably slow the engine;
 *  - registration (`Registry::counter(...)` etc.) takes a mutex and
 *    returns a stable reference, so call sites register once into a
 *    `static` local and observe forever;
 *  - the snapshot is a *flat* record (string / unsigned-integer
 *    fields, no nesting) in the exact FlatWriter shape the rest of
 *    the stack already parses, so `{"op":"metrics"}` replies go
 *    through `serde::parseFlat` like every other wire line.
 *
 * This library is deliberately self-contained (no stsim headers): the
 * core engine links it, not the other way around.
 */

#ifndef STSIM_OBS_METRICS_HH
#define STSIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace stsim
{
namespace obs
{

/** Monotonically increasing event count. Wait-free. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Instantaneous signed level (queue depth, idle workers). Wait-free. */
class Gauge
{
  public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }

    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed-bucket log-scale histogram over non-negative integer samples
 * (latencies in microseconds, sizes in bytes). Bucket 0 holds the
 * value 0; bucket i (1..64) holds values in [2^(i-1), 2^i - 1] --
 * i.e. the bucket index is std::bit_width(value). Quantiles are
 * estimated as the upper bound of the bucket where the cumulative
 * count crosses the rank, so p50 <= p90 <= p99 always holds and the
 * estimate is within 2x of the true sample.
 *
 * The raw bucket counts travel in snapshots (sparse "idx:count"
 * string), so a client can diff two snapshots and compute quantiles
 * over just its own measurement window.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65;

    void observe(std::uint64_t v)
    {
        buckets_[bucketFor(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Copy of the bucket counts (relaxed; a torn-across-buckets view
     *  during concurrent observation is acceptable for monitoring). */
    std::array<std::uint64_t, kBuckets> bucketCounts() const;

    /** Quantile estimate over the live counts; 0 when empty. */
    std::uint64_t quantile(double q) const;

    /** Which bucket a sample lands in: 0 for 0, else bit_width(v). */
    static int bucketFor(std::uint64_t v);

    /** Largest value bucket i can hold (0, 1, 3, 7, ..., 2^i - 1). */
    static std::uint64_t bucketUpperBound(int i);

    /**
     * Quantile over an explicit bucket-count array (the snapshot-diff
     * path: subtract two snapshots' buckets, then ask for p99 of the
     * window). Returns 0 when the counts are all zero.
     */
    static std::uint64_t quantileFromCounts(
        const std::array<std::uint64_t, kBuckets> &counts, double q);

    /** Sparse "idx:count,idx:count" encoding of nonzero buckets. */
    static std::string sparseString(
        const std::array<std::uint64_t, kBuckets> &counts);

    /** Inverse of sparseString; false on malformed input. */
    static bool parseSparse(std::string_view s,
                            std::array<std::uint64_t, kBuckets> &out);

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * The process-wide named-metric registry. Lookup-or-create is
 * mutex-guarded and returns a reference that stays valid for the
 * process lifetime; the returned objects are the wait-free
 * instruments above. Names are free-form but the convention is
 * dotted lowercase ("serve.queue_wait_us").
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * One flat JSONL record of the whole registry: counters as
     * "c.<name>", gauges as "g.<name>" (string field, signed),
     * histograms as "h.<name>.count/.sum/.p50/.p90/.p99" plus the
     * sparse "h.<name>.buckets" string. Keys are emitted in sorted
     * order so snapshots diff cleanly.
     */
    std::string snapshotJson() const;

    /** snapshotJson() to a file; false (with errno intact) on failure. */
    bool writeSnapshotFile(const std::string &path) const;

    /**
     * Append the snapshot fields to a caller-provided flat-record
     * line under construction ("{...already-open object"). The
     * append target is a raw string because obs cannot depend on
     * serde's FlatWriter; the field syntax is kept byte-compatible
     * with it (same escaping needs never arise: keys and values here
     * are [A-Za-z0-9._:,-] only).
     */
    void appendFlatFields(std::string &line, bool &first) const;

  private:
    Registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Replace the file at @p path with @p text and a newline; false (with
 * errno intact) on any failure.
 */
bool writeLineFile(const std::string &path, std::string_view text);

} // namespace obs
} // namespace stsim

#endif // STSIM_OBS_METRICS_HH
