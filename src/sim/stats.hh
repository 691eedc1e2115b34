/**
 * @file
 * A statistics package modeled on gem5 v20's stats framework:
 * named scalar, vector, distribution, histogram, and formula
 * statistics registered in a per-simulation registry, each carrying
 * a description and a unit. Dumpable as text (with units) and as a
 * versioned machine-readable JSON document (see dumpJson).
 * Components hold the stat objects; the registry holds non-owning
 * pointers for enumeration.
 */

#ifndef PCIESIM_SIM_STATS_HH
#define PCIESIM_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pciesim::stats
{

/**
 * Measurement unit of a statistic, printed in dumps and exported in
 * stats.json. The small fixed set covers everything the simulator
 * reports; None suppresses the unit annotation entirely.
 */
enum class Unit : std::uint8_t
{
    None,          ///< dimensionless / unspecified
    Count,         ///< plain event count
    Tick,          ///< simulated picoseconds
    Nanosecond,    ///< reported nanoseconds
    Second,        ///< reported seconds
    Byte,          ///< payload bytes
    Bit,           ///< payload bits
    BytePerSecond, ///< throughput
    BitPerSecond,  ///< throughput (the paper's Gbit/s axis)
    Ratio,         ///< unitless fraction in [0, 1]
    Percent,       ///< unitless fraction scaled to 100
};

/** Canonical short name of a unit ("count", "tick", ...). */
const char *unitName(Unit u);

/** A monotonically increasing event count. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** An arbitrary scalar quantity. */
class Scalar
{
  public:
    Scalar &operator=(double v) { value_ = v; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-size array of counters with per-element subnames — the
 * gem5 Vector stat. Used for per-port and per-direction counts
 * where the elements share one description and unit. Elements
 * without an explicit subname dump as their index.
 */
class Vector
{
  public:
    /** Size the vector; resets all elements. Call once. */
    void init(std::size_t n);

    /** Name element @p i ("port0", "up", ...) in dumps/JSON. */
    void subname(std::size_t i, const std::string &name);

    Counter &operator[](std::size_t i) { return elems_.at(i); }
    const Counter &operator[](std::size_t i) const
    {
        return elems_.at(i);
    }

    std::size_t size() const { return elems_.size(); }
    const std::string &subnameOf(std::size_t i) const;

    /** Sum over all elements. */
    std::uint64_t total() const;

    void reset();

  private:
    std::vector<Counter> elems_;
    std::vector<std::string> subnames_;
};

/**
 * A derived statistic evaluated lazily at dump time — the gem5
 * Formula. Holds a callable over other stats (goodput, replay
 * fraction, link utilization); the callable must guard its own
 * denominators. An unbound formula reads as 0.
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn))
    {}

    Formula &
    operator=(std::function<double()> fn)
    {
        fn_ = std::move(fn);
        return *this;
    }

    bool bound() const { return static_cast<bool>(fn_); }
    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/** A running sample distribution (mean/min/max, fixed buckets). */
class Distribution
{
  public:
    /** Configure bucketing: [min, max) split into @p buckets. */
    void init(double min, double max, std::size_t buckets);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t samples() const { return samples_; }
    double mean() const;
    double min() const { return min_; }
    double max() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    void reset();

  private:
    double bucketMin_ = 0.0;
    double bucketMax_ = 1.0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A latency histogram over non-negative integer samples (ticks).
 *
 * Buckets are logarithmic with 8 linear sub-buckets per power of
 * two (HdrHistogram-style), so relative error is bounded at ~12%
 * across the full 64-bit range. The 496 buckets (3,968 bytes) are
 * allocated by the first sample(); a histogram that is never
 * sampled costs one pointer. Quantiles are answered from the
 * bucket midpoints, which keeps them deterministic across runs — a
 * requirement for the golden-stats suite.
 */
class Histogram
{
  public:
    void sample(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t min() const { return samples_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /** Value at quantile @p q in [0, 1]; 0 when empty. */
    std::uint64_t quantile(double q) const;

    void reset();

  private:
    static constexpr unsigned subBucketBits_ = 3;
    static constexpr std::size_t numBuckets_ =
        (64 - subBucketBits_ + 1) << subBucketBits_;

    static std::size_t bucketIndex(std::uint64_t v);
    static std::uint64_t bucketMidpoint(std::size_t idx);

    /** numBuckets_ counts; null until the first sample. */
    std::unique_ptr<std::uint64_t[]> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A stat name suffix or description the registry keeps by pointer:
 * a string literal or another array with static storage. The
 * constructor is consteval, so a temporary or stack buffer (which
 * could dangle) does not compile.
 */
class Literal
{
  public:
    template <std::size_t N>
    consteval Literal(const char (&s)[N])
        : str_(s), len_(std::char_traits<char>::length(s))
    {}

    const char *c_str() const { return str_; }
    std::string_view view() const { return {str_, len_}; }

  private:
    const char *str_;
    std::size_t len_;
};

/**
 * A registry of named statistics.
 *
 * Registration stores non-owning pointers; the registering component
 * must outlive the registry's use (short-lived components such as a
 * workload remove their stats on destruction — see remove()). A
 * stat's full name is its owner's name, ".", and a literal suffix:
 * "system.rootComplex" + "fwdUpRequests" (an empty owner names the
 * stat by its suffix alone).
 *
 * Cost model: add() copies an owner's name once for a run of
 * consecutive adds from that owner and keeps suffix and description
 * by pointer, so registration allocates nothing per stat. The full
 * name is hashed into an index at add() time (duplicates panic
 * there, and lookups need no deferred work); full-name strings are
 * built only by dump()/dumpJson(), whose sorted order is cached
 * until the next add() or remove().
 */
class Registry
{
  public:
    void add(std::string_view owner, Literal suffix, Counter *stat,
             Literal desc = "", Unit unit = Unit::Count)
    {
        insert(owner, suffix, Kind::Counter, stat, desc, unit);
    }
    void add(std::string_view owner, Literal suffix, Scalar *stat,
             Literal desc = "", Unit unit = Unit::None)
    {
        insert(owner, suffix, Kind::Scalar, stat, desc, unit);
    }
    void add(std::string_view owner, Literal suffix,
             Distribution *stat, Literal desc = "",
             Unit unit = Unit::None)
    {
        insert(owner, suffix, Kind::Distribution, stat, desc, unit);
    }
    void add(std::string_view owner, Literal suffix, Histogram *stat,
             Literal desc = "", Unit unit = Unit::Tick)
    {
        insert(owner, suffix, Kind::Histogram, stat, desc, unit);
    }
    void add(std::string_view owner, Literal suffix, Vector *stat,
             Literal desc = "", Unit unit = Unit::Count)
    {
        insert(owner, suffix, Kind::Vector, stat, desc, unit);
    }
    void add(std::string_view owner, Literal suffix, Formula *stat,
             Literal desc = "", Unit unit = Unit::None)
    {
        insert(owner, suffix, Kind::Formula, stat, desc, unit);
    }

    /**
     * Drop the entry named @p name (a component being destroyed
     * before the registry). @return whether an entry was removed.
     */
    bool remove(std::string_view name);

    /**
     * Look up a counter value by full name. A lookup that misses
     * (absent name or non-counter entry) returns 0 after warning
     * once per name — and panics outright in audit builds — so a
     * typo in a bench or golden query cannot pass silently.
     */
    std::uint64_t counterValue(std::string_view name) const;

    /** Look up a scalar value; same miss semantics as above. */
    double scalarValue(std::string_view name) const;

    /** Look up a formula value; same miss semantics as above. */
    double formulaValue(std::string_view name) const;

    /** Counter lookup that reports absence instead of warning. */
    std::optional<std::uint64_t>
    tryCounter(std::string_view name) const;

    /** Scalar lookup that reports absence instead of warning. */
    std::optional<double> tryScalar(std::string_view name) const;

    /** Look up a histogram by full name; nullptr when absent. */
    const Histogram *histogram(std::string_view name) const;

    /** Look up a vector by full name; nullptr when absent. */
    const Vector *vector(std::string_view name) const;

    /** Whether a stat with this name exists. */
    bool has(std::string_view name) const;

    /** Dump all statistics in name order, with units. */
    void dump(std::ostream &os) const;

    /**
     * Export every statistic as one machine-readable JSON document
     * (schema "pciesim-stats" version 1): name, type, unit,
     * description, and the value(s). @p cur_tick and @p epoch tag
     * the dump for multi-epoch consumers (pciesim-report diff).
     * When the host-side profiler is enabled, a "profiler" array of
     * hot spots is appended.
     */
    void dumpJson(std::ostream &os, std::uint64_t cur_tick = 0,
                  unsigned epoch = 0) const;

    /** Reset every registered statistic to zero. */
    void resetAll();

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Scalar,
        Distribution,
        Histogram,
        Vector,
        Formula,
    };

    struct Entry
    {
        void *stat;
        const char *suffix; ///< a Literal's characters
        const char *desc;   ///< a Literal's characters
        std::uint32_t owner; ///< index into owners_
        std::uint32_t hash;  ///< of the full name
        std::uint32_t next;  ///< next entry + 1 in this bucket; 0 ends
        std::uint16_t suffixLen;
        Kind kind;
        Unit unit;

        std::string_view suffixView() const
        {
            return {suffix, suffixLen};
        }

        template <class T>
        T &
        as() const
        {
            return *static_cast<T *>(stat);
        }
    };

    /** One owner name: a span of ownerChars_. */
    struct OwnerName
    {
        std::uint32_t offset;
        std::uint32_t len;
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    void insert(std::string_view owner, Literal suffix, Kind kind,
                void *stat, Literal desc, Unit unit);

    /** Index of the last owner, copying @p owner if it differs. */
    std::uint32_t internOwner(std::string_view owner);
    std::string_view ownerName(std::uint32_t id) const;

    /** Append entry @p e's full name to @p out. */
    void appendName(const Entry &e, std::string &out) const;
    bool nameIs(const Entry &e, std::string_view name) const;

    /** Entry index named @p name (of hash @p hash), or npos. */
    std::size_t find(std::string_view name) const;
    std::size_t find(std::string_view name, std::uint32_t hash) const;
    /** Push entry @p idx onto, or take it off, its bucket's chain. */
    void link(std::size_t idx);
    void unlink(std::size_t idx);

    /** Entry indices in byte-wise full-name order (cached). */
    const std::vector<std::uint32_t> &sortedOrder() const;

    /** Entry named @p name if it is of kind @p k, else nullptr. */
    const Entry *findKind(std::string_view name, Kind k) const;

    /** Record a miss: warn once per name; panic in audit builds. */
    void noteMiss(std::string_view name, const char *kind) const;

    /** Entry @p i; entries live in fixed-size chunks. */
    Entry &entry(std::size_t i) const
    {
        return chunks_[i / chunkSize_][i % chunkSize_];
    }

    /**
     * Chunked rather than one vector: growth never copies or
     * re-touches an entry, so registering n stats touches n entries
     * of fresh memory once.
     */
    static constexpr std::size_t chunkSize_ = 256;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::size_t numEntries_ = 0;
    std::string ownerChars_;
    std::vector<OwnerName> owners_;
    /** Full-name hash index: chain heads (entry index + 1). */
    std::vector<std::uint32_t> buckets_;
    /** add()'s full-name buffer, reused across calls. */
    std::string scratch_;

    mutable std::vector<std::uint32_t> order_;
    mutable bool orderValid_ = false;
    mutable std::set<std::string, std::less<>> warnedMisses_;
};

} // namespace pciesim::stats

#endif // PCIESIM_SIM_STATS_HH
