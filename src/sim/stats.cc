#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "invariant.hh"
#include "json.hh"
#include "logging.hh"
#include "profiler.hh"

namespace pciesim::stats
{

const char *
unitName(Unit u)
{
    switch (u) {
      case Unit::None: return "";
      case Unit::Count: return "count";
      case Unit::Tick: return "tick";
      case Unit::Nanosecond: return "ns";
      case Unit::Second: return "s";
      case Unit::Byte: return "byte";
      case Unit::Bit: return "bit";
      case Unit::BytePerSecond: return "byte/s";
      case Unit::BitPerSecond: return "bit/s";
      case Unit::Ratio: return "ratio";
      case Unit::Percent: return "percent";
    }
    return "";
}

void
Vector::init(std::size_t n)
{
    elems_.assign(n, Counter{});
    subnames_.assign(n, std::string{});
}

void
Vector::subname(std::size_t i, const std::string &name)
{
    subnames_.at(i) = name;
}

const std::string &
Vector::subnameOf(std::size_t i) const
{
    return subnames_.at(i);
}

std::uint64_t
Vector::total() const
{
    std::uint64_t sum = 0;
    for (const Counter &c : elems_)
        sum += c.value();
    return sum;
}

void
Vector::reset()
{
    for (Counter &c : elems_)
        c.reset();
}

void
Distribution::init(double min, double max, std::size_t buckets)
{
    panicIf(buckets == 0, "distribution needs at least one bucket");
    panicIf(max <= min, "distribution max must exceed min");
    bucketMin_ = min;
    bucketMax_ = max;
    buckets_.assign(buckets, 0);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (samples_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += count;
    sum_ += v * static_cast<double>(count);

    if (!buckets_.empty()) {
        double span = bucketMax_ - bucketMin_;
        double pos = (v - bucketMin_) / span *
                     static_cast<double>(buckets_.size());
        auto idx = static_cast<std::ptrdiff_t>(pos);
        idx = std::clamp<std::ptrdiff_t>(
            idx, 0, static_cast<std::ptrdiff_t>(buckets_.size()) - 1);
        buckets_[static_cast<std::size_t>(idx)] += count;
    }
}

double
Distribution::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

namespace
{

unsigned
log2Floor(std::uint64_t v)
{
#if defined(__GNUC__)
    return 63u - static_cast<unsigned>(__builtin_clzll(v));
#else
    unsigned e = 0;
    while (v >>= 1)
        ++e;
    return e;
#endif
}

} // namespace

std::size_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < (1ull << subBucketBits_))
        return static_cast<std::size_t>(v);
    unsigned exp = log2Floor(v);
    std::uint64_t sub = (v >> (exp - subBucketBits_)) &
                        ((1ull << subBucketBits_) - 1);
    return ((exp - subBucketBits_ + 1u) << subBucketBits_) +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::bucketMidpoint(std::size_t idx)
{
    if (idx < (1u << subBucketBits_))
        return idx;
    unsigned block = static_cast<unsigned>(idx >> subBucketBits_);
    std::uint64_t sub = idx & ((1u << subBucketBits_) - 1);
    unsigned exp = block + subBucketBits_ - 1;
    std::uint64_t width = 1ull << (exp - subBucketBits_);
    std::uint64_t low = (1ull << exp) + sub * width;
    return low + (width >> 1);
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (samples_ == 0 || v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    samples_ += count;
    sum_ += v * count;
    std::size_t idx = bucketIndex(v);
    if (!buckets_ || idx < lo_ || idx > hi_)
        cover(idx);
    buckets_[idx - lo_] += count;
}

void
Histogram::cover(std::size_t idx)
{
    std::size_t lo = buckets_ ? std::min<std::size_t>(lo_, idx) : idx;
    std::size_t hi = buckets_ ? std::max<std::size_t>(hi_, idx) : idx;
    auto grown = std::make_unique<std::uint64_t[]>(hi - lo + 1);
    if (buckets_)
        std::copy_n(buckets_.get(), hi_ - lo_ + 1,
                    grown.get() + (lo_ - lo));
    buckets_ = std::move(grown);
    lo_ = static_cast<std::uint16_t>(lo);
    hi_ = static_cast<std::uint16_t>(hi);
}

double
Histogram::mean() const
{
    return samples_ ? static_cast<double>(sum_) /
                          static_cast<double>(samples_)
                    : 0.0;
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (samples_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_ - 1));
    std::uint64_t cum = 0;
    for (std::size_t i = lo_; i <= hi_; ++i) {
        cum += buckets_[i - lo_];
        if (cum > target)
            return std::clamp(bucketMidpoint(i), min_, max_);
    }
    return max_;
}

void
Histogram::reset()
{
    if (buckets_)
        std::fill_n(buckets_.get(), hi_ - lo_ + 1, 0);
    samples_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

namespace
{

std::uint32_t
hashName(std::string_view name)
{
    return static_cast<std::uint32_t>(
        std::hash<std::string_view>{}(name));
}

} // namespace

std::uint32_t
Registry::internOwner(std::string_view owner)
{
    if (!owners_.empty() && ownerName(lastOwner_) == owner)
        return lastOwner_;
    std::uint32_t hash = hashName(owner);
    if (!ownerIndex_.empty()) {
        std::size_t mask = ownerIndex_.size() - 1;
        for (std::size_t i = hash & mask; ownerIndex_[i] != 0;
             i = (i + 1) & mask) {
            std::uint32_t id = ownerIndex_[i] - 1;
            if (owners_[id].hash == hash && ownerName(id) == owner)
                return lastOwner_ = id;
        }
    }
    owners_.push_back({static_cast<std::uint32_t>(ownerChars_.size()),
                       static_cast<std::uint32_t>(owner.size()), hash});
    ownerChars_.append(owner);
    lastOwner_ = static_cast<std::uint32_t>(owners_.size() - 1);
    if (2 * owners_.size() > ownerIndex_.size()) {
        // Keep the index at most half full.
        ownerIndex_.assign(
            std::max<std::size_t>(64, 2 * ownerIndex_.size()), 0);
        for (std::uint32_t id = 0; id < owners_.size(); ++id)
            indexOwner(id);
    } else {
        indexOwner(lastOwner_);
    }
    return lastOwner_;
}

void
Registry::indexOwner(std::uint32_t id)
{
    std::size_t mask = ownerIndex_.size() - 1;
    std::size_t i = owners_[id].hash & mask;
    while (ownerIndex_[i] != 0)
        i = (i + 1) & mask;
    ownerIndex_[i] = id + 1;
}

std::string_view
Registry::ownerName(std::uint32_t id) const
{
    const OwnerName &o = owners_[id];
    return std::string_view(ownerChars_).substr(o.offset, o.len);
}

void
Registry::appendName(const Entry &e, std::string &out) const
{
    std::string_view owner = ownerName(e.owner);
    out.append(owner);
    if (!owner.empty())
        out += '.';
    out.append(e.suffixView());
}

bool
Registry::nameIs(const Entry &e, std::string_view name) const
{
    std::string_view owner = ownerName(e.owner);
    std::string_view suffix = e.suffixView();
    if (owner.empty())
        return name == suffix;
    return name.size() == owner.size() + 1 + suffix.size() &&
           name.substr(0, owner.size()) == owner &&
           name[owner.size()] == '.' &&
           name.substr(owner.size() + 1) == suffix;
}

std::size_t
Registry::find(std::string_view name) const
{
    return find(name, hashName(name));
}

std::size_t
Registry::find(std::string_view name, std::uint32_t hash) const
{
    if (buckets_.empty())
        return npos;
    for (std::uint32_t e = buckets_[hash & (buckets_.size() - 1)]; e != 0;
         e = entry(e - 1).next) {
        const Entry &candidate = entry(e - 1);
        if (candidate.hash == hash && nameIs(candidate, name))
            return e - 1;
    }
    return npos;
}

void
Registry::link(std::size_t idx)
{
    Entry &e = entry(idx);
    std::uint32_t &head = buckets_[e.hash & (buckets_.size() - 1)];
    e.next = head;
    head = static_cast<std::uint32_t>(idx + 1);
}

void
Registry::unlink(std::size_t idx)
{
    const Entry &e = entry(idx);
    std::uint32_t *at = &buckets_[e.hash & (buckets_.size() - 1)];
    while (*at != idx + 1)
        at = &entry(*at - 1).next;
    *at = e.next;
}

void
Registry::insert(std::string_view owner, Literal suffix, Kind kind,
                 void *stat, Literal desc, Unit unit)
{
    panicIf(suffix.view().size() > UINT16_MAX, "stat suffix too long");
    scratch_.assign(owner);
    if (!owner.empty())
        scratch_ += '.';
    scratch_.append(suffix.view());
    std::uint32_t hash = hashName(scratch_);
    panicIf(find(scratch_, hash) != npos, "duplicate stat '", scratch_,
            "'");

    if (numEntries_ == chunks_.size() * chunkSize_) {
        chunks_.push_back(
            std::make_unique_for_overwrite<Entry[]>(chunkSize_));
    }
    entry(numEntries_++) =
        Entry{stat, suffix.c_str(), desc.c_str(), internOwner(owner), hash,
              0, static_cast<std::uint16_t>(suffix.view().size()), kind,
              unit};
    if (numEntries_ > buckets_.size()) {
        // Keep at most one entry per bucket on average.
        buckets_.assign(std::max<std::size_t>(64, 2 * buckets_.size()),
                        0);
        for (std::size_t idx = 0; idx < numEntries_; ++idx)
            link(idx);
    } else {
        link(numEntries_ - 1);
    }
    orderValid_ = false;
}

bool
Registry::remove(std::string_view name)
{
    std::size_t idx = find(name);
    if (idx == npos)
        return false;
    unlink(idx);
    // Move the last entry into the hole.
    std::size_t last = numEntries_ - 1;
    if (idx != last) {
        unlink(last);
        entry(idx) = entry(last);
        link(idx);
    }
    --numEntries_;
    orderValid_ = false;
    return true;
}

const std::vector<std::uint32_t> &
Registry::sortedOrder() const
{
    if (orderValid_)
        return order_;
    std::vector<std::pair<std::string, std::uint32_t>> named;
    named.reserve(numEntries_);
    for (std::size_t idx = 0; idx < numEntries_; ++idx) {
        named.emplace_back(std::string{},
                           static_cast<std::uint32_t>(idx));
        appendName(entry(idx), named.back().first);
    }
    std::sort(named.begin(), named.end());
    order_.clear();
    order_.reserve(named.size());
    for (const auto &[name, idx] : named)
        order_.push_back(idx);
    orderValid_ = true;
    return order_;
}

const Registry::Entry *
Registry::findKind(std::string_view name, Kind k) const
{
    std::size_t idx = find(name);
    if (idx == npos || entry(idx).kind != k)
        return nullptr;
    return &entry(idx);
}

void
Registry::noteMiss(std::string_view name, const char *kind) const
{
    PCIESIM_AUDIT(false, "stat lookup miss: no ", kind, " named '",
                  name, "'");
    if (warnedMisses_.emplace(name).second) {
        warn("stat lookup miss: no ", kind, " named '", name,
             "' (returning 0)");
    }
}

std::uint64_t
Registry::counterValue(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Counter);
    if (e == nullptr) {
        noteMiss(name, "counter");
        return 0;
    }
    return e->as<Counter>().value();
}

double
Registry::scalarValue(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Scalar);
    if (e == nullptr) {
        noteMiss(name, "scalar");
        return 0.0;
    }
    return e->as<Scalar>().value();
}

double
Registry::formulaValue(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Formula);
    if (e == nullptr) {
        noteMiss(name, "formula");
        return 0.0;
    }
    return e->as<Formula>().value();
}

std::optional<std::uint64_t>
Registry::tryCounter(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Counter);
    if (e == nullptr)
        return std::nullopt;
    return e->as<Counter>().value();
}

std::optional<double>
Registry::tryScalar(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Scalar);
    if (e == nullptr)
        return std::nullopt;
    return e->as<Scalar>().value();
}

const Histogram *
Registry::histogram(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Histogram);
    return e ? &e->as<Histogram>() : nullptr;
}

const Vector *
Registry::vector(std::string_view name) const
{
    const Entry *e = findKind(name, Kind::Vector);
    return e ? &e->as<Vector>() : nullptr;
}

bool
Registry::has(std::string_view name) const
{
    return find(name) != npos;
}

namespace
{

/** "portN" fallback for unnamed vector elements. */
std::string
elementLabel(const Vector &v, std::size_t i)
{
    const std::string &sub = v.subnameOf(i);
    if (!sub.empty())
        return sub;
    return std::to_string(i);
}

void
writeUnitSuffix(std::ostream &os, Unit unit)
{
    if (unit != Unit::None)
        os << " (" << unitName(unit) << ")";
}

void
writeDescSuffix(std::ostream &os, const char *desc)
{
    if (*desc != '\0')
        os << "  # " << desc;
    os << "\n";
}

} // namespace

void
Registry::dump(std::ostream &os) const
{
    std::string name;
    for (std::uint32_t idx : sortedOrder()) {
        const Entry &e = entry(idx);
        name.clear();
        appendName(e, name);
        if (e.kind == Kind::Vector) {
            const Vector &v = e.as<Vector>();
            for (std::size_t i = 0; i < v.size(); ++i) {
                os << std::left << std::setw(56)
                   << (name + "." + elementLabel(v, i)) << " "
                   << v[i].value();
                writeUnitSuffix(os, e.unit);
                writeDescSuffix(os, e.desc);
            }
            os << std::left << std::setw(56) << (name + ".total")
               << " " << v.total();
            writeUnitSuffix(os, e.unit);
            writeDescSuffix(os, e.desc);
            continue;
        }
        os << std::left << std::setw(56) << name << " ";
        switch (e.kind) {
          case Kind::Counter:
            os << e.as<Counter>().value();
            break;
          case Kind::Scalar:
            os << e.as<Scalar>().value();
            break;
          case Kind::Formula:
            os << e.as<Formula>().value();
            break;
          case Kind::Distribution: {
            const Distribution &d = e.as<Distribution>();
            os << "samples=" << d.samples() << " mean=" << d.mean()
               << " min=" << d.min() << " max=" << d.max();
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = e.as<Histogram>();
            os << "samples=" << h.samples() << " mean=" << h.mean()
               << " p50=" << h.quantile(0.50)
               << " p95=" << h.quantile(0.95)
               << " p99=" << h.quantile(0.99) << " min=" << h.min()
               << " max=" << h.max();
            break;
          }
          case Kind::Vector:
            break;
        }
        writeUnitSuffix(os, e.unit);
        writeDescSuffix(os, e.desc);
    }
}

void
Registry::dumpJson(std::ostream &os, std::uint64_t cur_tick,
                   unsigned epoch) const
{
    // Indexed by Kind.
    static constexpr const char *typeNames[] = {
        "counter", "scalar", "distribution",
        "histogram", "vector", "formula",
    };
    os << "{\n"
       << "  \"schema\": \"pciesim-stats\",\n"
       << "  \"version\": 1,\n"
       << "  \"curTick\": " << cur_tick << ",\n"
       << "  \"epoch\": " << epoch << ",\n"
       << "  \"stats\": [";
    bool first = true;
    std::string name;
    for (std::uint32_t idx : sortedOrder()) {
        const Entry &e = entry(idx);
        name.clear();
        appendName(e, name);
        os << (first ? "\n" : ",\n") << "    {\"name\": "
           << json::writeString(name) << ", \"type\": \""
           << typeNames[static_cast<unsigned>(e.kind)]
           << "\", \"unit\": \"" << unitName(e.unit)
           << "\", \"desc\": " << json::writeString(e.desc);
        first = false;
        switch (e.kind) {
          case Kind::Counter:
            os << ", \"value\": " << e.as<Counter>().value();
            break;
          case Kind::Scalar:
            os << ", \"value\": "
               << json::writeNumber(e.as<Scalar>().value());
            break;
          case Kind::Formula:
            os << ", \"value\": "
               << json::writeNumber(e.as<Formula>().value());
            break;
          case Kind::Vector: {
            const Vector &v = e.as<Vector>();
            os << ", \"subnames\": [";
            for (std::size_t i = 0; i < v.size(); ++i) {
                os << (i ? ", " : "")
                   << json::writeString(elementLabel(v, i));
            }
            os << "], \"values\": [";
            for (std::size_t i = 0; i < v.size(); ++i)
                os << (i ? ", " : "") << v[i].value();
            os << "], \"total\": " << v.total();
            break;
          }
          case Kind::Distribution: {
            const Distribution &d = e.as<Distribution>();
            os << ", \"samples\": " << d.samples()
               << ", \"mean\": " << json::writeNumber(d.mean())
               << ", \"min\": " << json::writeNumber(d.min())
               << ", \"max\": " << json::writeNumber(d.max());
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = e.as<Histogram>();
            os << ", \"samples\": " << h.samples()
               << ", \"mean\": " << json::writeNumber(h.mean())
               << ", \"min\": " << h.min()
               << ", \"max\": " << h.max()
               << ", \"p50\": " << h.quantile(0.50)
               << ", \"p95\": " << h.quantile(0.95)
               << ", \"p99\": " << h.quantile(0.99);
            break;
          }
        }
        os << "}";
    }
    os << "\n  ]";
    if (prof::enabled()) {
        os << ",\n  \"profiler\": ";
        prof::writeJson(os, 16);
    }
    os << "\n}\n";
}

void
Registry::resetAll()
{
    for (std::size_t i = 0; i < numEntries_; ++i) {
        const Entry &e = entry(i);
        switch (e.kind) {
          case Kind::Counter: e.as<Counter>().reset(); break;
          case Kind::Scalar: e.as<Scalar>().reset(); break;
          case Kind::Distribution: e.as<Distribution>().reset(); break;
          case Kind::Histogram: e.as<Histogram>().reset(); break;
          case Kind::Vector: e.as<Vector>().reset(); break;
          // Formulas are derived; they reset with their inputs.
          case Kind::Formula: break;
        }
    }
}

} // namespace pciesim::stats
