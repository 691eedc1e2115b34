/**
 * @file
 * Allocation gates (DESIGN.md §5): stat registration must not
 * allocate per stat, a histogram must not allocate until it is
 * sampled, and a fabric's live heap must stay under a ceiling.
 * Global operator new is replaced to count heap allocations inside
 * a window and the bytes live at any time; sanitizer builds replace
 * it themselves, so the suite skips there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <malloc.h>

#include "mem/packet.hh"
#include "sim/stats.hh"
#include "topo/fabric_builder.hh"

#if defined(__SANITIZE_THREAD__)
#define PCIESIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCIESIM_TSAN 1
#endif
#endif
#ifndef PCIESIM_TSAN
#define PCIESIM_TSAN 0
#endif

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};
/** Usable bytes of every live operator-new block. */
std::atomic<std::int64_t> liveBytes{0};

void *
tracked(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    liveBytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
    return p;
}

void
release(void *p)
{
    if (p != nullptr) {
        liveBytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    }
    std::free(p);
}

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    return tracked(std::malloc(n == 0 ? 1 : n));
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    auto align = static_cast<std::size_t>(al);
    std::size_t size = (n + align - 1) / align * align;
    return tracked(std::aligned_alloc(align, size == 0 ? align : size));
}

/** Heap allocations made by @p fn. */
template <class Fn>
std::uint64_t
allocationsIn(Fn &&fn)
{
    allocations = 0;
    counting = true;
    fn();
    counting = false;
    return allocations.load();
}

bool
allocatorReplaced()
{
    return PCIESIM_ASAN || PCIESIM_TSAN;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

using namespace pciesim;

TEST(StatsAlloc, InitializeDoesNotAllocatePerStat)
{
    if (allocatorReplaced())
        GTEST_SKIP() << "the sanitizer owns operator new";
    Simulation sim;
    Fabric fabric(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json"));
    std::uint64_t n = allocationsIn([&] { sim.initialize(); });
    std::printf("initialize(): %llu heap allocations\n",
                static_cast<unsigned long long>(n));
    // fanout256 registers about 12,900 stats; the registry's own
    // arrays grow geometrically, so the count stays far below one
    // allocation per stat.
    EXPECT_LE(n, 4000u) << "initialize() made " << n
                        << " heap allocations";
}

TEST(StatsAlloc, HistogramAllocatesOnFirstSample)
{
    if (allocatorReplaced())
        GTEST_SKIP() << "the sanitizer owns operator new";
    std::uint64_t n = allocationsIn([] {
        stats::Histogram h;
        EXPECT_EQ(h.quantile(0.5), 0u);
        EXPECT_DOUBLE_EQ(h.mean(), 0.0);
        h.reset();
    });
    EXPECT_EQ(n, 0u) << "a never-sampled histogram allocated";

    // The first sample allocates its bucket's window; samples
    // inside the window and reset() allocate nothing, and a sample
    // outside widens the window once.
    stats::Histogram h;
    EXPECT_EQ(allocationsIn([&] { h.sample(42); }), 1u);
    EXPECT_EQ(allocationsIn([&] { h.sample(43); }), 0u);
    EXPECT_EQ(allocationsIn([&] { h.sample(7); }), 1u);
    EXPECT_EQ(allocationsIn([&] {
                  h.reset();
                  h.sample(7);
                  h.sample(42);
              }),
              0u);
}

/** Live heap bytes added by building, initialising and briefly
 *  running the fanout256.json fabric (17 switches, 256 generators,
 *  273 links). */
std::int64_t
fanout256LiveBytes()
{
    std::int64_t before = liveBytes.load();
    Simulation sim;
    Fabric fabric(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json"));
    sim.initialize();
    fabric.runDirectWrites(1, 512);
    return liveBytes.load() - before;
}

TEST(FabricMemory, Fanout256LiveHeapUnderCeiling)
{
    if (allocatorReplaced())
        GTEST_SKIP() << "the sanitizer owns operator new";
    std::int64_t used = fanout256LiveBytes();
    std::printf("fanout256 live heap: %lld bytes\n",
                static_cast<long long>(used));
    // Measured 3.70 MB with stored config-space prefixes, windowed
    // histograms and lazily allocated link and port queues (11.1 MB
    // with 4 KB config spaces, full histograms and std::deque
    // queues). The ceiling leaves about 25% for allocator and
    // library differences.
    constexpr std::int64_t ceiling = 4608 * 1024;
    EXPECT_LE(used, ceiling)
        << "fanout256 holds " << used << " live heap bytes";
}
