/**
 * @file
 * Allocation gate for statistics bookkeeping (DESIGN.md §5): stat
 * registration must not allocate per stat, and a histogram must not
 * allocate until it is sampled. Global operator new is replaced to
 * count heap allocations inside a window; sanitizer builds replace
 * it themselves, so the suite skips there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

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

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    auto align = static_cast<std::size_t>(al);
    std::size_t size = (n + align - 1) / align * align;
    void *p = std::aligned_alloc(align, size == 0 ? align : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
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
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
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

    stats::Histogram h;
    EXPECT_EQ(allocationsIn([&] { h.sample(42); }), 1u);
    EXPECT_EQ(allocationsIn([&] { h.sample(7); h.reset(); }), 0u);
}
