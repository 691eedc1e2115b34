/**
 * @file
 * Unit tests for the FIFO ring (sim/ring.hh): random push / pop /
 * clear / assign sequences against std::deque, across growth and
 * wrap-around, with an element type that counts live objects so a
 * leaked or doubly destroyed element shows.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/ring.hh"
#include "sim/rng.hh"

using namespace pciesim;

namespace
{

/** Live objects of Tracked; a leak or a double destroy skews it. */
int live = 0;

/**
 * A refcounted value, like the PacketPtr inside a queued packet: a
 * move leaves the source empty, so reading an element after it was
 * moved away shows as -1, and a leaked copy keeps the count up.
 */
struct Tracked
{
    explicit Tracked(int v) : ref(std::make_shared<int>(v)) { ++live; }
    Tracked(const Tracked &o) : ref(o.ref) { ++live; }
    Tracked(Tracked &&o) noexcept : ref(std::move(o.ref)) { ++live; }
    Tracked &operator=(const Tracked &) = default;
    Tracked &operator=(Tracked &&) = default;
    ~Tracked() { --live; }

    int value() const { return ref ? *ref : -1; }

    std::shared_ptr<int> ref;
};

void
expectSame(const Ring<Tracked> &ring, const std::deque<int> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    ASSERT_EQ(live, static_cast<int>(ref.size()));
    std::size_t i = 0;
    for (const Tracked &t : ring) {
        ASSERT_EQ(t.value(), ref[i]) << "element " << i;
        ASSERT_EQ(ring[i].value(), ref[i]);
        ++i;
    }
    ASSERT_EQ(i, ref.size());
    if (!ref.empty()) {
        ASSERT_EQ(ring.front().value(), ref.front());
        ASSERT_EQ(ring.back().value(), ref.back());
    }
}

} // namespace

TEST(RingTest, AllocatesOnFirstPush)
{
    Ring<Tracked> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.begin(), ring.end());
    ring.push_back(Tracked(1));
    EXPECT_GT(ring.capacity(), 0u);
    std::size_t cap = ring.capacity();
    ring.clear();
    EXPECT_EQ(ring.capacity(), cap) << "clear() keeps the storage";
    EXPECT_EQ(live, 0);
}

TEST(RingTest, GrowsByDoublingAcrossWrapAround)
{
    {
        Ring<Tracked> ring;
        std::deque<int> ref;
        // Offset the head so the first growth happens wrapped.
        for (int i = 0; i < 3; ++i) {
            ring.push_back(Tracked(i));
            ref.push_back(i);
        }
        ring.pop_front();
        ring.pop_front();
        ref.pop_front();
        ref.pop_front();
        std::size_t cap = ring.capacity();
        for (int i = 3; i < 200; ++i) {
            ring.emplace_back(i);
            ref.push_back(i);
            ASSERT_TRUE(ring.capacity() == cap ||
                        ring.capacity() == 2 * cap);
            cap = ring.capacity();
            expectSame(ring, ref);
        }
        EXPECT_EQ(cap & (cap - 1), 0u) << "capacity is a power of two";
    }
    EXPECT_EQ(live, 0) << "destruction releases every element";
}

TEST(RingTest, PushOfOwnElementSurvivesGrowth)
{
    Ring<Tracked> ring;
    std::deque<int> ref;
    for (int i = 0; i < 64; ++i) {
        // Full at every power of two: the pushed reference points
        // into the storage being replaced.
        if (ring.empty()) {
            ring.push_back(Tracked(i));
            ref.push_back(i);
        } else {
            ring.push_back(ring.front());
            ref.push_back(ref.front());
        }
        expectSame(ring, ref);
    }
}

TEST(RingTest, RandomOperationsMatchDeque)
{
    Rng rng(7);
    {
        Ring<Tracked> ring;
        std::deque<int> ref;
        int next = 0;
        for (int step = 0; step < 100000; ++step) {
            unsigned op = static_cast<unsigned>(rng.next() % 100);
            if (op < 55) {
                ring.push_back(Tracked(next));
                ref.push_back(next++);
            } else if (op < 97) {
                if (!ref.empty()) {
                    ring.pop_front();
                    ref.pop_front();
                }
            } else if (op < 98) {
                ring.clear();
                ref.clear();
            } else if (op < 99) {
                // assign() from another ring's iterators, as the
                // link's replay queue copies its replay buffer.
                std::size_t n = rng.next() % 40;
                {
                    Ring<Tracked> src;
                    for (std::size_t i = 0; i < n; ++i)
                        src.emplace_back(next + static_cast<int>(i));
                    ring.assign(src.begin(), src.end());
                }
                ref.clear();
                for (std::size_t i = 0; i < n; ++i)
                    ref.push_back(next++);
                expectSame(ring, ref);
            } else {
                for (std::size_t i = 0; i < ring.size(); ++i)
                    *ring[i].ref += 1;
                for (int &v : ref)
                    v += 1;
            }
            if (step % 97 == 0)
                expectSame(ring, ref);
        }
        expectSame(ring, ref);
        // No copy outlived its pop, clear() or assign().
        for (const Tracked &t : ring)
            ASSERT_EQ(t.ref.use_count(), 1);
    }
    EXPECT_EQ(live, 0);
}
