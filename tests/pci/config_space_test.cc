/**
 * @file
 * Unit tests for the configuration-space backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pci/config_space.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace pciesim;

TEST(ConfigSpaceTest, StartsAllZero)
{
    ConfigSpace cs;
    EXPECT_EQ(cs.read(0, 4), 0u);
    EXPECT_EQ(cs.read(cfg::pcieConfigSize - 4, 4), 0u);
}

TEST(ConfigSpaceTest, InitAndReadBackAllSizes)
{
    ConfigSpace cs;
    cs.init32(0x10, 0xaabbccdd);
    EXPECT_EQ(cs.read(0x10, 4), 0xaabbccddu);
    EXPECT_EQ(cs.read(0x10, 2), 0xccddu);
    EXPECT_EQ(cs.read(0x12, 2), 0xaabbu);
    EXPECT_EQ(cs.read(0x10, 1), 0xddu);
    EXPECT_EQ(cs.read(0x13, 1), 0xaau);
}

TEST(ConfigSpaceTest, WritesHonourWriteMask)
{
    ConfigSpace cs;
    cs.init16(0x04, 0x1234);
    // Only the low byte is writable.
    cs.mask16(0x04, 0x00ff);
    cs.write(0x04, 2, 0xffff);
    EXPECT_EQ(cs.read(0x04, 2), 0x12ffu);
}

TEST(ConfigSpaceTest, DefaultMaskIsReadOnly)
{
    ConfigSpace cs;
    cs.init32(0x00, 0x10d38086);
    cs.write(0x00, 4, 0xffffffff);
    EXPECT_EQ(cs.read(0x00, 4), 0x10d38086u);
}

TEST(ConfigSpaceTest, Init24LeavesTopByte)
{
    // The class code is a 24-bit field sharing a dword with the
    // revision ID; init24 must not clobber the fourth byte.
    ConfigSpace cs;
    cs.init8(0x0b, 0x77);
    cs.init24(0x08, 0x020000);
    EXPECT_EQ(cs.raw8(0x08), 0x00);
    EXPECT_EQ(cs.raw8(0x09), 0x00);
    EXPECT_EQ(cs.raw8(0x0a), 0x02);
    EXPECT_EQ(cs.raw8(0x0b), 0x77);
}

TEST(ConfigSpaceTest, SubByteMaskWithinWord)
{
    ConfigSpace cs;
    cs.mask32(0x10, 0xffff0000);
    cs.write(0x10, 4, 0x12345678);
    EXPECT_EQ(cs.read(0x10, 4), 0x12340000u);
}

class ConfigSpaceAccessSize
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ConfigSpaceAccessSize, AlignedAccessWorks)
{
    unsigned size = GetParam();
    ConfigSpace cs;
    cs.mask32(0x40, 0xffffffff);
    cs.write(0x40, size, 0xffffffff);
    std::uint32_t expect =
        size == 4 ? 0xffffffffu : (1u << (8 * size)) - 1;
    EXPECT_EQ(cs.read(0x40, size), expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConfigSpaceAccessSize,
                         ::testing::Values(1u, 2u, 4u));

TEST(ConfigSpaceTest, BadAccessesPanic)
{
    setLoggingThrows(true);
    ConfigSpace cs;
    EXPECT_THROW(cs.read(0x01, 2), PanicError);  // unaligned
    EXPECT_THROW(cs.read(0x00, 3), PanicError);  // bad size
    EXPECT_THROW(cs.read(4096, 4), PanicError);  // out of range
    EXPECT_THROW(cs.write(4094, 4, 0), PanicError);
    setLoggingThrows(false);
}

TEST(ConfigSpaceTest, OnlyThePrefixIsStored)
{
    // R1 + R2 + the AER capability; the space stays 4 KB.
    EXPECT_EQ(ConfigSpace::storedSize,
              cfg::extendedCapBase + cfg::aerCapSize);
    // Data and write mask of the prefix, nothing more.
    EXPECT_EQ(sizeof(ConfigSpace), 2 * ConfigSpace::storedSize);
}

TEST(ConfigSpaceTest, RegistersPastThePrefixPanic)
{
    setLoggingThrows(true);
    ConfigSpace cs;
    constexpr unsigned end = ConfigSpace::storedSize;
    EXPECT_NO_THROW(cs.init32(end - 4, 1));
    EXPECT_NO_THROW(cs.mask32(end - 4, 1));
    EXPECT_THROW(cs.init8(end, 1), PanicError);
    EXPECT_THROW(cs.init16(end - 1, 1), PanicError);
    EXPECT_THROW(cs.init24(end - 2, 1), PanicError);
    EXPECT_THROW(cs.init32(end - 2, 1), PanicError);
    EXPECT_THROW(cs.init32(cfg::pcieConfigSize - 4, 1), PanicError);
    EXPECT_THROW(cs.mask8(end, 1), PanicError);
    EXPECT_THROW(cs.mask16(end - 1, 1), PanicError);
    EXPECT_THROW(cs.mask32(end, 1), PanicError);
    EXPECT_THROW(cs.update16(end, 1), PanicError);
    setLoggingThrows(false);
    // Software accesses past the prefix are legal: reads see 0 and
    // writes are dropped.
    cs.write(end, 4, 0xffffffff);
    cs.write(cfg::pcieConfigSize - 1, 1, 0xff);
    EXPECT_EQ(cs.read(end, 4), 0u);
    EXPECT_EQ(cs.read(cfg::pcieConfigSize - 1, 1), 0u);
    EXPECT_EQ(cs.read(end - 4, 4), 1u);
}

/**
 * Random 1/2/4-byte software reads and writes and raw init/mask
 * calls at offsets across the whole 4 KB space, checked against a
 * 4 KB reference array with a 4 KB write mask: the stored prefix
 * must be invisible to software.
 */
TEST(ConfigSpaceTest, RandomAccessesMatchA4KReference)
{
    constexpr unsigned space = cfg::pcieConfigSize;
    constexpr unsigned end = ConfigSpace::storedSize;
    std::vector<std::uint8_t> data(space, 0), mask(space, 0);
    ConfigSpace cs;
    Rng rng(2018);
    const unsigned sizes[] = {1, 2, 4};

    auto refRead = [&](unsigned off, unsigned n) {
        std::uint32_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint32_t>(data[off + i]) << (8 * i);
        return v;
    };
    // Half the offsets fall near the stored prefix, where the
    // registers and its edge are; the rest anywhere in 4 KB.
    auto pickOffset = [&](unsigned n) {
        unsigned off = rng.next() % 2
                           ? static_cast<unsigned>(rng.next() % (end + 64))
                           : static_cast<unsigned>(rng.next() % space);
        return std::min(off, space - n);
    };

    setLoggingThrows(true);
    unsigned panics = 0;
    for (int step = 0; step < 200000; ++step) {
        unsigned op = static_cast<unsigned>(rng.next() % 4);
        auto value = static_cast<std::uint32_t>(rng.next());
        if (op < 2) {
            unsigned n = sizes[rng.next() % 3];
            unsigned off = pickOffset(n) / n * n;
            if (op == 0) {
                ASSERT_EQ(cs.read(off, n), refRead(off, n))
                    << "read of " << n << " at " << off;
            } else {
                cs.write(off, n, value);
                for (unsigned i = 0; i < n; ++i) {
                    auto byte =
                        static_cast<std::uint8_t>(value >> (8 * i));
                    data[off + i] = static_cast<std::uint8_t>(
                        (data[off + i] & ~mask[off + i]) |
                        (byte & mask[off + i]));
                }
            }
            continue;
        }
        // Raw calls need no alignment; init24 writes 3 bytes.
        unsigned n = 1 + static_cast<unsigned>(rng.next() % 4);
        if (op == 3 && n == 3)
            n = 4;
        unsigned off = pickOffset(n);
        auto apply = [&] {
            if (op == 2) {
                switch (n) {
                  case 1: cs.init8(off, value); break;
                  case 2: cs.init16(off, value); break;
                  case 3: cs.init24(off, value); break;
                  default: cs.init32(off, value); break;
                }
            } else {
                switch (n) {
                  case 1: cs.mask8(off, value); break;
                  case 2: cs.mask16(off, value); break;
                  default: cs.mask32(off, value); break;
                }
            }
        };
        if (off + n > end) {
            ASSERT_THROW(apply(), PanicError)
                << "raw op " << op << " of " << n << " at " << off;
            ++panics;
            continue;
        }
        apply();
        std::vector<std::uint8_t> &ref = op == 2 ? data : mask;
        for (unsigned i = 0; i < n; ++i)
            ref[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    setLoggingThrows(false);
    EXPECT_GT(panics, 1000u);

    // The whole space, every access size, and the raw readback.
    for (unsigned n : sizes) {
        for (unsigned off = 0; off < space; off += n)
            ASSERT_EQ(cs.read(off, n), refRead(off, n)) << off;
    }
    for (unsigned off = 0; off < end; off += 4) {
        ASSERT_EQ(cs.raw32(off), refRead(off, 4));
        ASSERT_EQ(cs.raw16(off + 2), refRead(off + 2, 2));
        ASSERT_EQ(cs.raw8(off + 1), data[off + 1]);
    }
}
