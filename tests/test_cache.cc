/**
 * @file
 * Unit tests for the functional cache hierarchy.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cache/cache.hh"

using namespace mixtlb;
using namespace mixtlb::cache;

namespace
{

CacheParams
tinyCache(unsigned assoc = 2, std::uint64_t lines = 8)
{
    CacheParams params;
    params.name = "tiny";
    params.lineBytes = 64;
    params.assoc = assoc;
    params.sizeBytes = lines * 64;
    params.hitLatency = 1;
    return params;
}

} // anonymous namespace

TEST(Cache, MissThenHit)
{
    stats::StatGroup root("test");
    Cache cache(tinyCache(), &root);
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x103f, false)); // same line
    EXPECT_FALSE(cache.access(0x1040, false)); // next line
    EXPECT_EQ(root.value("tiny.hits"), 2.0);
    EXPECT_EQ(root.value("tiny.misses"), 2.0);
}

TEST(Cache, CountsDumpAsExactIntegers)
{
    // Past 10^6 events a double-formatted stat prints six significant
    // digits ("1.23457e+06"); a count must print every digit.
    stats::StatGroup root("test");
    Cache cache(tinyCache(), &root);
    EXPECT_FALSE(cache.access(0x1000, false));
    for (int i = 0; i < 1234567; i++)
        cache.access(0x1000, false);
    std::ostringstream out;
    root.dump(out);
    EXPECT_NE(out.str().find("test.tiny.hits"), std::string::npos);
    EXPECT_NE(out.str().find(" 1234567 "), std::string::npos)
        << out.str();
    EXPECT_EQ(out.str().find("e+06"), std::string::npos) << out.str();
}

TEST(Cache, LruEvictionWithinSet)
{
    stats::StatGroup root("test");
    Cache cache(tinyCache(2, 8), &root); // 4 sets, 2 ways
    // Three lines mapping to set 0: tags 0, 4, 8 (set = tag % 4).
    EXPECT_FALSE(cache.access(0 * 64, false));
    EXPECT_FALSE(cache.access(4 * 64, false));
    EXPECT_FALSE(cache.access(8 * 64, false)); // evicts tag 0
    EXPECT_FALSE(cache.access(0 * 64, false)); // miss again
    EXPECT_TRUE(cache.access(8 * 64, false));
}

TEST(Cache, LruPromotionOnHit)
{
    stats::StatGroup root("test");
    Cache cache(tinyCache(2, 8), &root);
    cache.access(0 * 64, false);
    cache.access(4 * 64, false);
    cache.access(0 * 64, false);  // promote tag 0 to MRU
    cache.access(8 * 64, false);  // should evict tag 4, not 0
    EXPECT_TRUE(cache.contains(0 * 64));
    EXPECT_FALSE(cache.contains(4 * 64));
}

TEST(Cache, ContainsDoesNotPerturb)
{
    stats::StatGroup root("test");
    Cache cache(tinyCache(), &root);
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_EQ(root.value("tiny.hits"), 0.0);
    EXPECT_EQ(root.value("tiny.misses"), 0.0);
}

TEST(Cache, FlushEmptiesEverything)
{
    stats::StatGroup root("test");
    Cache cache(tinyCache(), &root);
    cache.access(0x1000, false);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(Hierarchy, InclusiveFillAndLevels)
{
    stats::StatGroup root("test");
    HierarchyParams params;
    params.l1 = {"l1d", 4 * 1024, 8, 64, 4};
    params.l2 = {"l2", 32 * 1024, 8, 64, 12};
    params.llc = {"llc", 256 * 1024, 16, 64, 40};
    params.memLatency = 200;
    CacheHierarchy hier(params, &root);

    EXPECT_EQ(hier.accessLevel(0x1000, false), HitLevel::Memory);
    EXPECT_EQ(hier.accessLevel(0x1000, false), HitLevel::L1);
    EXPECT_EQ(hier.access(0x1000, false), 4u);

    // Push enough distinct lines through to evict 0x1000 from L1 but
    // not from LLC; it should then hit at L2 or LLC.
    for (PAddr addr = 0x100000; addr < 0x100000 + 8 * 1024; addr += 64)
        hier.accessLevel(addr, false);
    auto level = hier.accessLevel(0x1000, false);
    EXPECT_TRUE(level == HitLevel::L2 || level == HitLevel::LLC);
}

TEST(Hierarchy, LatenciesAreMonotonic)
{
    stats::StatGroup root("test");
    CacheHierarchy hier(HierarchyParams{}, &root);
    EXPECT_LT(hier.levelLatency(HitLevel::L1),
              hier.levelLatency(HitLevel::L2));
    EXPECT_LT(hier.levelLatency(HitLevel::L2),
              hier.levelLatency(HitLevel::LLC));
    EXPECT_LT(hier.levelLatency(HitLevel::LLC),
              hier.levelLatency(HitLevel::Memory));
}

TEST(CacheDeathTest, BadGeometryFails)
{
    stats::StatGroup root("test");
    CacheParams params = tinyCache();
    params.assoc = 3; // 8 lines % 3 != 0
    EXPECT_DEATH({ Cache cache(params, &root); }, "geometry");
}
