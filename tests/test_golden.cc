/**
 * @file
 * Cross-commit behaviour lock: committed values that every later tree
 * must reproduce exactly.
 *
 *  - FNV-1a digests of encodePairResult for a small two-app machine at
 *    SharedTLB, MASK and Ideal, with fault injection off and on. The
 *    blob covers every deterministic GpuStats field, so any change in
 *    simulated behaviour, or in the sweep blob layout that journals and
 *    digests depend on, moves a digest.
 *  - configFingerprint and warmupFingerprint of the three architecture
 *    presets. Checkpoint headers, alone-IPC memo keys and warm-snapshot
 *    keys are built from them, so they must not move when a
 *    behaviour-neutral field is added to or removed from GpuConfig.
 *
 * Re-record a value only for an intended behaviour change, and say in
 * CHANGES.md which values moved and why. A failure prints the value
 * the current tree computes.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <tuple>

#include "common/config.hh"
#include "sim/gpu.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

GpuConfig
smallConfig()
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    return cfg;
}

BenchmarkParams
smallBench(const char *name, std::uint32_t cold, std::uint32_t run = 2)
{
    BenchmarkParams p;
    p.name = name;
    p.hotPages = 4;
    p.coldPages = cold;
    p.hotFraction = 0.1;
    p.pageRun = run;
    p.streamFraction = 0.6;
    p.blockWarps = 16;
    p.randWindow = 4;
    p.stepAccesses = 24;
    p.computeMean = 4;
    p.memDivergence = 2;
    p.lineReuse = 0.3;
    return p;
}

/** 3000 warmup + 9000 measured cycles; digest of the encoded result. */
std::uint64_t
pairDigest(DesignPoint point, bool faults)
{
    GpuConfig cfg = applyDesignPoint(smallConfig(), point);
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.dramDelayProb = 0.01;
        cfg.harden.fault.walkDropProb = 0.005;
        cfg.harden.fault.shootdownInterval = 4000;
    }
    const BenchmarkParams a = smallBench("a", 5000);
    const BenchmarkParams b = smallBench("b", 100, 8);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&b}});
    gpu.run(3000);
    gpu.resetStats();
    gpu.run(9000);
    PairResult r;
    r.stats = gpu.collect();
    r.sharedIpc = r.stats.ipc;
    return fnv1a64(encodePairResult(r));
}

struct DigestCase
{
    DesignPoint point;
    bool faults;
    const char *digest;
};

std::string
caseName(const DigestCase &c)
{
    return std::string(designPointName(c.point)) +
           (c.faults ? "_faults" : "_clean");
}

/** Keeps the listed test names free of the digest pointer's bytes. */
void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class GoldenPairDigest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(GoldenPairDigest, MatchesCommittedValue)
{
    const DigestCase &c = GetParam();
    EXPECT_EQ(hex(pairDigest(c.point, c.faults)), c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, GoldenPairDigest,
    ::testing::Values(
        DigestCase{DesignPoint::SharedTlb, false, "62f7a3bf29b1c3bd"},
        DigestCase{DesignPoint::SharedTlb, true, "3ee8e97c221381ca"},
        DigestCase{DesignPoint::Mask, false, "c19c13b8907d0347"},
        DigestCase{DesignPoint::Mask, true, "38f939277e635b56"},
        DigestCase{DesignPoint::Ideal, false, "05ba2d4da93b466d"},
        DigestCase{DesignPoint::Ideal, true, "72d3b38b42a77ce3"}),
    [](const auto &info) { return caseName(info.param); });

TEST(GoldenFingerprint, PresetsMatchCommittedValues)
{
    const std::tuple<GpuConfig, const char *, const char *> presets[] = {
        {maxwellConfig(), "5427eb966498c096", "d35f36379816bd04"},
        {fermiConfig(), "8f94e121e9795499", "090d607f4849272c"},
        {integratedGpuConfig(), "7aaebe60199d989c", "a8ccfb29bcbffe64"},
    };
    for (const auto &[cfg, config_fp, warmup_fp] : presets) {
        EXPECT_EQ(hex(configFingerprint(cfg)), config_fp) << cfg.name;
        EXPECT_EQ(hex(warmupFingerprint(cfg)), warmup_fp) << cfg.name;
    }
}

} // namespace
} // namespace mask
