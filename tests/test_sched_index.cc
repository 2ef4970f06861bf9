/**
 * @file
 * Differential tests for the incrementally indexed memory-scheduler
 * structures (DESIGN.md §12).
 *
 * The indexed implementations must be observationally identical to
 * the retained reference rescans:
 *  - BankedRequestQueue::pick vs pickReference under randomized
 *    traffic, including tiny starvation caps (escalation bookkeeping
 *    is part of the contract) and hasRowHit cross-checks;
 *  - DataRetryQueue vs a flat reference model under randomized
 *    park/remove churn;
 *  - a whole-GPU run with MASK_SCHED_REFERENCE=1 (reference picks)
 *    vs the default indexed picks, across design points and with
 *    fault injection on or off.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dram/banked_queue.hh"
#include "sim/gpu.hh"
#include "sim/retry_queue.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

// ---------------------------------------------------------------------
// BankedRequestQueue: indexed pick vs reference rescan
// ---------------------------------------------------------------------

/**
 * Drive twin queues (one picked through the per-bank indices, one
 * through the reference age-list rescan) with an identical randomized
 * push/service stream and require identical decisions, starvation-cap
 * escalations, and bypass bookkeeping at every step.
 */
void
driveTwinQueues(std::uint32_t num_banks, std::uint32_t cap,
                std::uint64_t seed, int steps)
{
    std::mt19937_64 rng(seed);
    std::vector<DramBank> banks(num_banks);
    BankedRequestQueue indexed(num_banks);
    BankedRequestQueue reference(num_banks);
    Cycle now = 0;
    ReqId next_id = 1;
    std::uint64_t cap_indexed = 0;
    std::uint64_t cap_reference = 0;

    for (int step = 0; step < steps; ++step) {
        now += rng() % 4;

        // Random arrivals: few distinct rows per bank so row hits,
        // bypasses and cap escalations all actually happen.
        const int arrivals = static_cast<int>(rng() % 4);
        for (int i = 0; i < arrivals && indexed.size() < 64; ++i) {
            DramQueueEntry e;
            e.id = next_id++;
            e.bank = static_cast<std::uint32_t>(rng() % num_banks);
            e.row = rng() % 4;
            e.app = static_cast<AppId>(rng() % 2);
            e.type = (rng() % 2) != 0 ? ReqType::Data
                                      : ReqType::Translation;
            e.enqueueCycle = now;
            indexed.push(e, banks);
            reference.push(e, banks);
        }

        // Index cross-checks against the rescans.
        for (std::uint32_t b = 0; b < num_banks; ++b) {
            ASSERT_EQ(indexed.hasRowHit(b),
                      indexed.hasRowHitReference(b, banks))
                << "bank " << b << " at step " << step;
        }

        const std::uint32_t ni =
            indexed.pick(banks, now, cap, &cap_indexed, nullptr);
        const std::uint32_t nr = reference.pickReference(
            banks, now, cap, &cap_reference, nullptr);
        ASSERT_EQ(ni == BankedRequestQueue::kNil,
                  nr == BankedRequestQueue::kNil)
            << "at step " << step;
        ASSERT_EQ(cap_indexed, cap_reference) << "at step " << step;
        if (ni == BankedRequestQueue::kNil)
            continue;

        const DramQueueEntry ei = indexed.take(ni);
        const DramQueueEntry er = reference.take(nr);
        ASSERT_EQ(ei.id, er.id) << "at step " << step;
        ASSERT_EQ(ei.bank, er.bank);
        ASSERT_EQ(ei.row, er.row);
        ASSERT_EQ(ei.bypassed, er.bypassed);
        ASSERT_EQ(indexed.size(), reference.size());

        // Service: activate the row on a miss, occupy the bank.
        DramBank &bank = banks[ei.bank];
        const bool row_change =
            !bank.rowValid || bank.openRow != ei.row;
        bank.openRow = ei.row;
        bank.rowValid = true;
        bank.readyAt = now + (row_change ? 30 : 15);
        if (row_change) {
            indexed.onRowChange(ei.bank, banks);
            reference.onRowChange(ei.bank, banks);
        }
    }
}

TEST(BankedQueueDifferential, RandomTrafficMatchesReference)
{
    driveTwinQueues(8, 16, 0x5eed0001, 4000);
}

TEST(BankedQueueDifferential, TinyStarvationCapEscalates)
{
    // cap=1 and cap=2 force the escalation path constantly; the
    // indexed pick must count escalations exactly like the rescan.
    driveTwinQueues(4, 1, 0x5eed0002, 4000);
    driveTwinQueues(4, 2, 0x5eed0003, 4000);
}

TEST(BankedQueueDifferential, SingleBankDegenerate)
{
    driveTwinQueues(1, 4, 0x5eed0004, 2000);
}

// ---------------------------------------------------------------------
// DataRetryQueue vs a flat reference model
// ---------------------------------------------------------------------

struct ModelEntry
{
    std::uint64_t seq;
    std::uint64_t key;
    Addr vaddr;
};

TEST(DataRetryQueueDifferential, RandomChurnMatchesFlatModel)
{
    std::mt19937_64 rng(0xfeed1234);
    DataRetryQueue q;
    std::vector<ModelEntry> model; // kept in seq (arrival) order
    std::uint64_t next_seq = 0;

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng() % 3;
        if (op != 0 || model.empty()) {
            const std::uint64_t key = rng() % 16; // dense key space
            StalledAccess access;
            access.vaddr = rng();
            access.core = 0;
            access.warp = static_cast<WarpId>(rng() % 32);
            q.park(access, /*app=*/0, /*pfn=*/0, next_seq, key);
            model.push_back(ModelEntry{next_seq, key, access.vaddr});
            ++next_seq;
        } else {
            // Remove a random parked entry, located through its key
            // chain (the only lookup path the retry pass uses).
            const std::size_t victim = rng() % model.size();
            const ModelEntry m = model[victim];
            std::uint32_t node = q.chainHead(m.key);
            while (node != DataRetryQueue::kNil &&
                   q.at(node).seq != m.seq)
                node = q.chainNext(node);
            ASSERT_NE(node, DataRetryQueue::kNil);
            ASSERT_EQ(q.at(node).access.vaddr, m.vaddr);
            const bool emptied = q.remove(node);
            model.erase(model.begin() +
                        static_cast<std::ptrdiff_t>(victim));
            bool model_has_key = false;
            for (const ModelEntry &e : model)
                model_has_key |= e.key == m.key;
            ASSERT_EQ(emptied, !model_has_key);
            ASSERT_EQ(q.hasKey(m.key), model_has_key);
        }

        ASSERT_EQ(q.size(), model.size());
        if (step % 256 == 0) {
            // Arrival order and chain contents match the model.
            std::size_t i = 0;
            bool order_ok = true;
            q.forEachSeq([&](const DataRetryQueue::Entry &e) {
                order_ok &= i < model.size() &&
                            e.seq == model[i].seq &&
                            e.key == model[i].key;
                ++i;
            });
            ASSERT_TRUE(order_ok && i == model.size());
            for (std::uint64_t key = 0; key < 16; ++key) {
                std::uint64_t last_seq = 0;
                std::size_t chain_len = 0;
                for (std::uint32_t n = q.chainHead(key);
                     n != DataRetryQueue::kNil; n = q.chainNext(n)) {
                    ASSERT_EQ(q.at(n).key, key);
                    ASSERT_TRUE(chain_len == 0 ||
                                q.at(n).seq > last_seq)
                        << "chain not in arrival order";
                    last_seq = q.at(n).seq;
                    ++chain_len;
                }
                std::size_t model_len = 0;
                for (const ModelEntry &e : model)
                    model_len += e.key == key ? 1 : 0;
                ASSERT_EQ(chain_len, model_len) << "key " << key;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-GPU: MASK_SCHED_REFERENCE=1 vs indexed picks
// ---------------------------------------------------------------------

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
smallBench(const char *name, std::uint32_t cold,
           std::uint32_t run = 2)
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

/** Deterministic simulated-machine fields; host-side observability
 *  (wall seconds, skip/profiler counters) excluded. */
std::string
statsDump(const GpuStats &s)
{
    std::ostringstream os;
    os << "cycles:" << s.cycles << " requests:" << s.requests
       << " pool:" << s.poolPeakLive << '\n';
    for (std::size_t a = 0; a < s.instructions.size(); ++a) {
        os << "instr" << a << ':' << s.instructions[a] << ','
           << std::hexfloat << s.ipc[a] << std::defaultfloat << '\n';
    }
    os << "l1d:" << s.l1d.hits << '/' << s.l1d.misses << '\n';
    os << "l1Tlb:" << s.l1Tlb.hits << '/' << s.l1Tlb.misses << '\n';
    os << "l2Tlb:" << s.l2Tlb.hits << '/' << s.l2Tlb.misses << '\n';
    os << "l2Data:" << s.l2Cache[0].hits << '/' << s.l2Cache[0].misses
       << " l2Trans:" << s.l2Cache[1].hits << '/'
       << s.l2Cache[1].misses << '\n';
    for (int t = 0; t < 2; ++t) {
        os << "dram" << t << ':' << s.dram.busBusy[t] << ','
           << s.dram.serviced[t] << ',' << s.dram.latency[t].count
           << ',' << std::hexfloat << s.dram.latency[t].sum
           << std::defaultfloat << '\n';
    }
    os << "dramRow:" << s.dram.rowHits << ',' << s.dram.rowMisses
       << ',' << s.dram.rowConflicts << ','
       << s.dram.enqueueRejects << ',' << s.dram.capEscalations
       << '\n';
    os << "walks:" << s.walks << " l2Bypasses:" << s.l2Bypasses
       << " stalls:" << s.warpStallCycles
       << " faults:" << s.faultsInjected << '\n';
    for (std::uint32_t t : s.tokens)
        os << "tokens:" << t << '\n';
    return os.str();
}

GpuStats
runOnce(GpuConfig cfg, bool reference_picks, bool faults)
{
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.dramDelayProb = 0.01;
        cfg.harden.fault.walkDropProb = 0.005;
        cfg.harden.fault.shootdownInterval = 4000;
    }
    if (reference_picks)
        ::setenv("MASK_SCHED_REFERENCE", "1", 1);
    else
        ::unsetenv("MASK_SCHED_REFERENCE");
    const BenchmarkParams a = smallBench("a", 5000);
    const BenchmarkParams b = smallBench("b", 100, 8);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&b}});
    ::unsetenv("MASK_SCHED_REFERENCE");
    gpu.run(3000);
    gpu.resetStats();
    gpu.run(9000);
    return gpu.collect();
}

class SchedReferenceEquivalence
    : public ::testing::TestWithParam<std::tuple<DesignPoint, bool>>
{
};

TEST_P(SchedReferenceEquivalence, IndexedPicksMatchReferencePicks)
{
    const DesignPoint point = std::get<0>(GetParam());
    const bool faults = std::get<1>(GetParam());
    const GpuConfig cfg = applyDesignPoint(smallConfig(), point);
    const GpuStats indexed = runOnce(cfg, false, faults);
    const GpuStats reference = runOnce(cfg, true, faults);
    EXPECT_EQ(statsDump(indexed), statsDump(reference));
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, SchedReferenceEquivalence,
    ::testing::Combine(::testing::Values(DesignPoint::SharedTlb,
                                         DesignPoint::Mask,
                                         DesignPoint::Ideal),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(designPointName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_faults" : "_clean");
    });

TEST(SchedReferenceEquivalence, TinyStarvationCapWholeGpu)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::Mask);
    cfg.dram.starvationCap = 1;
    const GpuStats indexed = runOnce(cfg, false, false);
    const GpuStats reference = runOnce(cfg, true, false);
    EXPECT_EQ(statsDump(indexed), statsDump(reference));
    // The cap must actually have escalated, or this proved nothing.
    EXPECT_GT(indexed.dram.capEscalations, 0u);
}

} // namespace
} // namespace mask
