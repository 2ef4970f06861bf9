#include "probes.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/memreq.hh"
#include "common/rng.hh"
#include "dram/dram.hh"
#include "mask/dram_sched.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"

namespace perfbench {

using namespace mask;

namespace {

constexpr int kReps = 5;
constexpr std::uint64_t kOps = 200000;

/** Median ns/op of @p body(kOps) over kReps repetitions. The body
 *  returns a checksum so the work cannot be optimised away. */
template <typename Body>
double
medianNsPerOp(SpanRecorder *rec, const char *name, Body &&body)
{
    const ScopedSpan span(rec, name);
    std::vector<double> ns;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        sink = sink + body(kOps);
        ns.push_back(1e9 * seconds(t0, Clock::now()) /
                     static_cast<double>(kOps));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** Dram::tick cost with a request offered every cycle: 3 in 4 data,
 *  1 in 4 a page-walk read at a random level, two applications. */
double
dramTickNs(std::uint64_t seed, SpanRecorder *rec, const char *name,
           bool mask_queues)
{
    const GpuConfig cfg = maxwellConfig();
    return medianNsPerOp(rec, name, [&](std::uint64_t ops) {
        RequestPool pool;
        Dram dram(cfg.dram, cfg.mask, cfg.lineBits,
                  mask_queues ? DramSchedMode::MaskQueues
                              : DramSchedMode::FrFcfs,
                  2, false);
        SilverQuotaController quota(cfg.mask, 2);
        if (mask_queues)
            dram.setQuotaProvider(&quota);
        Rng rng(seed);
        std::uint64_t done = 0;
        for (Cycle t = 0; t < ops; ++t) {
            const ReqId id = pool.alloc();
            MemRequest &req = pool[id];
            req.paddr = rng.below(1u << 26) << cfg.lineBits;
            req.app = static_cast<AppId>(rng.below(2));
            req.asid = req.app;
            const bool walk = rng.below(4) == 0;
            req.type = walk ? ReqType::Translation : ReqType::Data;
            req.pwLevel =
                walk ? static_cast<std::uint8_t>(1 + rng.below(4)) : 0;
            if (dram.canEnqueue(req))
                dram.enqueue(id, req, t);
            else
                pool.release(id);
            dram.tick(t, pool);
            auto &completed = dram.completed();
            while (!completed.empty()) {
                pool.release(completed.front());
                completed.pop_front();
                ++done;
            }
            if (mask_queues && t % cfg.mask.epochCycles == 0)
                quota.onEpoch();
        }
        return done;
    });
}

} // namespace

ComponentCosts
probeComponents(std::uint64_t seed, SpanRecorder *rec)
{
    const GpuConfig cfg = maxwellConfig();
    ComponentCosts out;

    out.tlbLookupNs = medianNsPerOp(rec, "Tlb::lookup", [&](std::uint64_t
                                                               ops) {
        Tlb tlb(cfg.l2Tlb);
        Rng rng(seed);
        for (Vpn v = 0; v < cfg.l2Tlb.entries; ++v)
            tlb.fill(static_cast<Asid>(v & 1), v, v);
        std::uint64_t hits = 0;
        Pfn pfn = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            hits += tlb.lookup(static_cast<Asid>(rng.below(2)),
                               rng.below(2 * cfg.l2Tlb.entries), &pfn)
                        ? 1
                        : 0;
        }
        return hits;
    });

    out.cacheAccessNs = medianNsPerOp(
        rec, "SetAssocCache::lookup", [&](std::uint64_t ops) {
            const std::uint32_t sets = cfg.l2.numSets();
            SetAssocCache cache(sets, cfg.l2.ways);
            Rng rng(seed);
            const std::uint64_t span = 2ull * sets * cfg.l2.ways;
            std::uint64_t hits = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                const std::uint64_t key = rng.below(span);
                if (cache.lookup(key))
                    ++hits;
                else
                    cache.fill(key);
            }
            return hits;
        });

    out.walkAddrsNs = medianNsPerOp(
        rec, "PageTable::walkAddrs", [&](std::uint64_t ops) {
            FrameAllocator frames(cfg.pageBits);
            PageTable pt(1, cfg.pageBits, frames);
            Rng rng(seed);
            std::vector<Vpn> mapped;
            for (int i = 0; i < 4096; ++i) {
                mapped.push_back(rng.below(1ull << 24));
                pt.mapPage(mapped.back());
            }
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < ops; ++i)
                sum += pt.walkAddrs(mapped[i % mapped.size()])[0];
            return sum;
        });

    out.schedPickNs = dramTickNs(seed, rec, "Dram::tick(MASK)", true);
    out.channelTickNs =
        dramTickNs(seed, rec, "Dram::tick(FR-FCFS)", false);
    return out;
}

} // namespace perfbench
