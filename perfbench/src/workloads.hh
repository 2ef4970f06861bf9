/**
 * @file
 * The benchmark's four workloads. Each drives the simulator only
 * through its public API, in three parts: a set-up (everything before
 * the first simulated cycle, repeated to take a median), a timed round
 * (the workload's fixed list of operations, repeated for the run's
 * duration), and correctness checks run outside the timed window.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/gpu.hh"
#include "sim/sweep.hh"
#include "spans.hh"

namespace perfbench {

struct Params
{
    std::uint64_t seed = 1;
    unsigned workers = 1; //!< sweep worker threads, min(nproc, 4)
    std::string outDir;   //!< working files (checkpoints)
};

/** What one timed round produced. */
struct Round
{
    double wallS = 0.0;
    std::uint64_t cycles = 0; //!< simulated cycles actually ticked
    std::uint64_t ops = 0;    //!< Gpu runs or sweep jobs attempted
    /** Ops that ended in a SimInvariantError (watchdog trips
     *  included). Deterministic, so pinned by the digest. */
    std::uint64_t simFailed = 0;
    /** Canonical per-op outcome strings, in a fixed order: the
     *  digest input. */
    std::vector<std::string> results;
    /** Every GpuStats the workload can see (layer metrics). */
    std::vector<mask::GpuStats> stats;
    std::vector<double> chunkMs; //!< Gpu::run chunk times (pair-xlat)
    std::vector<double> jobS;    //!< sweep job times (traced only)
    double workerUtil = 0.0;     //!< traced sweeps only
    std::uint64_t retries = 0;
    std::uint64_t aloneRuns = 0;
    std::uint64_t aloneMemoHits = 0;
    mask::WarmStateCache::Stats warm;
};

/** Costs measured by driving the snapshot layer directly. */
struct SnapshotProbe
{
    std::vector<double> restoreS; //!< one Gpu restore each
    double restoreBytes = 0.0;    //!< summed over restoreS
    double serializeS = 0.0;
    double serializeBytes = 0.0;
};

/** Correctness-check tally; a mismatch is a failed operation. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Windows and sizes, for the header. */
    virtual std::string describe() const = 0;

    /**
     * One set-up, up to the first simulated cycle. Returns the
     * seconds of it spent constructing the Gpu.
     */
    virtual double setUp() = 0;

    /** One timed round; @p rec is null when untraced. */
    virtual Round round(SpanRecorder *rec) = 0;

    /** Checks beyond round-to-round and committed-digest identity;
     *  @p first is the first untraced round. */
    virtual void check(const Round &first, Checks &checks,
                       SpanRecorder *rec) = 0;

    /** Drive Gpu::serialize / deserialize on this workload's
     *  snapshots (traced run; empty where there are none). */
    virtual SnapshotProbe probeSnapshots(SpanRecorder *)
    {
        return {};
    }
};

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Params &params);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
