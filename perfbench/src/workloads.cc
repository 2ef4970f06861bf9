#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include <unistd.h>

#include "common/check.hh"
#include "common/rng.hh"
#include "sim/presets.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

namespace perfbench {

using namespace mask;

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

namespace {

/** The maxwell preset with the benchmark's seed. */
GpuConfig
seededArch(std::uint64_t seed)
{
    GpuConfig arch = archByName("maxwell");
    arch.seed = seed;
    return arch;
}

std::vector<AppDesc>
appsOf(const std::vector<std::string> &benches)
{
    std::vector<AppDesc> apps;
    for (const std::string &b : benches)
        apps.push_back(AppDesc{&findBenchmark(b)});
    return apps;
}

std::string
encodeStats(const GpuStats &stats)
{
    PairResult r;
    r.stats = stats;
    return encodePairResult(r);
}

std::string
tripText(const SimInvariantError &err)
{
    return "trip " + err.module() + " " + std::to_string(err.cycle()) +
           " " + err.detail();
}

/** Construct one Gpu and return the seconds it took. */
double
timedConstruct(const GpuConfig &cfg, const std::vector<AppDesc> &apps)
{
    const auto t0 = Clock::now();
    const Gpu gpu(cfg, apps);
    return seconds(t0, Clock::now());
}

// --- pair-xlat -----------------------------------------------------------

/**
 * 3DS_BP at SharedTLB then MASK on one thread, driving Gpu directly:
 * construct, run in fixed chunks, resetStats after warmup, collect.
 * The only workload where the L2 TLB, the walker, tokens, the bypass
 * cache and the Golden queue do real work. The SharedTLB leg trips the
 * watchdog (walker-queue starvation) and is kept that way on purpose.
 */
class PairXlat : public Workload
{
  public:
    static constexpr Cycle kWarmup = 24000;
    static constexpr Cycle kMeasure = 200000;
    static constexpr Cycle kChunk = 8000;

    explicit PairXlat(const Params &p)
    {
        for (const DesignPoint point :
             {DesignPoint::SharedTlb, DesignPoint::Mask})
            legs_.push_back({point, applyDesignPoint(seededArch(p.seed),
                                                     point)});
    }

    std::string
    describe() const override
    {
        return "3DS_BP x {SharedTLB, MASK}, " + std::to_string(kWarmup) +
               " warmup + " + std::to_string(kMeasure) +
               " measured cycles in " + std::to_string(kChunk) +
               "-cycle chunks, 1 thread";
    }

    double
    setUp() override
    {
        const std::vector<AppDesc> apps = appsOf(kBenches);
        return timedConstruct(legs_.front().second, apps);
    }

    Round
    round(SpanRecorder *rec) override
    {
        Round out;
        const std::vector<AppDesc> apps = appsOf(kBenches);
        for (const auto &[point, cfg] : legs_) {
            const ScopedSpan leg(rec, std::string("leg ") +
                                          designPointName(point));
            std::unique_ptr<Gpu> gpu;
            {
                const ScopedSpan span(rec, "Gpu::Gpu");
                gpu = std::make_unique<Gpu>(cfg, apps);
            }
            ++out.ops;
            try {
                for (Cycle done = 0; done < kWarmup + kMeasure;
                     done += kChunk) {
                    if (done == kWarmup) {
                        const ScopedSpan span(rec, "Gpu::resetStats");
                        gpu->resetStats();
                    }
                    const ScopedSpan span(rec, "Gpu::run");
                    const auto t0 = Clock::now();
                    gpu->run(kChunk);
                    out.chunkMs.push_back(
                        1e3 * seconds(t0, Clock::now()));
                }
                const ScopedSpan span(rec, "Gpu::collect");
                out.stats.push_back(gpu->collect());
                out.results.push_back(encodeStats(out.stats.back()));
            } catch (const SimInvariantError &err) {
                // The partial stats still carry the layer counters,
                // the oldest-miss age among them.
                ++out.simFailed;
                const ScopedSpan span(rec, "Gpu::collect");
                out.stats.push_back(gpu->collect());
                out.results.push_back(tripText(err) + " " +
                                      encodeStats(out.stats.back()));
            }
            out.cycles += gpu->now();
        }
        return out;
    }

    void
    check(const Round &, Checks &, SpanRecorder *) override
    {}

  private:
    inline static const std::vector<std::string> kBenches = {"3DS",
                                                              "BP"};
    std::vector<std::pair<DesignPoint, GpuConfig>> legs_;
};

// --- ideal-ckpt ----------------------------------------------------------

/**
 * 3DS_BP at Ideal through runWithCheckpoints with a 10k-cycle interval
 * and keep on: translation stages idle, snapshot writes heavy. The
 * check resumes from the newest snapshot and compares.
 */
class IdealCkpt : public Workload
{
  public:
    static constexpr Cycle kWarmup = 24000;
    static constexpr Cycle kMeasure = 200000;
    static constexpr Cycle kInterval = 10000;

    explicit IdealCkpt(const Params &p)
        : cfg_(applyDesignPoint(seededArch(p.seed), DesignPoint::Ideal)),
          fp_(configFingerprint(cfg_))
    {
        policy_.intervalCycles = kInterval;
        policy_.keep = true;
        policy_.dir = p.outDir + "/ckpt-" + std::to_string(::getpid());
        std::filesystem::create_directories(policy_.dir);
        path_ = checkpointPath(policy_, fp_, kBenches, kWarmup, kMeasure);
    }

    ~IdealCkpt() override
    {
        std::error_code ec;
        std::filesystem::remove_all(policy_.dir, ec);
    }

    std::string
    describe() const override
    {
        return "3DS_BP x Ideal, " + std::to_string(kWarmup) +
               " warmup + " + std::to_string(kMeasure) +
               " measured cycles, checkpoint every " +
               std::to_string(kInterval) + " cycles (keep), 1 thread";
    }

    double
    setUp() override
    {
        return timedConstruct(cfg_, appsOf(kBenches));
    }

    Round
    round(SpanRecorder *rec) override
    {
        // A snapshot left by the previous round would turn this
        // round into a resume.
        removeSnapshots();
        Round out;
        out.ops = 1;
        const ScopedSpan span(rec, "runWithCheckpoints");
        out.stats.push_back(runWithCheckpoints(
            makeGpu(rec), policy_, fp_, path_, kWarmup, kMeasure));
        out.results.push_back(encodeStats(out.stats.back()));
        out.cycles = kWarmup + kMeasure;
        return out;
    }

    void
    check(const Round &first, Checks &checks, SpanRecorder *rec) override
    {
        // Resume from the newest snapshot of the last round: it must
        // sit at the last interval boundary and reproduce the
        // uninterrupted stats exactly.
        const Cycle newest = (kWarmup + kMeasure) / kInterval * kInterval;
        Cycle at = 0;
        try {
            at = snapshotFileCycle(path_, fp_);
        } catch (const std::exception &) {
        }
        checks.expect(at == newest,
                      "ideal-ckpt: newest snapshot at cycle " +
                          std::to_string(at) + ", expected " +
                          std::to_string(newest));
        const ScopedSpan span(rec, "runWithCheckpoints(resume)");
        const GpuStats resumed = runWithCheckpoints(
            makeGpu(rec), policy_, fp_, path_, kWarmup, kMeasure);
        checks.expect(encodeStats(resumed) == first.results.front(),
                      "ideal-ckpt: resumed stats differ from the "
                      "uninterrupted run");
    }

    SnapshotProbe
    probeSnapshots(SpanRecorder *rec) override
    {
        SnapshotProbe probe;
        Gpu gpu(cfg_, appsOf(kBenches));
        const auto t0 = Clock::now();
        {
            const ScopedSpan span(rec, "loadSnapshotFile");
            loadSnapshotFile(path_, fp_, gpu);
        }
        probe.restoreS.push_back(seconds(t0, Clock::now()));
        probe.restoreBytes =
            static_cast<double>(std::filesystem::file_size(path_));
        StateWriter w;
        const auto t1 = Clock::now();
        {
            const ScopedSpan span(rec, "Gpu::serialize");
            gpu.serialize(w);
        }
        probe.serializeS = seconds(t1, Clock::now());
        probe.serializeBytes = static_cast<double>(w.str().size());
        return probe;
    }

  private:
    std::function<std::unique_ptr<Gpu>()>
    makeGpu(SpanRecorder *rec) const
    {
        return [this, rec]() {
            const ScopedSpan span(rec, "Gpu::Gpu");
            return std::make_unique<Gpu>(cfg_, appsOf(kBenches));
        };
    }

    void
    removeSnapshots() const
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
        std::filesystem::remove(path_ + ".sig", ec);
    }

    inline static const std::vector<std::string> kBenches = {"3DS",
                                                              "BP"};
    GpuConfig cfg_;
    std::uint64_t fp_;
    CheckpointPolicy policy_;
    std::string path_;
};

// --- sweeps (sweep-fig11, warm-grid) --------------------------------------

/** Shared machinery of the two SweepRunner workloads. */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const Params &p, RunOptions options, WarmPolicy warm)
        : p_(p), arch_(seededArch(p.seed)), options_(options),
          warm_(std::move(warm))
    {}

    double
    setUp() override
    {
        const std::vector<SweepJob> jobs = buildJobs();
        const std::unique_ptr<SweepRunner> runner = makeRunner(jobs, warm_);
        const SweepJob &job = jobs.front();
        return timedConstruct(applyDesignPoint(job.arch, job.point),
                              appsOf(job.benches));
    }

    Round
    round(SpanRecorder *rec) override
    {
        const std::vector<SweepJob> jobs = buildJobs();
        // Free the previous round's runner (and its warm images) first,
        // so peak RSS does not depend on the number of rounds.
        runner_.reset();
        runner_ = makeRunner(jobs, warm_);
        std::mutex mutex;
        std::vector<double> job_s;
        std::int64_t run_id = -1;
        if (rec != nullptr) {
            runner_->setExecutorForTest(
                [&](Evaluator &eval, const SweepJob &job) {
                    const auto t0 = Clock::now();
                    PairResult r = tracedExecute(rec, run_id, eval, job);
                    const std::lock_guard<std::mutex> lock(mutex);
                    job_s.push_back(seconds(t0, Clock::now()));
                    return r;
                });
        }
        Round out;
        std::uint64_t alone_requests = 0; //!< one per app per Metrics job
        const auto t0 = Clock::now();
        {
            const ScopedSpan span(rec, "SweepRunner::run");
            run_id = span.id();
            runner_->run();
        }
        const double run_s = seconds(t0, Clock::now());
        // The executor refers to this frame; runner_ outlives it.
        runner_->setExecutorForTest(nullptr);
        out.ops = jobs.size();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SweepOutcome &o = runner_->outcome(i);
            out.retries += o.attempts > 0 ? o.attempts - 1 : 0;
            if (o.status != SweepStatus::Ok) {
                ++out.simFailed;
                out.results.push_back(
                    std::string(sweepStatusName(o.status)) + " " +
                    o.error);
                continue;
            }
            const PairResult &r = runner_->result(i);
            out.results.push_back(encodePairResult(r));
            out.stats.push_back(r.stats);
            out.cycles += ticked(jobs[i]);
            if (jobs[i].mode == SweepMode::Metrics)
                alone_requests += jobs[i].benches.size();
        }
        out.aloneRuns = runner_->aloneCacheSize();
        out.aloneMemoHits = alone_requests - out.aloneRuns;
        out.warm = runner_->warmStats();
        out.cycles += out.aloneRuns * (options_.warmup + options_.measure);
        out.cycles += (out.warm.misses + out.warm.fallbacks) *
                      options_.warmup;
        out.jobS = std::move(job_s);
        if (rec != nullptr && run_s > 0.0) {
            double busy = 0.0;
            for (const double s : out.jobS)
                busy += s;
            out.workerUtil = busy / (run_s * runner_->jobs());
        }
        return out;
    }

  protected:
    virtual std::vector<SweepJob> buildJobs() const = 0;

    /** Simulated cycles an Ok job ticked in its own Gpu(s). */
    virtual Cycle ticked(const SweepJob &job) const = 0;

    std::unique_ptr<SweepRunner>
    makeRunner(const std::vector<SweepJob> &jobs,
               const WarmPolicy &warm) const
    {
        auto runner = std::make_unique<SweepRunner>(options_, p_.workers);
        runner->setPolicy(SweepPolicy{});
        runner->setWarmPolicy(warm);
        runner->setDistPolicy(DistPolicy{});
        for (const SweepJob &job : jobs)
            runner->submit(job);
        return runner;
    }

    Params p_;
    GpuConfig arch_;
    RunOptions options_;
    WarmPolicy warm_;
    std::unique_ptr<SweepRunner> runner_; //!< last round's runner

  private:
    /**
     * SweepRunner::execute for the two job shapes used here, wrapped
     * in spans. SharedOnly jobs never touch the alone-IPC memo, so a
     * private one is equivalent; Metrics jobs carry no window
     * override and use the worker's Evaluator as execute() does. The
     * traced-vs-untraced digest check proves the two agree.
     */
    static PairResult
    tracedExecute(SpanRecorder *rec, std::int64_t parent, Evaluator &eval,
                  const SweepJob &job)
    {
        const ScopedSpan span(rec, "sweep.job", parent);
        PairResult r;
        if (job.mode == SweepMode::SharedOnly) {
            Evaluator local(job.options ? *job.options : eval.options());
            local.setWarmCache(eval.warmCache());
            const ScopedSpan call(rec, "Evaluator::runShared");
            r.stats = local.runShared(job.arch, job.point, job.benches);
            r.sharedIpc = r.stats.ipc;
        } else {
            if (job.options)
                throw std::logic_error(
                    "Metrics jobs must use the runner's windows");
            const ScopedSpan call(rec, "Evaluator::evaluate");
            r = eval.evaluate(job.arch, job.point, job.benches);
        }
        return r;
    }
};

/**
 * The Fig. 11 grid as bench/fig11_performance submits it: 35 pairs x 8
 * designs in Metrics mode (one shared run plus memoized alone runs per
 * job), min(nproc, 4) workers, default sweep policy, at fig11's
 * MASK_BENCH_FAST windows (its default windows need about a minute per
 * grid on 4 workers, past the per-run budget).
 */
class SweepFig11 : public SweepWorkload
{
  public:
    explicit SweepFig11(const Params &p)
        : SweepWorkload(p, RunOptions{6000, 20000}, WarmPolicy{})
    {}

    std::string
    describe() const override
    {
        return "fig11 grid, 35 pairs x 8 designs, Metrics mode, " +
               std::to_string(options_.warmup) + " warmup + " +
               std::to_string(options_.measure) +
               " measured cycles, " + std::to_string(p_.workers) +
               " workers";
    }

    void
    check(const Round &first, Checks &checks, SpanRecorder *rec) override
    {
        // One seed-chosen job per HMR class, re-run inline on a fresh
        // Evaluator (private alone-IPC memo).
        const std::vector<SweepJob> jobs = buildJobs();
        const std::vector<WorkloadPair> &pairs = workloadPairs();
        Rng rng(p_.seed ^ 0xf1611ull);
        for (int hmr = 0; hmr <= 2; ++hmr) {
            std::vector<std::size_t> idx;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (pairs[i / kDesigns.size()].hmr == hmr)
                    idx.push_back(i);
            }
            const std::size_t i = idx[rng.below(idx.size())];
            const SweepJob &job = jobs[i];
            std::string inline_result;
            try {
                const ScopedSpan span(rec, "Evaluator::evaluate(inline)");
                Evaluator eval(options_);
                inline_result = encodePairResult(
                    eval.evaluate(job.arch, job.point, job.benches));
            } catch (const std::exception &err) {
                inline_result = err.what();
            }
            checks.expect(inline_result == first.results[i],
                          "sweep-fig11: job " + std::to_string(i) +
                              " inline result differs from threaded");
        }
    }

  protected:
    std::vector<SweepJob>
    buildJobs() const override
    {
        std::vector<SweepJob> jobs;
        for (const WorkloadPair &pair : workloadPairs()) {
            for (const DesignPoint point : kDesigns)
                jobs.push_back({arch_, point, {pair.first, pair.second}});
        }
        return jobs;
    }

    Cycle
    ticked(const SweepJob &) const override
    {
        return options_.warmup + options_.measure;
    }

  private:
    inline static const std::vector<DesignPoint> kDesigns = {
        DesignPoint::Static,    DesignPoint::PwCache,
        DesignPoint::SharedTlb, DesignPoint::MaskTlb,
        DesignPoint::MaskCache, DesignPoint::MaskDram,
        DesignPoint::Mask,      DesignPoint::Ideal,
    };
};

/**
 * A SharedOnly measure-window grid with the in-memory warm cache: one
 * pair per HMR class x {SharedTLB, MASK} x four measure windows. Each
 * (pair, design) key warms once and every other job restores it, so
 * the round is restore-heavy.
 */
class WarmGrid : public SweepWorkload
{
  public:
    static constexpr Cycle kWarmup = 48000;

    explicit WarmGrid(const Params &p)
        : SweepWorkload(p, RunOptions{kWarmup, kMeasures.back()},
                        WarmPolicy{true, "", std::size_t{256} << 20})
    {}

    std::string
    describe() const override
    {
        std::string m;
        for (const Cycle c : kMeasures)
            m += (m.empty() ? "" : "/") + std::to_string(c);
        return "3 pairs (0/1/2-HMR) x {SharedTLB, MASK} x measure " + m +
               ", SharedOnly, " + std::to_string(kWarmup) +
               " shared warmup, warm cache in memory, " +
               std::to_string(p_.workers) + " workers";
    }

    void
    check(const Round &first, Checks &checks, SpanRecorder *rec) override
    {
        // One seed-chosen job per key, re-run cold (warm cache off).
        const std::vector<SweepJob> jobs = buildJobs();
        const std::size_t keys = jobs.size() / kMeasures.size();
        Rng rng(p_.seed ^ 0x3a77ull);
        std::vector<std::size_t> picked;
        std::vector<SweepJob> cold;
        for (std::size_t k = 0; k < keys; ++k) {
            picked.push_back(rng.below(kMeasures.size()) * keys + k);
            cold.push_back(jobs[picked.back()]);
        }
        const std::unique_ptr<SweepRunner> runner =
            makeRunner(cold, WarmPolicy{});
        {
            const ScopedSpan span(rec, "SweepRunner::run(cold)");
            runner->run();
        }
        for (std::size_t k = 0; k < keys; ++k) {
            const bool ok =
                runner->outcome(k).status == SweepStatus::Ok &&
                encodePairResult(runner->result(k)) ==
                    first.results[picked[k]];
            checks.expect(ok, "warm-grid: job " +
                                  std::to_string(picked[k]) +
                                  " cold result differs from warm");
        }
    }

    SnapshotProbe
    probeSnapshots(SpanRecorder *rec) override
    {
        // Restore each key's warm image (from the last round's cache)
        // into a fresh Gpu, then serialize it back.
        SnapshotProbe probe;
        if (runner_ == nullptr || runner_->warmCache() == nullptr)
            return probe;
        const std::vector<SweepJob> jobs = buildJobs();
        const std::size_t keys = jobs.size() / kMeasures.size();
        for (std::size_t k = 0; k < keys; ++k) {
            const GpuConfig cfg =
                applyDesignPoint(jobs[k].arch, jobs[k].point);
            const std::string image = runner_->warmCache()->getOrWarm(
                warmStateKey(warmupFingerprint(cfg), jobs[k].benches,
                             kWarmup),
                kWarmup, [&]() {
                    return runWarmup(cfg, jobs[k].benches, kWarmup);
                });
            std::uint64_t cycle = 0;
            const std::string_view payload = validateSnapshotImage(
                image, warmupFingerprint(cfg), &cycle);
            Gpu gpu(cfg, appsOf(jobs[k].benches));
            const auto t0 = Clock::now();
            {
                const ScopedSpan span(rec, "Gpu::deserialize");
                StateReader reader(payload, cycle);
                gpu.deserialize(reader);
            }
            probe.restoreS.push_back(seconds(t0, Clock::now()));
            probe.restoreBytes += static_cast<double>(payload.size());
            StateWriter w;
            const auto t1 = Clock::now();
            {
                const ScopedSpan span(rec, "Gpu::serialize");
                gpu.serialize(w);
            }
            probe.serializeS += seconds(t1, Clock::now());
            probe.serializeBytes += static_cast<double>(w.str().size());
        }
        return probe;
    }

  protected:
    std::vector<SweepJob>
    buildJobs() const override
    {
        // Measure-major, so the first jobs to start warm distinct keys.
        std::vector<SweepJob> jobs;
        for (const Cycle measure : kMeasures) {
            for (int hmr = 0; hmr <= 2; ++hmr) {
                const WorkloadPair pair = pairsWithHmr(hmr).front();
                for (const DesignPoint point :
                     {DesignPoint::SharedTlb, DesignPoint::Mask}) {
                    SweepJob job{arch_, point, {pair.first, pair.second}};
                    job.mode = SweepMode::SharedOnly;
                    job.options = RunOptions{kWarmup, measure};
                    jobs.push_back(std::move(job));
                }
            }
        }
        return jobs;
    }

    Cycle
    ticked(const SweepJob &job) const override
    {
        return job.options->measure;
    }

  private:
    inline static const std::vector<Cycle> kMeasures = {4000, 8000, 12000,
                                                         16000};
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Params &params)
{
    if (name == "pair-xlat")
        return std::make_unique<PairXlat>(params);
    if (name == "ideal-ckpt")
        return std::make_unique<IdealCkpt>(params);
    if (name == "sweep-fig11")
        return std::make_unique<SweepFig11>(params);
    if (name == "warm-grid")
        return std::make_unique<WarmGrid>(params);
    return nullptr;
}

} // namespace perfbench
