/**
 * @file
 * perfbench: the repository benchmark (see ../NOTES.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>] [--digests <file>] [--bless] [--rev <rev>]
 *
 * One workload per process. Set-up is repeated and its median taken,
 * then timed rounds of the workload's fixed operation list run until
 * --seconds have elapsed; end-to-end metrics come from those untraced
 * rounds. With --trace 1 the same rounds are repeated with spans and
 * the stage profiler on, followed by the component and snapshot
 * probes, and the per-layer metrics are printed instead. Correctness
 * checks run outside every timed window. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/stats.hh"
#include "sim/snapshot.hh"
#include "probes.hh"
#include "spans.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench {
namespace {

using namespace mask;

constexpr int kSetups = 51;
constexpr int kMaxTracedRounds = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool bless = false;
    std::string out = ".bench_out";
    std::string digests = "perfbench/digests.txt";
    std::string rev = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
                 "[--digests <file>] [--bless] [--rev <rev>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--bless") {
            a.bless = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = *end == '\0' && !v.empty();
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            have_seconds = *end == '\0' && a.seconds > 0.0;
        } else if (flag == "--trace") {
            have_trace = v == "0" || v == "1";
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out = v;
        } else if (flag == "--digests") {
            a.digests = v;
        } else if (flag == "--rev") {
            a.rev = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return a;
}

/**
 * Knobs that change what the simulator does or measures. The
 * benchmark sets everything through policy objects, so any of these
 * in the environment would silently change the workload.
 */
void
refuseBehaviourKnobs()
{
    static const char *const prefixes[] = {
        "MASK_CKPT_",        "MASK_SWEEP_",          "MASK_NO_CYCLE_SKIP",
        "MASK_SCHED_REFERENCE", "MASK_TIMESERIES",   "MASK_TRACE",
        "MASK_BENCH_",       "MASK_PROFILE_STAGES",
    };
    std::vector<std::string> found;
    for (char **e = environ; *e != nullptr; ++e) {
        for (const char *p : prefixes) {
            if (std::strncmp(*e, p, std::strlen(p)) == 0)
                found.emplace_back(*e, std::strcspn(*e, "="));
        }
    }
    if (found.empty())
        return;
    std::string list;
    for (const std::string &f : found)
        list += " " + f;
    std::fprintf(stderr,
                 "perfbench: refusing to run with behaviour-changing "
                 "variables set:%s\n",
                 list.c_str());
    std::exit(2);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    std::string label = "none";
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const std::size_t rank =
            static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        if (rank >= 1 && v.size() - rank >= 10) {
            t.value = v[rank - 1];
            char buf[16];
            std::snprintf(buf, sizeof(buf), "p%g", p);
            t.label = buf;
            return t;
        }
    }
    t.value = v.back();
    t.label = "max";
    return t;
}

std::uint64_t
digestOf(const std::vector<std::string> &results)
{
    std::string all;
    for (const std::string &r : results) {
        all += r;
        all += '\n';
    }
    return fnv1a64(all);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Committed digests: "<workload> <seed> <digest>" per line ----------

using DigestKey = std::pair<std::string, std::uint64_t>;

std::map<DigestKey, std::string>
loadDigests(const std::string &path)
{
    std::map<DigestKey, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, digest;
        std::uint64_t seed = 0;
        if (ls >> wl >> seed >> digest)
            out[{wl, seed}] = digest;
    }
    return out;
}

void
saveDigests(const std::string &path,
            const std::map<DigestKey, std::string> &digests)
{
    std::ofstream out(path, std::ios::trunc);
    out << "# Simulated-result digests per workload and seed, written "
           "by perfbench --bless.\n";
    for (const auto &[key, digest] : digests)
        out << key.first << ' ' << key.second << ' ' << digest << '\n';
}

// --- Metrics ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    std::string note;
};

class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        std::size_t samples = 1, const std::string &note = "")
    {
        list_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                         samples, note});
    }
    const std::vector<Metric> &list() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/** Layer values of one traced round, keyed by metric name. */
std::map<std::string, double>
layerValues(const Round &r)
{
    double stage[Gpu::kNumStages] = {};
    std::uint64_t core_calls = 0, retry_probes = 0, stall = 0;
    HitMiss l1tlb, l2tlb, bypass, l1d, l2;
    std::uint64_t walks = 0, bypasses = 0, picks = 0, scanned = 0;
    std::uint64_t requests = 0, ckpt_bytes = 0, ckpt_writes = 0;
    std::uint64_t row_hits = 0, row_all = 0;
    double walk_sum = 0.0, ckpt_s = 0.0;
    std::uint64_t walk_n = 0;
    Cycle oldest = 0;
    std::size_t pool_peak = 0;
    for (const GpuStats &s : r.stats) {
        for (std::size_t i = 0; i < s.stageSeconds.size(); ++i)
            stage[i] += s.stageSeconds[i];
        if (s.stageCalls.size() > Gpu::kStageCores)
            core_calls += s.stageCalls[Gpu::kStageCores];
        retry_probes += s.dataRetryProbes;
        stall += s.warpStallCycles;
        l1tlb += s.l1Tlb;
        l2tlb += s.l2Tlb;
        bypass += s.bypassCache;
        l1d += s.l1d;
        l2 += s.l2Cache[0];
        l2 += s.l2Cache[1];
        walks += s.walks;
        walk_sum += s.walkLatency.sum;
        walk_n += s.walkLatency.count;
        oldest = std::max(oldest, s.watchdogMaxAgeSeen);
        bypasses += s.l2Bypasses;
        picks += s.dramSchedPicks;
        scanned += s.dramSchedBanksScanned;
        row_hits += s.dram.rowHits;
        row_all += s.dram.rowHits + s.dram.rowMisses + s.dram.rowConflicts;
        requests += s.requests;
        pool_peak = std::max(pool_peak, s.poolPeakLive);
        ckpt_s += s.ckptWriteSeconds;
        ckpt_bytes += s.ckptBytes;
        ckpt_writes += s.ckptWrites;
    }
    const auto d = [](auto v) { return static_cast<double>(v); };
    std::map<std::string, double> v;
    v["core.busy_s"] = stage[Gpu::kStageCores];
    v["core.calls"] = d(core_calls);
    v["core.retry_probes"] = d(retry_probes);
    v["core.warp_stall_cycles"] = d(stall);
    v["tlb.busy_s"] = stage[Gpu::kStageL2Tlb];
    v["tlb.l1_hit_rate"] = l1tlb.hitRate();
    v["tlb.l2_hit_rate"] = l2tlb.hitRate();
    v["tlb.l2_lookups"] = d(l2tlb.accesses());
    v["vm.busy_s"] = stage[Gpu::kStageWalker];
    v["vm.walks"] = d(walks);
    v["vm.walk_latency_cyc"] = safeDiv(walk_sum, d(walk_n));
    v["vm.oldest_miss_age_cyc"] = d(oldest);
    v["mask.epoch_busy_s"] = stage[Gpu::kStageEpoch];
    v["mask.bypass_hit_rate"] = bypass.hitRate();
    v["mask.l2_bypasses"] = d(bypasses);
    v["cache.busy_s"] = stage[Gpu::kStageL2Cache] + stage[Gpu::kStagePwCache];
    v["cache.l1d_hit_rate"] = l1d.hitRate();
    v["cache.l2_hit_rate"] = l2.hitRate();
    v["dram.busy_s"] = stage[Gpu::kStageDram];
    v["dram.sched_picks"] = d(picks);
    v["dram.banks_per_pick"] = safeDiv(d(scanned), d(picks));
    v["dram.row_hit_rate"] = safeDiv(d(row_hits), d(row_all));
    v["sim.gpu.other_busy_s"] =
        stage[Gpu::kStageFaults] + stage[Gpu::kStageSamplers] +
        stage[Gpu::kStageEpoch] + stage[Gpu::kStageSwitches] +
        stage[Gpu::kStageWatchdog];
    v["sim.gpu.requests"] = d(requests);
    v["sim.gpu.pool_peak_live"] = d(pool_peak);
    v["sim.snapshot.ckpt_write_s"] = ckpt_s;
    v["sim.snapshot.ckpt_bytes"] = d(ckpt_bytes);
    v["sim.snapshot.ckpt_writes"] = d(ckpt_writes);
    v["sim.sweep.jobs"] = d(r.jobS.size());
    v["sim.sweep.worker_util"] = r.workerUtil;
    v["sim.sweep.retries"] = d(r.retries);
    v["sim.runner.alone_runs"] = d(r.aloneRuns);
    v["sim.runner.alone_memo_hits"] = d(r.aloneMemoHits);
    v["sim.sweep.warm_hits"] = d(r.warm.hits);
    v["sim.sweep.warm_misses"] = d(r.warm.misses);
    v["sim.sweep.warm_fallbacks"] = d(r.warm.fallbacks);
    v["sim.sweep.warmup_cycles_saved"] = d(r.warm.warmupCyclesSaved);
    v["failed_frac"] = safeDiv(d(r.simFailed), d(r.ops));
    return v;
}

/** Simulated counters of one round: identical on every commit that
 *  keeps simulated behaviour (trace_diff.py flags any change). */
std::map<std::string, double>
simCounters(const Round &r)
{
    std::map<std::string, double> c;
    const auto d = [](auto v) { return static_cast<double>(v); };
    c["ops"] = d(r.ops);
    c["sim_failed"] = d(r.simFailed);
    c["cycles_ticked"] = d(r.cycles);
    for (const GpuStats &s : r.stats) {
        c["cycles"] += d(s.cycles);
        for (const std::uint64_t i : s.instructions)
            c["instructions"] += d(i);
        c["l1tlb_hits"] += d(s.l1Tlb.hits);
        c["l1tlb_misses"] += d(s.l1Tlb.misses);
        c["l2tlb_hits"] += d(s.l2Tlb.hits);
        c["l2tlb_misses"] += d(s.l2Tlb.misses);
        c["bypass_hits"] += d(s.bypassCache.hits);
        c["l1d_hits"] += d(s.l1d.hits);
        c["l1d_misses"] += d(s.l1d.misses);
        c["l2_hits"] += d(s.l2Cache[0].hits + s.l2Cache[1].hits);
        c["l2_misses"] += d(s.l2Cache[0].misses + s.l2Cache[1].misses);
        c["walks"] += d(s.walks);
        c["l2_bypasses"] += d(s.l2Bypasses);
        c["warp_stall_cycles"] += d(s.warpStallCycles);
        c["dram_row_hits"] += d(s.dram.rowHits);
        c["dram_serviced"] += d(s.dram.serviced[0] + s.dram.serviced[1]);
        c["requests"] += d(s.requests);
        c["oldest_miss_age"] =
            std::max(c["oldest_miss_age"], d(s.watchdogMaxAgeSeen));
    }
    return c;
}

/** Host-side work counters: deterministic, but a perf change may
 *  legitimately move them. */
std::map<std::string, double>
workCounters(const Round &r)
{
    std::map<std::string, double> c;
    const auto d = [](auto v) { return static_cast<double>(v); };
    for (const GpuStats &s : r.stats) {
        c["dram_sched_picks"] += d(s.dramSchedPicks);
        c["dram_banks_scanned"] += d(s.dramSchedBanksScanned);
        c["data_retry_probes"] += d(s.dataRetryProbes);
        c["tlb_retry_probes"] += d(s.tlbRetryProbes);
        for (std::size_t i = 0; i < s.stageCalls.size(); ++i)
            c[std::string("stage_calls.") + Gpu::stageName(i)] +=
                d(s.stageCalls[i]);
    }
    return c;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonMap(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? ", " : "") + jsonString(k) + ": " +
               jsonNumber(v);
    return out + "}";
}

std::string
jsonMetrics(const MetricSet &set)
{
    std::string out = "{";
    for (const Metric &m : set.list()) {
        out += (out.size() > 1 ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

void
writeTrace(const std::string &path, const Args &args,
           const std::string &header, const MetricSet &e2e,
           const MetricSet &layers, const Round &first,
           const std::string &digest, const SpanRecorder &rec)
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"perfbench-trace\", \"version\": 1,\n";
    out << " \"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"header\": " << jsonString(header) << ",\n";
    out << " \"digest\": " << jsonString(digest) << ",\n";
    out << " \"end_to_end\": " << jsonMetrics(e2e) << ",\n";
    out << " \"per_layer\": " << jsonMetrics(layers) << ",\n";
    out << " \"sim_counters\": " << jsonMap(simCounters(first)) << ",\n";
    out << " \"work_counters\": " << jsonMap(workCounters(first))
        << ",\n";
    out << " \"span_totals\": {";
    bool comma = false;
    for (const auto &[name, t] : rec.totals()) {
        out << (comma ? ",\n   " : "\n   ") << jsonString(name)
            << ": {\"calls\": " << t.calls
            << ", \"total_s\": " << jsonNumber(t.totalS)
            << ", \"self_s\": " << jsonNumber(t.selfS) << "}";
        comma = true;
    }
    out << "},\n \"spans\": [";
    comma = false;
    for (const Span &s : rec.spans()) {
        out << (comma ? ",\n   " : "\n   ") << "[" << s.id << ", "
            << s.parent << ", " << jsonString(s.name) << ", " << s.thread
            << ", " << jsonNumber(s.start) << ", " << jsonNumber(s.end)
            << "]";
        comma = true;
    }
    out << "]}\n";
}

void
printTable(const char *title, const MetricSet &set)
{
    std::printf("%s\n", title);
    for (const Metric &m : set.list()) {
        std::printf("  %-32s %14.6g %-10s n=%zu%s%s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.note.empty() ? "" : "  ", m.note.c_str());
    }
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    refuseBehaviourKnobs();

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    Params params;
    params.seed = args.seed;
    params.workers = std::min(nproc, 4u);
    params.outDir = args.out;
    std::filesystem::create_directories(args.out);

    std::unique_ptr<Workload> wl = makeWorkload(args.workload, params);
    if (wl == nullptr)
        usage("unknown workload '" + args.workload + "'");

    std::ostringstream hdr;
    hdr << "workload=" << args.workload << " seed=" << args.seed
        << " seconds=" << args.seconds << " trace=" << args.trace
        << " nproc=" << nproc << " cpu=\"" << cpuModel() << "\""
        << " rev=" << args.rev << " build=" << PERFBENCH_BUILD_TYPE
        << " workers=" << params.workers << " windows=\""
        << wl->describe() << "\"";
    const std::string header = hdr.str();
    std::printf("# perfbench %s\n", header.c_str());
    std::fflush(stdout);

    // Set-up: everything before the first simulated cycle, repeated.
    std::vector<double> setup_s, ctor_s;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        ctor_s.push_back(wl->setUp());
        setup_s.push_back(seconds(t0, Clock::now()));
    }

    // Untraced rounds for --seconds.
    Checks checks;
    std::vector<Round> rounds;
    std::vector<double> wall, mcps;
    const auto timed = [&](SpanRecorder *rec) {
        const auto t0 = Clock::now();
        Round r = wl->round(rec);
        r.wallS = seconds(t0, Clock::now());
        return r;
    };
    const auto start = Clock::now();
    do {
        rounds.push_back(timed(nullptr));
        wall.push_back(rounds.back().wallS);
        mcps.push_back(1e-6 * static_cast<double>(rounds.back().cycles) /
                       rounds.back().wallS);
        std::fprintf(stderr, "[perfbench] round %zu: %.3f s\n",
                     rounds.size(), rounds.back().wallS);
    } while (seconds(start, Clock::now()) < args.seconds);
    const Round &first = rounds.front();
    const std::uint64_t digest = digestOf(first.results);
    for (std::size_t i = 1; i < rounds.size(); ++i) {
        checks.expect(digestOf(rounds[i].results) == digest,
                      "round " + std::to_string(i + 1) +
                          " results differ from round 1");
    }

    MetricSet e2e;
    e2e.add("setup_s", median(setup_s), "s", setup_s.size());
    e2e.add("wall_s", median(wall), "s", wall.size());
    e2e.add("mcyc_per_s", median(mcps), "Mcyc/s", mcps.size());

    // Traced rounds + probes.
    MetricSet layers;
    SpanRecorder rec;
    if (args.trace) {
        ::setenv("MASK_PROFILE_STAGES", "1", 1);
        const std::size_t n = std::min<std::size_t>(rounds.size(),
                                                    kMaxTracedRounds);
        std::vector<Round> traced;
        std::map<std::string, std::vector<double>> per_round;
        std::vector<double> traced_wall, chunks, jobs;
        for (std::size_t i = 0; i < n; ++i) {
            const ScopedSpan span(&rec, "round");
            traced.push_back(timed(&rec));
            const Round &t = traced.back();
            traced_wall.push_back(t.wallS);
            chunks.insert(chunks.end(), t.chunkMs.begin(), t.chunkMs.end());
            jobs.insert(jobs.end(), t.jobS.begin(), t.jobS.end());
            for (const auto &[k, v] : layerValues(t))
                per_round[k].push_back(v);
            checks.expect(digestOf(t.results) == digest,
                          "traced round " + std::to_string(i + 1) +
                              " results differ from untraced");
        }
        const ComponentCosts costs = probeComponents(args.seed, &rec);
        const SnapshotProbe snap = wl->probeSnapshots(&rec);
        ::unsetenv("MASK_PROFILE_STAGES");

        const auto layer = [&](const std::string &name,
                               const std::string &unit) {
            layers.add(name, median(per_round[name]), unit,
                       per_round[name].size());
        };
        const Tail chunk_tail = tailOf(chunks);
        const Tail job_tail = tailOf(jobs);
        layer("core.busy_s", "s");
        layer("core.calls", "count");
        layer("core.retry_probes", "count");
        layer("core.warp_stall_cycles", "cycles");
        layer("tlb.busy_s", "s");
        layer("tlb.l1_hit_rate", "ratio");
        layer("tlb.l2_hit_rate", "ratio");
        layer("tlb.l2_lookups", "count");
        layers.add("tlb.lookup_ns", costs.tlbLookupNs, "ns", 5);
        layer("vm.busy_s", "s");
        layer("vm.walks", "count");
        layer("vm.walk_latency_cyc", "cycles");
        layer("vm.oldest_miss_age_cyc", "cycles");
        layers.add("vm.walk_addrs_ns", costs.walkAddrsNs, "ns", 5);
        layer("mask.epoch_busy_s", "s");
        layer("mask.bypass_hit_rate", "ratio");
        layer("mask.l2_bypasses", "count");
        layers.add("mask.sched_pick_ns", costs.schedPickNs, "ns", 5);
        layer("cache.busy_s", "s");
        layer("cache.l1d_hit_rate", "ratio");
        layer("cache.l2_hit_rate", "ratio");
        layers.add("cache.access_ns", costs.cacheAccessNs, "ns", 5);
        layer("dram.busy_s", "s");
        layer("dram.sched_picks", "count");
        layer("dram.banks_per_pick", "banks/pick");
        layer("dram.row_hit_rate", "ratio");
        layers.add("dram.channel_tick_ns", costs.channelTickNs, "ns", 5);
        layers.add("sim.gpu.ctor_s", median(ctor_s), "s", ctor_s.size());
        layers.add("sim.gpu.chunk_ms_p50", median(chunks), "ms",
                   chunks.size());
        layers.add("sim.gpu.chunk_ms_tail", chunk_tail.value, "ms",
                   chunks.size(), chunk_tail.label);
        layers.add("sim.gpu.chunks", static_cast<double>(chunks.size()),
                   "count");
        layer("sim.gpu.other_busy_s", "s");
        layer("sim.gpu.requests", "count");
        layer("sim.gpu.pool_peak_live", "count");
        layer("sim.snapshot.ckpt_write_s", "s");
        layer("sim.snapshot.ckpt_bytes", "bytes");
        layer("sim.snapshot.ckpt_writes", "count");
        layers.add("sim.snapshot.serialize_mb_per_s",
                   safeDiv(1e-6 * snap.serializeBytes, snap.serializeS),
                   "MB/s", snap.restoreS.size());
        layers.add("sim.snapshot.restore_s", median(snap.restoreS), "s",
                   snap.restoreS.size());
        double restore_total = 0.0;
        for (const double s : snap.restoreS)
            restore_total += s;
        layers.add("sim.snapshot.deserialize_mb_per_s",
                   safeDiv(1e-6 * snap.restoreBytes, restore_total),
                   "MB/s", snap.restoreS.size());
        layers.add("sim.sweep.job_s_p50", median(jobs), "s", jobs.size());
        layers.add("sim.sweep.job_s_tail", job_tail.value, "s",
                   jobs.size(), job_tail.label);
        layer("sim.sweep.jobs", "count");
        layer("sim.sweep.worker_util", "ratio");
        layer("sim.sweep.retries", "count");
        layer("sim.runner.alone_runs", "count");
        layer("sim.runner.alone_memo_hits", "count");
        layer("sim.sweep.warm_hits", "count");
        layer("sim.sweep.warm_misses", "count");
        layer("sim.sweep.warm_fallbacks", "count");
        layer("sim.sweep.warmup_cycles_saved", "cycles");
        layers.add("trace_overhead",
                   safeDiv(median(traced_wall), median(wall)) - 1.0,
                   "ratio", traced_wall.size());
        layer("failed_frac", "ratio");
    }

    // Correctness checks, outside every timed window.
    wl->check(first, checks, args.trace ? &rec : nullptr);
    std::map<DigestKey, std::string> digests = loadDigests(args.digests);
    const DigestKey key{args.workload, args.seed};
    if (args.bless) {
        digests[key] = hex(digest);
        saveDigests(args.digests, digests);
        std::printf("# blessed digest %s for %s seed %llu in %s\n",
                    hex(digest).c_str(), args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.digests.c_str());
    } else if (const auto it = digests.find(key); it != digests.end()) {
        checks.expect(it->second == hex(digest),
                      "digest " + hex(digest) + " differs from committed " +
                          it->second);
    } else {
        std::printf("# no committed digest for %s seed %llu\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed));
    }

    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    e2e.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
            "MB");

    std::printf("# digest %s over %zu ops per round; simulated failures "
                "%llu of %llu ops per round (pinned by the digest)\n",
                hex(digest).c_str(), first.results.size(),
                static_cast<unsigned long long>(first.simFailed),
                static_cast<unsigned long long>(first.ops));
    for (const std::string &r : first.results) {
        if (r.rfind("trip ", 0) == 0 || r.rfind("Failed ", 0) == 0)
            std::printf("#   %s\n", r.substr(0, r.find(" v2 ")).c_str());
    }
    for (const std::string &f : checks.failures)
        std::printf("# CHECK FAILED: %s\n", f.c_str());
    printTable("# end-to-end (untraced)", e2e);
    if (args.trace) {
        printTable("# per-layer (traced)", layers);
        const std::string path = args.out + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        writeTrace(path, args, header, e2e, layers, first, hex(digest),
                   rec);
        std::printf("# trace written to %s\n", path.c_str());
    }

    const std::uint64_t attempted = [&] {
        std::uint64_t ops = 0;
        for (const Round &r : rounds)
            ops += r.ops;
        return ops + checks.attempted;
    }();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(checks.failed),
                jsonMetrics(args.trace ? layers : e2e).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 2;
    }
}
