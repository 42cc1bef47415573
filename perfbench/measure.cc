/**
 * @file
 * hsc_perfbench — the repository benchmark's measuring process.
 *
 * Runs one named workload as repeated batches of simulations, one
 * simulation at a time on one thread, and times only the calls into
 * each layer's public functions: the HsaSystem constructor,
 * Workload::setup, HsaSystem::run, Workload::verify,
 * TraceReader::validateAll and the StatRegistry read-out.  Every
 * simulation builds a fresh HsaSystem, so the modelled caches start
 * empty as in every user run.  Output is JSON lines on stdout; the
 * arithmetic (means, percentiles, self times, ratios, digest checks)
 * lives in perfbench/benchstats.py.
 *
 *   hsc_perfbench --workload paper_sweep --seed 1 --seconds 10 --trace 0
 *
 * Batch kinds:
 *   warmup   — the first batch of every process; checked, not timed.
 *              It faults in the heap the later batches reuse, and
 *              records each constructor's resident footprint;
 *   plain    — untimed except for the end-to-end clocks;
 *   traced   — spans around every layer call and counts read from
 *              StatRegistry;
 *   checkoff — the same inputs with the coherence checker forced off
 *              (only for workloads that run it), for sim.checker.share.
 *
 * --trace 0 runs plain batches only, so the process's peak RSS is the
 * workload's own.  --trace 1 interleaves plain, traced and checkoff
 * batches so the tracing overhead compares like with like.
 *
 * After every simulation the program runs Calibrator slices for a fifth
 * of that simulation's time; benchstats.py scales the host times by
 * the run's mean slice time, which factors out how busy the shared
 * host was during the run.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/rng.hh"
#include "trace/scenario.hh"
#include "trace/trace_io.hh"
#include "trace/trace_workload.hh"

using namespace hsc;

namespace
{

using Clock = std::chrono::steady_clock;

/** CHAI problem scale of paper_sweep (figure hierarchy). */
constexpr unsigned PaperSweepScale = 12;
/** CHAI problem scale of big_fill. */
constexpr unsigned BigFillScale = 4;
/** Scenarios per batch of scenario_checked (× 2 configs). */
constexpr unsigned ScenarioCount = 60;
/** @{ Ops each scenario runs: the seed draws its shape and mix,
 *  these fix its size, so that the batches of different seeds cost
 *  about the same.  CPU ops are split over the scenario's threads,
 *  each kernel's ops over its workgroups. */
constexpr unsigned ScenarioCpuOps = 640;
constexpr unsigned ScenarioKernelOps = 512;
/** @} */

/** One simulation of a batch: a config plus the inputs it runs. */
struct SimSpec
{
    std::string label;
    SystemConfig cfg;
    std::string chaiId;     ///< CHAI id, or empty for a trace replay
    WorkloadParams params;
    std::string traceBytes; ///< generated hsct trace (scenarios)
};

/** A span recorded by the traced batches; spans of one simulation
 *  share @c sim, the construct/setup/... spans have the sim span as
 *  their parent. */
struct Span
{
    std::uint64_t sim = 0;
    unsigned id = 0;
    unsigned parent = 0; ///< 0 = root
    const char *name = "";
    double t0 = 0.0;
    double t1 = 0.0;
};

/** Simulated work counts, read from StatRegistry after a run, by the
 *  names benchstats.py maps to per-layer metrics. */
using Counts = std::vector<std::pair<const char *, std::uint64_t>>;

struct SimResult
{
    bool ok = false;
    std::uint64_t cycles = 0, events = 0, image = 0, records = 0;
    double wallS = 0, constructS = 0, setupS = 0, runS = 0, verifyS = 0,
           decodeS = 0, footprintMb = 0;
    std::string error;
    Counts counts;
};

const Clock::time_point Epoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    statm >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** A seed derived from the --seed value for one purpose. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    return Rng(seed * 0x9E3779B97F4A7C15ull + salt).next();
}

/** Build the batch of @p workload; the simulator later receives only
 *  these generated inputs. */
bool
makeBatch(const std::string &workload, std::uint64_t seed,
          std::vector<SimSpec> &out)
{
    if (workload == "paper_sweep") {
        WorkloadParams p = bench::figureParams();
        p.scale = PaperSweepScale;
        p.seed = derive(seed, 1);
        for (const NamedConfig &nc : namedConfigs()) {
            std::string name = nc.name;
            if (name == "big64" || name == "big128")
                continue;
            for (const std::string &id : workloadIds()) {
                SystemConfig cfg = nc.make();
                bench::scaleHierarchy(cfg);
                out.push_back({id + "/" + name, cfg, id, p, {}});
            }
        }
        return true;
    }
    if (workload == "big_fill") {
        for (const char *name : {"big64", "big128"}) {
            SystemConfig cfg = configByName(name);
            cfg.check = false;
            WorkloadParams p;
            p.scale = BigFillScale;
            p.cpuThreads = 2 * cfg.topo.numCorePairs;
            p.gpuWorkgroups = cfg.numCus;
            p.seed = derive(seed, 2);
            out.push_back({std::string("tq/") + name, cfg, "tq", p, {}});
        }
        return true;
    }
    if (workload == "scenario_checked") {
        // The knobs that set a scenario's cost most (kernel count,
        // vector share, working set, op gap, producer/consumer pairs)
        // are stratified: every batch holds the same spread of each,
        // over scenarioFromSeed's ranges, and the seed decides which
        // scenario gets which value.  With only the kernel count
        // stratified, seeds 1-10 gave batches whose simulated events
        // differed by up to 13%; with all five, by up to 9%.
        Rng rng(derive(seed, 99));
        auto strata = [&rng] {
            std::vector<unsigned> v(ScenarioCount);
            std::iota(v.begin(), v.end(), 0u);
            for (unsigned i = ScenarioCount - 1; i > 0; --i)
                std::swap(v[i], v[rng.below(i + 1)]);
            return v;
        };
        const std::vector<unsigned> vec = strata(), ws = strata(),
                                    gap = strata(), pc = strata();
        SystemConfig base = baselineConfig();
        SystemConfig sharers = sharerTrackingConfig();
        for (unsigned k = 0; k < ScenarioCount; ++k) {
            ScenarioConfig sc = scenarioFromSeed(derive(seed, 100 + k));
            sc.gpuKernels = k % 4;
            sc.vectorPct = vec[k] * 61 / ScenarioCount;
            sc.workingSetBytes = (4 + ws[k] * 61 / ScenarioCount) * 1024;
            sc.opGap = 1 + gap[k] * 4 / ScenarioCount;
            sc.producerConsumer = pc[k] < ScenarioCount / 4;
            sc.opsPerCpuThread = ScenarioCpuOps / sc.cpuThreads;
            sc.opsPerWave = ScenarioKernelOps / sc.workgroupsPerKernel;
            std::ostringstream bytes(std::ios::binary);
            generateScenarioTrace(sc, bytes);
            for (const SystemConfig *cfg : {&base, &sharers}) {
                out.push_back({"scenario" + std::to_string(k) + "/" +
                                   cfg->label,
                               *cfg, "", WorkloadParams{}, bytes.str()});
            }
        }
        return true;
    }
    return false;
}

/** Counters summed over every bank, CorePair and CU that has one. */
const struct
{
    const char *name, *prefix, *suffix;
} StatCounts[] = {
    {"dir.requests", "system.dir", ".requests"},
    {"dir.probes_sent", "system.dir", ".probesSent"},
    {"dir.stalls", "system.dir", ".stalls"},
    {"dir.set_conflict_retries", "system.dir", ".setConflictRetries"},
    {"dir.llc_reads", "system.dir", ".llc.reads"},
    {"dir.llc_read_hits", "system.dir", ".llc.readHits"},
    {"mem.reads", "system.mem", ".reads"},
    {"mem.writes", "system.mem", ".writes"},
    {"cpu.l2_misses", "system.corepair", ".l2Misses"},
    {"gpu.tcc_misses", "system.tcc", ".misses"},
    {"gpu.tcp_misses", "system.cu", ".tcp.misses"},
};

Counts
readCounts(HsaSystem &sys)
{
    Counts c;
    for (const auto &s : StatCounts)
        c.emplace_back(s.name, sys.stats().sumMatching(s.prefix, s.suffix));
    const CoherenceChecker *chk = sys.checker();
    c.emplace_back("checker.transitions", chk ? chk->transitionsChecked() : 0);
    c.emplace_back("checker.blocks_shadowed", chk ? chk->blocksShadowed() : 0);
    return c;
}

/** Records spans when tracing; a no-op otherwise. */
class Tracer
{
  public:
    Tracer(std::vector<Span> *log, std::uint64_t sim) : log(log), sim(sim)
    {}

    /** Open a span; returns its id (0 when not tracing). */
    unsigned
    open(const char *name, unsigned parent)
    {
        if (!log)
            return 0;
        log->push_back({sim, ++lastId, parent, name, now(), 0.0});
        return lastId;
    }

    void
    close(unsigned id)
    {
        if (log)
            (*log)[first + id - 1].t1 = now();
    }

  private:
    std::vector<Span> *log;
    std::uint64_t sim;
    std::size_t first = log ? log->size() : 0; ///< index of span id 1
    unsigned lastId = 0;
};

/** Run one simulation.  @p spans is null unless tracing; a positive
 *  @p baseRssMb records the resident growth since the process began
 *  its first batch, right after the constructor. */
SimResult
runSim(const SimSpec &spec, bool checkOff, std::vector<Span> *spans,
       std::uint64_t simSeq, double baseRssMb)
{
    SimResult r;
    Tracer tr(spans, simSeq);
    unsigned root = tr.open("sim", 0);
    const double start = now();
    try {
        if (!spec.traceBytes.empty()) {
            unsigned id = tr.open("decode", root);
            double t0 = now();
            std::istringstream in(spec.traceBytes, std::ios::binary);
            TraceReader rd(in);
            std::uint64_t records = rd.memInits().size();
            rd.validateAll([&records](const TraceRecord &) { ++records; });
            r.records = records;
            r.decodeS = now() - t0;
            tr.close(id);
        }

        SystemConfig cfg = spec.cfg;
        if (checkOff)
            cfg.check = false;

        unsigned id = tr.open("construct", root);
        double t0 = now();
        auto sys = std::make_unique<HsaSystem>(cfg);
        r.constructS = now() - t0;
        tr.close(id);
        if (baseRssMb > 0.0)
            r.footprintMb = residentMb() - baseRssMb;

        id = tr.open("setup", root);
        t0 = now();
        std::unique_ptr<Workload> wl;
        if (spec.chaiId.empty())
            wl = std::make_unique<TraceWorkload>(
                spec.params,
                std::make_shared<std::istringstream>(spec.traceBytes,
                                                     std::ios::binary));
        else
            wl = makeWorkload(spec.chaiId, spec.params);
        wl->setup(*sys);
        r.setupS = now() - t0;
        tr.close(id);

        id = tr.open("run", root);
        t0 = now();
        bool ran = sys->run();
        r.runS = now() - t0;
        tr.close(id);

        bool verified = false;
        if (ran) {
            id = tr.open("verify", root);
            t0 = now();
            verified = wl->verify(*sys);
            r.verifyS = now() - t0;
            tr.close(id);
        }
        r.ok = ran && verified;
        if (!ran)
            r.error = sys->failReason();
        else if (!verified)
            r.error = "verify failed";

        r.cycles = sys->cpuCycles();
        r.events = sys->eventsExecuted();
        if (ran)
            r.image = sys->imageHash(sys->heapBase(), sys->heapEnd());

        if (spans) {
            id = tr.open("stats", root);
            r.counts = readCounts(*sys);
            tr.close(id);
        }
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.wallS = now() - start;
    tr.close(root);
    return r;
}

/**
 * A fixed host workload that stands in for the host's speed.  Shared
 * hosts slow the simulator by up to 2x for minutes at a time through
 * cache and memory contention that a plain arithmetic loop does not
 * feel, so the calibrator has the simulator's own mix: a binary-heap
 * event queue and a hash table of ~200 k entries with dependent
 * loads.  It shares no code with the simulator but the header-only Rng,
 * so a change to the simulator does not change it.
 */
class Calibrator
{
  public:
    Calibrator() : rng(0xCA11B)
    {
        // Every key up front, so that the working set, and with it the
        // time of a slice, does not grow as the run goes on.
        table.reserve(TableKeys);
        for (std::uint32_t k = 0; k < TableKeys; ++k)
            table[k] = k;
        for (unsigned i = 0; i < QueueDepth; ++i)
            queue.push({rng.below(1000), std::uint32_t(rng.next())});
        for (unsigned i = 0; i < 20; ++i)
            slice();
    }

    /** One fixed slice of work; returns its host seconds. */
    double
    slice()
    {
        double t0 = now();
        for (unsigned i = 0; i < SliceSteps; ++i) {
            auto [t, key] = queue.top();
            queue.pop();
            std::uint64_t &v = table[key % TableKeys];
            v += t;
            sink += v;
            queue.push({t + 1 + rng.below(100),
                        std::uint32_t(key * 2654435761u + i)});
        }
        return now() - t0;
    }

    std::uint64_t sink = 0;

  private:
    static constexpr unsigned QueueDepth = 2000;
    static constexpr unsigned TableKeys = 200000;
    static constexpr unsigned SliceSteps = 4000;

    Rng rng;
    std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                        std::vector<std::pair<std::uint64_t,
                                              std::uint32_t>>,
                        std::greater<>>
        queue;
    std::unordered_map<std::uint32_t, std::uint64_t> table;
};

/** Calibration after each simulation takes this share of its time.  A
 *  fifth pools enough slices per run for big_fill, whose batches hold
 *  only two simulations. */
constexpr double CalibrationShare = 0.2;

/** JSON string escaping for labels and error text. */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printSim(const char *mode, unsigned batch, const SimSpec &spec,
         const SimResult &r)
{
    std::printf(
        "{\"kind\":\"sim\",\"mode\":\"%s\",\"batch\":%u,\"label\":%s,"
        "\"ok\":%s,\"error\":%s,\"cycles\":%llu,\"events\":%llu,"
        "\"image\":\"%016llx\",\"records\":%llu,\"construct_s\":%.9f,"
        "\"setup_s\":%.9f,\"run_s\":%.9f,\"verify_s\":%.9f,"
        "\"decode_s\":%.9f,\"footprint_mb\":%.6f,\"counts\":{",
        mode, batch, quote(spec.label).c_str(), r.ok ? "true" : "false",
        quote(r.error).c_str(), (unsigned long long)r.cycles,
        (unsigned long long)r.events, (unsigned long long)r.image,
        (unsigned long long)r.records, r.constructS, r.setupS, r.runS,
        r.verifyS, r.decodeS, r.footprintMb);
    const char *sep = "";
    for (const auto &[name, value] : r.counts) {
        std::printf("%s\"%s\":%llu", sep, name, (unsigned long long)value);
        sep = ",";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hsc_perfbench --workload "
                 "<paper_sweep|big_fill|scenario_checked> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int traceMode = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            workload = val;
            continue;
        }
        if (key == "--seed")
            seed = std::strtoull(val, &end, 10);
        else if (key == "--seconds")
            seconds = std::strtod(val, &end);
        else if (key == "--trace")
            traceMode = int(std::strtol(val, &end, 10));
        else
            return usage();
        if (end == val || *end != '\0')
            return usage();
    }
    if (argc % 2 == 0 || seconds <= 0.0 ||
        (traceMode != 0 && traceMode != 1))
        return usage();

    // Keep every allocation on the heap and never hand it back, so
    // after the warm-up batch the constructors reuse resident pages.
    // Timing then reflects the simulator's own work, not how fast the
    // host kernel (or a hypervisor below it) backs fresh pages, which
    // varies from run to run.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);

    std::vector<SimSpec> batch;
    if (!makeBatch(workload, seed, batch))
        return usage();
    const bool hasChecker = batch.front().cfg.check;

    // After the warm-up batch, the batch kinds are cycled until the
    // time is up; each kind runs at least once.
    std::vector<const char *> kinds = {"plain"};
    if (traceMode) {
        kinds.push_back("traced");
        if (hasChecker)
            kinds.push_back("checkoff");
    }

    Calibrator cal;
    std::vector<Span> spans;
    std::uint64_t simSeq = 0;
    const double baseRss = residentMb();
    const double start = now();
    for (unsigned b = 0; b <= kinds.size() || now() - start < seconds;
         ++b) {
        const std::string mode = b ? kinds[(b - 1) % kinds.size()]
                                   : "warmup";
        std::vector<Span> *log = mode == "traced" ? &spans : nullptr;
        std::vector<SimResult> results;
        results.reserve(batch.size());
        double wall = 0.0, calib = 0.0;
        unsigned slices = 0;
        for (const SimSpec &spec : batch) {
            results.push_back(runSim(spec, mode == "checkoff", log,
                                     ++simSeq, b ? 0.0 : baseRss));
            wall += results.back().wallS;
            double until = calib + CalibrationShare * results.back().wallS;
            do {
                calib += cal.slice();
                ++slices;
            } while (calib < until);
        }
        std::printf("{\"kind\":\"batch\",\"mode\":\"%s\",\"batch\":%u,"
                    "\"wall_s\":%.9f,\"calib_s\":%.9f,\"slices\":%u}\n",
                    mode.c_str(), b, wall, calib, slices);
        for (std::size_t i = 0; i < batch.size(); ++i)
            printSim(mode.c_str(), b, batch[i], results[i]);
    }

    for (const Span &s : spans)
        std::printf("{\"kind\":\"span\",\"sim\":%llu,\"id\":%u,"
                    "\"parent\":%u,\"name\":\"%s\",\"t0\":%.9f,"
                    "\"t1\":%.9f}\n",
                    (unsigned long long)s.sim, s.id, s.parent, s.name,
                    s.t0, s.t1);
    std::printf("{\"kind\":\"process\",\"peak_rss_mb\":%.6f,"
                "\"calib_sink\":%llu}\n",
                peakRssMb(), (unsigned long long)cal.sink);
    return 0;
}
