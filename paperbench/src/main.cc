/**
 * @file
 * Paper-matrix benchmark program. Regenerates the Figure 8/9 policy
 * matrix of one workload for --seconds, one cell at a time, keeps each
 * cell's fastest repetition, checks every cell's outputs, and prints
 * the result as one JSON object on the last line of standard output:
 * the end-to-end metrics (--trace 0) or the per-layer ledger (--trace
 * 1). See README.md for the metrics, workloads and seeds.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.hh"
#include "layers.hh"
#include "matrix.hh"
#include "spans.hh"

using namespace atl;
using namespace paperbench;

namespace
{

/** A benchmark workload: one platform's full matrix. */
struct WorkloadSpec
{
    const char *name;
    Platform platform;
    /** Host seconds of one pass on a quiet 4-vCPU Xeon host; a run of
     *  S seconds makes S / passSeconds passes. */
    double passSeconds;
};

const WorkloadSpec kWorkloads[] = {
    {"uni_matrix", {1, 1}, 5.5}, // Figure 8: 1-CPU Ultra-1
    {"smp_matrix", {8, 1}, 10.0}, // Figure 9: 8-CPU E5000, classic engine
    {"smp_epoch", {8, 2}, 10.0}, // Figure 9 on two host shards (epoch)
};

/** Passes every run makes at least, so each cell has a fastest of
 *  several repetitions even when one pass fills the run. */
constexpr unsigned kMinPasses = 2;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** CLOCK_MONOTONIC ns at which the launcher started this process
     *  (0: unknown, use main's entry). */
    int64_t launchNs = 0;
    std::optional<uint64_t> mergeSeed, photoSeed, tspSeed;
    std::string outDir = ".bench_out/paperbench";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "paperbench: " << error << "\n"
              << "usage: paperbench --workload {uni_matrix|smp_matrix|"
                 "smp_epoch} [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                  [--merge-seed N] [--photo-seed N] "
                 "[--tsp-seed N] [--launch-ns T] [--out DIR]\n";
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        usage("bad value '" + text + "' for " + flag);
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseNumber<uint64_t>(flag, value);
        else if (flag == "--seconds")
            opt.seconds = parseNumber<double>(flag, value);
        else if (flag == "--trace")
            opt.trace = parseNumber<unsigned>(flag, value) != 0;
        else if (flag == "--launch-ns")
            opt.launchNs = parseNumber<int64_t>(flag, value);
        else if (flag == "--merge-seed")
            opt.mergeSeed = parseNumber<uint64_t>(flag, value);
        else if (flag == "--photo-seed")
            opt.photoSeed = parseNumber<uint64_t>(flag, value);
        else if (flag == "--tsp-seed")
            opt.tspSeed = parseNumber<uint64_t>(flag, value);
        else if (flag == "--out")
            opt.outDir = value;
        else
            usage("unknown flag " + flag);
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return opt;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
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

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMib()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Shortest round-trip decimal form of a double; null if not finite. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc() ? std::string(buf, ptr) : "null";
}

/** Every repetition of one matrix cell. */
struct CellSeries
{
    std::string app;
    PolicyKind policy;
    std::vector<CellRun> reps;
};

int64_t
fastest(const std::vector<CellRun> &reps, int64_t CellTimes::*field)
{
    int64_t best = reps.front().times.*field;
    for (const CellRun &r : reps)
        best = std::min(best, r.times.*field);
    return best;
}

/** One empty series per matrix cell, in row order (app, then policy). */
std::vector<CellSeries>
matrixCells()
{
    std::vector<CellSeries> cells;
    for (const std::string &app : kApps) {
        for (PolicyKind policy : kPolicies)
            cells.push_back({app, policy, {}});
    }
    return cells;
}

/** Runs passes over the matrix and checks every repetition. */
class MatrixRunner
{
  public:
    MatrixRunner(const Platform &platform, const Seeds &seeds)
        : _platform(platform), _seeds(seeds), _reference(matrixCells().size())
    {}

    /** Run one pass (every cell once) into `series`; spans are recorded
     *  when given. */
    void
    pass(SpanRecorder *spans, std::vector<CellSeries> &series)
    {
        for (size_t i = 0; i < series.size(); ++i) {
            CellSeries &cell = series[i];
            ++_attempted;
            try {
                CellRun run = runCell(cell.app, cell.policy, _platform,
                                      _seeds, spans);
                check(run.stats, i);
                cell.reps.push_back(std::move(run));
                // Hand the cell's freed heap back to the system, so the
                // peak resident size is that of the largest cell rather
                // than of whatever the allocator's per-thread arenas
                // happened to retain (which varies run to run once the
                // epoch engine's worker threads allocate).
                malloc_trim(0);
            } catch (const std::exception &e) {
                // A cell that cannot complete counts as failed; checks
                // speak only of the cells that did.
                ++_failed;
                std::printf("CELL FAILED: %s: %s\n",
                            cellName(cell.app, cell.policy).c_str(),
                            e.what());
            }
        }
    }

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }
    const std::vector<std::string> &failures() const { return _failures; }

    /** Simulated statistics of cell i (identical across repetitions),
     *  or null when no repetition completed. */
    const CellStats *
    reference(size_t i) const
    {
        return _reference[i] ? &*_reference[i] : nullptr;
    }

  private:
    void
    check(const CellStats &stats, size_t i)
    {
        MachineConfig cfg = platformConfig(_platform, stats.metrics.policy);
        for (std::string &f : checkCell(stats, cfg))
            _failures.push_back(std::move(f));
        if (!_reference[i]) {
            _reference[i] = stats;
            return;
        }
        std::string f = checkSameSimulation(*_reference[i], stats,
                                            "repetitions");
        if (!f.empty())
            _failures.push_back(std::move(f));
    }

    Platform _platform;
    Seeds _seeds;
    std::vector<std::optional<CellStats>> _reference;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    std::vector<std::string> _failures;
};

/** Geometric means over the applications of a policy against FCFS. */
struct PolicySummary
{
    double relPerf = 1.0;     ///< FCFS makespan / policy makespan
    double normEMisses = 1.0; ///< policy E-misses / FCFS E-misses
};

PolicySummary
summarise(const MatrixRunner &runner, PolicyKind policy)
{
    PolicySummary out;
    size_t apps = kApps.size();
    double log_perf = 0.0, log_miss = 0.0;
    for (size_t a = 0; a < apps; ++a) {
        const CellStats *base = runner.reference(a * 3);
        const CellStats *opt =
            runner.reference(a * 3 + (policy == PolicyKind::LFF ? 1 : 2));
        if (!base || !opt)
            return {std::nan(""), std::nan("")};
        double perf = RunMetrics::speedup(base->metrics, opt->metrics);
        double miss = static_cast<double>(opt->metrics.eMisses) /
                      static_cast<double>(base->metrics.eMisses);
        std::printf("  %-5s %-4s rel_perf %.4f  norm_emisses %.4f\n",
                    kApps[a].c_str(), policyName(policy), perf, miss);
        log_perf += std::log(perf);
        log_miss += std::log(miss);
    }
    out.relPerf = std::exp(log_perf / static_cast<double>(apps));
    out.normEMisses = std::exp(log_miss / static_cast<double>(apps));
    return out;
}

/** The eight end-to-end metrics of an untraced run. `launch_ns` is the
 *  host time from process launch to main. */
std::vector<Metric>
endToEndMetrics(const MatrixRunner &runner,
                const std::vector<CellSeries> &cells, int64_t launch_ns)
{
    int64_t setup = launch_ns, sweep = 0, run_ns = 0;
    double refs = 0.0;
    for (const CellSeries &c : cells) {
        if (c.reps.empty())
            continue;
        // The first pass's set-up is the cold one.
        setup += c.reps.front().times.build + c.reps.front().times.setup;
        sweep += fastest(c.reps, &CellTimes::total);
        run_ns += fastest(c.reps, &CellTimes::run);
        refs += static_cast<double>(c.reps.front().stats.metrics.refsIssued);
    }
    std::printf("policy summary (geometric means over tasks, merge, "
                "photo, tsp):\n");
    PolicySummary lff = summarise(runner, PolicyKind::LFF);
    PolicySummary crt = summarise(runner, PolicyKind::CRT);
    return {
        {"setup_s", static_cast<double>(setup) * 1e-9, "s"},
        {"sweep_s", static_cast<double>(sweep) * 1e-9, "s"},
        {"refs_per_s", refs / (static_cast<double>(run_ns) * 1e-9),
         "refs/s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"lff_rel_perf", lff.relPerf, "x"},
        {"crt_rel_perf", crt.relPerf, "x"},
        {"lff_norm_emisses", lff.normEMisses, "ratio"},
        {"crt_norm_emisses", crt.normEMisses, "ratio"},
    };
}

/** Per-layer metrics that come from the workload's own cells. */
std::vector<Metric>
workloadLayerMetrics(const MatrixRunner &runner,
                     const std::vector<CellSeries> &plain,
                     const std::vector<CellSeries> &traced)
{
    uint64_t e_misses = 0, e_refs = 0, switches = 0, steals = 0;
    uint64_t refs = 0, calls = 0;
    Cycles overhead = 0;
    for (size_t i = 0; i < plain.size(); ++i) {
        const CellStats *ref = runner.reference(i);
        if (!ref)
            continue;
        e_misses += ref->metrics.eMisses;
        e_refs += ref->metrics.eRefs;
        switches += ref->metrics.contextSwitches;
        steals += ref->steals;
        overhead += ref->metrics.schedOverheadCycles;
        refs += ref->metrics.refsIssued;
        calls += ref->metrics.refBlocks;
    }
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    std::vector<Metric> out = {
        {"mem.e_miss_ratio", d(e_misses) / d(e_refs), "ratio"},
        {"runtime.batch_occupancy", d(refs) / d(calls), "refs/call"},
        {"runtime.context_switches", d(switches), "count"},
        {"runtime.steals", d(steals), "count"},
        {"runtime.sched_overhead_cycles", d(overhead), "cycles"},
    };

    // Fastest set-up and verify per application, over its three cells
    // in both kinds of pass.
    const std::pair<const char *, int64_t CellTimes::*> phases[] = {
        {"workloads.setup_ms.", &CellTimes::setup},
        {"workloads.verify_ms.", &CellTimes::verify}};
    for (const auto &[prefix, field] : phases) {
        for (const std::string &app : kApps) {
            int64_t best = std::numeric_limits<int64_t>::max();
            for (const auto *series : {&plain, &traced}) {
                for (const CellSeries &c : *series) {
                    if (c.app == app && !c.reps.empty())
                        best = std::min(best, fastest(c.reps, field));
                }
            }
            out.push_back({prefix + app, static_cast<double>(best) * 1e-6,
                           "ms"});
        }
    }

    int64_t plain_total = 0, traced_total = 0;
    for (size_t i = 0; i < plain.size(); ++i) {
        if (plain[i].reps.empty() || traced[i].reps.empty())
            continue;
        plain_total += fastest(plain[i].reps, &CellTimes::total);
        traced_total += fastest(traced[i].reps, &CellTimes::total);
    }
    out.push_back({"trace.overhead",
                   static_cast<double>(traced_total) /
                       static_cast<double>(plain_total),
                   "x"});
    return out;
}

void
printLedger(const SpanRecorder &spans)
{
    std::printf("ledger (host time by span; self = total - children):\n");
    std::printf("  %-34s %7s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const SpanRecorder::LedgerRow &row : spans.ledger()) {
        std::printf("  %-34s %7llu %12.3f %12.3f\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    static_cast<double>(row.totalNs) * 1e-6,
                    static_cast<double>(row.selfNs) * 1e-6);
    }
}

void
printCells(const std::vector<CellSeries> &cells, const char *title)
{
    std::printf("%s\n", title);
    std::printf("  %-16s %4s %11s %11s %11s %10s %10s  %-16s\n", "cell",
                "reps", "fastest_ms", "median_ms", "slowest_ms", "run_ms",
                "Mrefs", "digest");
    for (const CellSeries &c : cells) {
        if (c.reps.empty())
            continue;
        std::vector<int64_t> totals;
        for (const CellRun &r : c.reps)
            totals.push_back(r.times.total);
        std::sort(totals.begin(), totals.end());
        std::printf("  %-16s %4zu %11.3f %11.3f %11.3f %10.3f %10.3f  "
                    "%016llx\n",
                    (c.app + "/" + policyName(c.policy)).c_str(),
                    totals.size(), static_cast<double>(totals.front()) * 1e-6,
                    static_cast<double>(totals[totals.size() / 2]) * 1e-6,
                    static_cast<double>(totals.back()) * 1e-6,
                    static_cast<double>(fastest(c.reps, &CellTimes::run)) *
                        1e-6,
                    static_cast<double>(c.reps.front().stats.metrics.refsIssued) *
                        1e-6,
                    static_cast<unsigned long long>(
                        digest(c.reps.front().stats)));
    }
}

/** Digest over every cell's simulated statistics, in matrix order. */
uint64_t
matrixDigest(const MatrixRunner &runner, size_t cells)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < cells; ++i) {
        const CellStats *ref = runner.reference(i);
        h = (h ^ (ref ? digest(*ref) : 0)) * 0x100000001b3ull;
    }
    return h;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        line += (i ? ", " : "") + std::string("\"") + m.name +
                "\": {\"value\": " + jsonNumber(m.value) + ", \"unit\": \"" +
                m.unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

int
run(const Options &opt, int64_t main_entry)
{
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads) {
        if (opt.workload == w.name)
            spec = &w;
    }
    if (!spec)
        usage("unknown workload '" + opt.workload + "'");

    Seeds seeds = seedsFor(opt.seed);
    if (opt.mergeSeed)
        seeds.merge = *opt.mergeSeed;
    if (opt.photoSeed)
        seeds.photo = *opt.photoSeed;
    if (opt.tspSeed)
        seeds.tsp = *opt.tspSeed;

    std::printf("provenance: build_type=%s compiler=\"%s\" cpu=\"%s\" "
                "nproc=%u\n",
                PAPERBENCH_BUILD_TYPE, compilerName().c_str(),
                cpuModel().c_str(), onlineCpus());
    std::printf("workload %s: %u cpu(s), %u host shard(s); seed %llu -> "
                "merge %llu, photo %llu, tsp %llu; %s run of %.0f s\n",
                spec->name, spec->platform.cpus, spec->platform.hostShards,
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(seeds.merge),
                static_cast<unsigned long long>(seeds.photo),
                static_cast<unsigned long long>(seeds.tsp),
                opt.trace ? "traced" : "untraced", opt.seconds);
    std::fflush(stdout);

    MatrixRunner runner(spec->platform, seeds);
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    // Whole passes only, so every run attempts the same cells. The pass
    // count follows from --seconds, not from the clock, so that every
    // run keeps the fastest of the same number of repetitions.
    std::vector<CellSeries> plain = matrixCells();
    std::vector<CellSeries> traced = matrixCells();
    SpanRecorder spans;
    LayerReport layers;
    unsigned passes = 0;
    if (opt.trace) {
        runLayerProbes(spans, seeds, layers);
        // Alternate untraced and traced passes: their ratio is the
        // recording's own overhead.
        for (;;) {
            int64_t start = nowNs();
            runner.pass(nullptr, plain);
            runner.pass(&spans, traced);
            ++passes;
            if (nowNs() + (nowNs() - start) > deadline)
                break;
        }
    } else {
        const unsigned target = std::max(
            kMinPasses, static_cast<unsigned>(opt.seconds / spec->passSeconds));
        while (passes < target) {
            int64_t start = nowNs();
            runner.pass(nullptr, plain);
            ++passes;
            int64_t took = nowNs() - start;
            std::printf("pass %u: %.3f s\n", passes,
                        static_cast<double>(took) * 1e-9);
            // On a slowed host, stop early rather than overrun.
            if (passes >= kMinPasses && nowNs() + took > deadline)
                break;
        }
    }

    std::printf("cells: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(runner.attempted()),
                static_cast<unsigned long long>(runner.failed()));
    printCells(plain, opt.trace ? "untraced passes:" : "cells:");
    if (opt.trace)
        printCells(traced, "traced passes:");
    std::printf("matrix digest %016llx\n",
                static_cast<unsigned long long>(
                    matrixDigest(runner, plain.size())));

    std::vector<std::string> failures = runner.failures();
    for (std::string &f : layers.failures)
        failures.push_back(std::move(f));
    if (const CellStats *good = runner.reference(0)) {
        for (std::string &f : selfTestChecks(
                 *good, platformConfig(spec->platform, PolicyKind::FCFS),
                 seeds))
            failures.push_back(std::move(f));
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        int64_t launch = opt.launchNs ? main_entry - opt.launchNs : 0;
        metrics = endToEndMetrics(runner, plain, launch);
    } else {
        metrics = layers.metrics;
        for (Metric &m : workloadLayerMetrics(runner, plain, traced))
            metrics.push_back(std::move(m));
        printLedger(spans);
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        std::string path = opt.outDir + "/spans-" + spec->name + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
        if (ec || !spans.write(path))
            failures.push_back("could not write spans to " + path);
        else
            std::printf("wrote %zu spans to %s\n", spans.spans().size(),
                        path.c_str());
    }

    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("passes %u; checks %s\n", passes,
                failures.empty() ? "passed" : "FAILED");
    printResult(failures.empty(), runner.attempted(),
                runner.failed(), metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int64_t main_entry = nowNs();
    Options opt = parseOptions(argc, argv);
    try {
        return run(opt, main_entry);
    } catch (const std::exception &e) {
        std::cerr << "paperbench: " << e.what() << "\n";
        return 1;
    }
}
