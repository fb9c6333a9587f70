#include "matrix.hh"

#include <algorithm>
#include <stdexcept>

#include "atl/workloads/mergesort.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"

using namespace atl;

namespace paperbench
{

Seeds
seedsFor(uint64_t n)
{
    Seeds seeds;
    seeds.merge += n;
    seeds.photo += n;
    seeds.tsp += n;
    return seeds;
}

std::unique_ptr<Workload>
makeApp(const std::string &app, const Seeds &seeds)
{
    // The paper's Table 4 inputs, as the repository's Figure 8/9
    // benches run them.
    if (app == "tasks") {
        // 1024 tasks, footprints of 100 lines each, 100 periods.
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{1024, 100, 100});
    }
    if (app == "merge") {
        // 100,000 uniformly distributed elements, cutoff 100.
        MergesortWorkload::Params p;
        p.elements = 100000;
        p.cutoff = 100;
        p.seed = seeds.merge;
        return std::make_unique<MergesortWorkload>(p);
    }
    if (app == "photo") {
        // 2048-pixel rows, 1024 row threads (the paper's 2048x2048
        // image halved in height; each thread's accesses are the same).
        PhotoWorkload::Params p;
        p.width = 2048;
        p.height = 1024;
        p.seed = seeds.photo;
        return std::make_unique<PhotoWorkload>(p);
    }
    if (app == "tsp") {
        // 100 cities, depth-9 fixed thread tree (1023 threads).
        TspWorkload::Params p;
        p.cities = 100;
        p.depth = 9;
        p.seed = seeds.tsp;
        return std::make_unique<TspWorkload>(p);
    }
    throw std::invalid_argument("unknown application '" + app + "'");
}

MachineConfig
platformConfig(const Platform &platform, PolicyKind policy)
{
    MachineConfig cfg;
    cfg.numCpus = platform.cpus;
    cfg.policy = policy;
    cfg.hostShards = platform.hostShards;
    return cfg;
}

Cycles
cheapestMissCycles(const MachineConfig &config)
{
    if (config.numCpus == 1)
        return config.memoryCycles;
    return std::min(config.memoryCyclesClean, config.memoryCyclesRemote);
}

bool
sameSimulation(const CellStats &a, const CellStats &b)
{
    return a.metrics == b.metrics && a.steals == b.steals &&
           a.metrics.refsIssued == b.metrics.refsIssued &&
           a.metrics.refBlocks == b.metrics.refBlocks;
}

uint64_t
digest(const CellStats &stats)
{
    const RunMetrics &m = stats.metrics;
    const uint64_t fields[] = {m.numCpus,
                               static_cast<uint64_t>(m.policy),
                               m.makespan,
                               m.eMisses,
                               m.eRefs,
                               m.instructions,
                               m.contextSwitches,
                               m.schedOverheadCycles,
                               stats.steals,
                               m.verified ? 1u : 0u};
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (char c : m.workload)
        mix(static_cast<unsigned char>(c));
    for (uint64_t f : fields)
        mix(f);
    return h;
}

std::string
cellName(const std::string &app, PolicyKind policy)
{
    return "cell:" + app + "/" + policyName(policy);
}

CellRun
runCell(const std::string &app, PolicyKind policy, const Platform &platform,
        const Seeds &seeds, SpanRecorder *spans, const CellProbe &probe)
{
    CellRun out;
    MachineConfig cfg = platformConfig(platform, policy);
    ScopedSpan cell(spans, cellName(app, policy));

    std::unique_ptr<Workload> workload = makeApp(app, seeds);
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<TraceRecorder> recorder;
    {
        ScopedSpan s(spans, "runtime.machine_build");
        machine = std::make_unique<Machine>(cfg);
        if (probe.tracer)
            tracer = std::make_unique<Tracer>(*machine);
        if (probe.record)
            recorder = std::make_unique<TraceRecorder>(*machine,
                                                       *probe.record);
        out.times.build = s.stop();
    }
    {
        ScopedSpan s(spans, "workloads.setup:" + app);
        WorkloadEnv env{*machine, tracer.get(), true};
        workload->setup(env);
        out.times.setup = s.stop();
    }
    {
        ScopedSpan s(spans, "runtime.machine_run");
        machine->run();
        out.times.run = s.stop();
    }
    {
        ScopedSpan s(spans, "workloads.verify:" + app);
        RunMetrics &m = out.stats.metrics;
        m.workload = workload->name();
        m.policy = policy;
        m.numCpus = cfg.numCpus;
        m.makespan = machine->makespan();
        m.eMisses = machine->totalEMisses();
        m.eRefs = machine->totalERefs();
        m.instructions = machine->totalInstructions();
        m.contextSwitches = machine->totalSwitches();
        for (CpuId c = 0; c < machine->numCpus(); ++c)
            m.schedOverheadCycles += machine->cpuStats(c).schedOverheadCycles;
        m.degradation = machine->scheduler().degradation();
        m.refsIssued = machine->refsIssued();
        m.refBlocks = machine->refBlocks();
        m.hostSeconds = static_cast<double>(out.times.run) * 1e-9;
        out.stats.steals = machine->scheduler().stealCount();
        m.verified = workload->verify();
        out.times.verify = s.stop();
    }
    {
        ScopedSpan s(spans, "runtime.teardown");
        recorder.reset();
        tracer.reset();
        machine.reset();
        workload.reset();
        out.times.teardown = s.stop();
    }
    out.times.total = cell.stop();
    return out;
}

} // namespace paperbench
