#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "atl/mem/vm.hh"
#include "atl/model/footprint_model.hh"
#include "atl/model/priority.hh"
#include "atl/perf/counters.hh"
#include "atl/runtime/context.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/trace.hh"
#include "atl/sim/tracer.hh"
#include "atl/workloads/barnes.hh"
#include "checks.hh"

using namespace atl;

namespace paperbench
{

namespace
{

/** Repetitions of every timed probe; the fastest is kept, because
 *  interference on a shared host only ever adds time. */
constexpr int kReps = 3;

/** Iterations of the tight micro-loops (each well above clock
 *  resolution). */
constexpr uint64_t kLoop = 1u << 20;

/** Defeats dead-code elimination of probe loops. */
volatile double g_sink = 0.0;

/** Running minimum of a host time. */
struct Fastest
{
    int64_t ns = std::numeric_limits<int64_t>::max();
    void add(int64_t v) { ns = std::min(ns, v); }
    double value() const { return static_cast<double>(ns); }
};

void
add(LayerReport &out, std::string name, double value, std::string unit)
{
    out.metrics.push_back({std::move(name), value, std::move(unit)});
}

void
fail(LayerReport &out, std::string failure)
{
    if (!failure.empty())
        out.failures.push_back(std::move(failure));
}

/** The cell whose reference stream the replay probes record: the
 *  smallest of the matrix (tsp under FCFS, ~3.3M references). */
const std::string kStreamApp = "tsp";
constexpr PolicyKind kStreamPolicy = PolicyKind::FCFS;

/** Number of distinct E-cache lines a recorded stream touches. */
uint64_t
distinctLines(const TraceBuffer &trace, uint64_t line_bytes)
{
    unsigned shift = static_cast<unsigned>(__builtin_ctzll(line_bytes));
    std::vector<uint64_t> lines;
    lines.reserve(trace.size());
    for (const TraceRecord &r : trace.records())
        lines.push_back(r.va >> shift);
    std::sort(lines.begin(), lines.end());
    return static_cast<uint64_t>(
        std::unique(lines.begin(), lines.end()) - lines.begin());
}

/** A recorded cell and what its replay gave. */
struct Stream
{
    CellRun live;
    TraceBuffer trace;
    ReplayResult replay;
    Fastest replayNs;

    double refs() const { return static_cast<double>(trace.size()); }
};

/**
 * Record the stream cell on `platform`, then alternate replays of it
 * through a fresh hierarchy with untraced runs of the cell: the fastest
 * run minus the fastest replay is the machine's own cost per reference.
 */
Stream
probeStream(SpanRecorder &spans, const Seeds &seeds, const Platform &platform,
            LayerReport &out, const std::string &suffix)
{
    MachineConfig cfg = platformConfig(platform, kStreamPolicy);
    Stream stream;
    {
        ScopedSpan s(&spans, "sim.trace_record." + suffix);
        stream.live = runCell(kStreamApp, kStreamPolicy, platform, seeds,
                              &spans, CellProbe{&stream.trace, false});
    }
    Fastest run_ns;
    for (int r = 0; r < kReps; ++r) {
        {
            ScopedSpan s(&spans, "mem.replay." + suffix);
            stream.replay = TraceReplayer(cfg.hierarchy, platform.cpus,
                                          cfg.pageBytes, cfg.placement)
                                .replay(stream.trace);
            stream.replayNs.add(s.stop());
        }
        CellRun plain = runCell(kStreamApp, kStreamPolicy, platform, seeds,
                                &spans);
        fail(out, checkSameSimulation(stream.live.stats, plain.stats,
                                      "trace recording on and off"));
        run_ns.add(plain.times.run);
    }
    add(out, "runtime.machine_ns_per_ref." + suffix,
        (run_ns.value() - stream.replayNs.value()) / stream.refs(), "ns");
    return stream;
}

/** Uniprocessor stream: replay, translation, tracer and runWorkload. */
void
probeUniprocessor(SpanRecorder &spans, const Seeds &seeds, LayerReport &out)
{
    Platform uni{1, 1};
    MachineConfig cfg = platformConfig(uni, kStreamPolicy);
    Stream stream = probeStream(spans, seeds, uni, out, "1cpu");
    add(out, "mem.replay_ns_per_ref",
        stream.replayNs.value() / stream.refs(), "ns");
    add(out, "mem.l1_miss_ratio",
        static_cast<double>(stream.replay.l1dMisses +
                            stream.replay.l1iMisses) /
            static_cast<double>(stream.replay.references),
        "ratio");
    fail(out, checkReplayMatches(stream.replay, stream.live.stats));
    {
        // Self-test: a replay through a half-size E-cache is a
        // perturbed input the match check must reject.
        HierarchyConfig half = cfg.hierarchy;
        half.l2.sizeBytes /= 2;
        ScopedSpan s(&spans, "check.replay_self_test");
        ReplayResult wrong =
            TraceReplayer(half, 1, cfg.pageBytes, cfg.placement)
                .replay(stream.trace);
        if (checkReplayMatches(wrong, stream.live.stats).empty()) {
            fail(out, "self-test: replay match accepted a replay "
                      "through a half-size E-cache");
        }
    }

    Fastest translate_ns;
    uint64_t colors = std::max<uint64_t>(
        1, cfg.hierarchy.l2.sizeBytes / cfg.pageBytes);
    for (int r = 0; r < kReps; ++r) {
        Vm vm(cfg.pageBytes, colors, cfg.placement);
        ScopedSpan s(&spans, "mem.vm_translate");
        uint64_t acc = 0;
        for (const TraceRecord &rec : stream.trace.records())
            acc ^= vm.translate(rec.va);
        translate_ns.add(s.stop());
        g_sink = g_sink + static_cast<double>(acc & 1);
    }
    add(out, "mem.vm_translate_ns", translate_ns.value() / stream.refs(),
        "ns");

    // Tracer cost: the cell with and without the ground-truth tracer,
    // alternated so both see the same host conditions.
    Fastest plain_ns, traced_ns;
    for (int r = 0; r < kReps; ++r) {
        plain_ns.add(runCell(kStreamApp, kStreamPolicy, uni, seeds, &spans)
                         .times.run);
        CellRun traced = runCell(kStreamApp, kStreamPolicy, uni, seeds,
                                 &spans, CellProbe{nullptr, true});
        fail(out, checkSameSimulation(stream.live.stats, traced.stats,
                                      "tracer attached and detached"));
        traced_ns.add(traced.times.run);
    }
    add(out, "sim.tracer_ns_per_ref",
        (traced_ns.value() - plain_ns.value()) / stream.refs(), "ns");

    // The library's own harness must agree with the benchmark's
    // phase-by-phase cell.
    {
        ScopedSpan s(&spans, "sim.run_workload");
        std::unique_ptr<Workload> workload = makeApp(kStreamApp, seeds);
        RunMetrics m = runWorkload(*workload, cfg);
        if (m != stream.live.stats.metrics) {
            fail(out, "runWorkload disagrees with the benchmark's cell "
                      "for " + kStreamApp);
        }
    }
}

/** 8-CPU stream: replay cost and the cold-miss floor. */
void
probeMultiprocessor(SpanRecorder &spans, const Seeds &seeds,
                    LayerReport &out)
{
    Platform smp{8, 1};
    MachineConfig cfg = platformConfig(smp, kStreamPolicy);
    Stream stream = probeStream(spans, seeds, smp, out, "8cpu");
    ScopedSpan s(&spans, "check.cold_misses");
    fail(out, checkColdMisses(stream.live.stats.metrics.eMisses,
                              distinctLines(stream.trace,
                                            cfg.hierarchy.l2.lineBytes)));
}

void
probeFiberSwitch(SpanRecorder &spans, LayerReport &out)
{
    FiberStack stack(64 * 1024);
    Fiber engine, worker;
    bool stop = false;
    worker.arm(stack, [&] {
        while (!stop)
            Fiber::switchTo(worker, engine);
        // A fiber entry must never return: park for good.
        for (;;)
            Fiber::switchTo(worker, engine);
    });
    Fastest best;
    for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&spans, "runtime.fiber_switch");
        for (uint64_t i = 0; i < kLoop; ++i)
            Fiber::switchTo(engine, worker); // two switches
        best.add(s.stop());
    }
    stop = true;
    Fiber::switchTo(engine, worker);
    add(out, "runtime.fiber_switch_ns",
        best.value() / static_cast<double>(2 * kLoop), "ns");
}

/** Host time per context switch of a yield-only program that issues
 *  no modelled references (scheduler footprint modelling off). */
void
probeDispatch(SpanRecorder &spans, LayerReport &out)
{
    constexpr unsigned kThreads = 64;
    constexpr unsigned kYields = 256;
    for (unsigned cpus : {1u, 8u}) {
        MachineConfig cfg = platformConfig({cpus, 1}, PolicyKind::FCFS);
        cfg.modelSchedulerFootprint = false;
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < kReps; ++r) {
            Machine machine(cfg);
            for (unsigned t = 0; t < kThreads; ++t) {
                machine.spawn([&machine] {
                    for (unsigned k = 0; k < kYields; ++k)
                        machine.yield();
                });
            }
            ScopedSpan s(&spans, "runtime.dispatch");
            machine.run();
            double ns = static_cast<double>(s.stop());
            best = std::min(best, ns / static_cast<double>(
                                           machine.totalSwitches()));
        }
        add(out, "runtime.dispatch_ns." + std::to_string(cpus) + "cpu",
            best, "ns");
    }
}

void
probeMachineBuild(SpanRecorder &spans, LayerReport &out)
{
    constexpr int kBuilds = 10;
    for (unsigned cpus : {1u, 8u}) {
        MachineConfig cfg = platformConfig({cpus, 1}, PolicyKind::FCFS);
        Fastest best;
        for (int r = 0; r < kBuilds; ++r) {
            ScopedSpan s(&spans, "runtime.machine_build");
            auto machine = std::make_unique<Machine>(cfg);
            best.add(s.stop());
        }
        add(out, "runtime.machine_build_ms." + std::to_string(cpus) + "cpu",
            best.value() * 1e-6, "ms");
    }
}

/**
 * One 8-CPU cell at one and two host shards. Only MachineConfig's
 * hostShards changes: today one shard means the classic engine, so the
 * ratio includes the engine switch. Shard-count invariance is checked
 * between 2 and 4 shards, which both run the epoch engine.
 */
void
probeShards(SpanRecorder &spans, const Seeds &seeds, LayerReport &out)
{
    const std::string app = "tsp";
    constexpr PolicyKind policy = PolicyKind::LFF;
    Fastest one, two;
    CellRun sharded;
    for (int r = 0; r < kReps; ++r) {
        one.add(runCell(app, policy, {8, 1}, seeds, &spans).times.total);
        sharded = runCell(app, policy, {8, 2}, seeds, &spans);
        two.add(sharded.times.total);
    }
    add(out, "runtime.epoch_shard_speedup", one.value() / two.value(), "x");
    CellRun four = runCell(app, policy, {8, 4}, seeds, &spans);
    fail(out, checkSameSimulation(sharded.stats, four.stats,
                                  "2 and 4 host shards"));
}

void
probePic(SpanRecorder &spans, LayerReport &out)
{
    PerfCounters pic;
    pic.configure(PerfEvent::EcacheRefs, PerfEvent::EcacheHits);
    Fastest best;
    for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&spans, "perf.pic_read_reset");
        uint64_t acc = 0;
        for (uint64_t i = 0; i < kLoop; ++i) {
            // One sampling interval: a few events, then the scheduler's
            // read of both PICs and the reset.
            pic.record(PerfEvent::EcacheRefs, static_cast<uint32_t>(i & 7) + 1);
            pic.record(PerfEvent::EcacheHits, static_cast<uint32_t>(i & 3));
            acc += pic.read(0) + pic.read(1);
            pic.reset();
        }
        best.add(s.stop());
        g_sink = g_sink + static_cast<double>(acc & 1);
    }
    add(out, "perf.pic_read_reset_ns",
        best.value() / static_cast<double>(kLoop), "ns");
}

void
probePriority(SpanRecorder &spans, LayerReport &out)
{
    // The E-cache of the paper's platforms: 512KB / 64B lines.
    FootprintModel model(8192);
    for (PolicyKind kind : {PolicyKind::LFF, PolicyKind::CRT}) {
        std::string tag = kind == PolicyKind::LFF ? "lff" : "crt";
        for (bool dependent : {false, true}) {
            PriorityScheme scheme(kind, model);
            FootprintRecord rec;
            rec.s = 500.0;
            Fastest best;
            for (int r = 0; r < kReps; ++r) {
                ScopedSpan s(&spans, dependent ? "model.dependent_update"
                                               : "model.blocking_update");
                uint64_t m = 0;
                for (uint64_t i = 0; i < kLoop; ++i) {
                    m += 100;
                    scheme.beginSwitch(m);
                    if (dependent)
                        scheme.updateDependent(rec, 0.5, 100);
                    else
                        scheme.updateBlocking(rec, 100);
                }
                best.add(s.stop());
                g_sink = g_sink + rec.priority;
            }
            add(out,
                std::string(dependent ? "model.dependent_update_ns."
                                      : "model.blocking_update_ns.") +
                    tag,
                best.value() / static_cast<double>(kLoop), "ns");
        }

        // FP operations of one switch that updates the blocking thread
        // and one dependent (paper Table 3: LFF 4 + 5, CRT 2 + 5).
        PriorityScheme scheme(kind, model);
        FootprintRecord blocking, sharer;
        blocking.s = sharer.s = 500.0;
        uint64_t before = scheme.ops().total();
        scheme.beginSwitch(100);
        scheme.updateBlocking(blocking, 100);
        scheme.updateDependent(sharer, 0.5, 100);
        double ops = static_cast<double>(scheme.ops().total() - before);
        double paper = kind == PolicyKind::LFF ? 9.0 : 7.0;
        std::printf("table3: %s FP ops per switch (blocking + one "
                    "dependent + the shared m(t)*log k product) %.0f; "
                    "paper %.0f + 1\n",
                    tag.c_str(), ops, paper);
        add(out, "model.fp_ops_per_switch." + tag, ops, "ops");
    }

    Fastest eval;
    for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(&spans, "model.footprint_eval");
        double acc = 0.0;
        for (uint64_t i = 0; i < kLoop; ++i) {
            uint64_t n = i & 4095;
            acc += model.blocking(700.0, n) + model.independent(700.0, n) +
                   model.dependent(0.5, 700.0, n);
        }
        eval.add(s.stop());
        g_sink = g_sink + acc;
    }
    add(out, "model.footprint_eval_ns",
        eval.value() / static_cast<double>(3 * kLoop), "ns");

    ScopedSpan s(&spans, "check.closed_form");
    for (std::string &f : checkClosedFormGrid())
        fail(out, std::move(f));
}

/** The Figure 5 barnes protocol at 1 CPU: init, flush, then monitor the
 *  work thread's footprint against the tracer's ground truth. */
void
probeFootprintMare(SpanRecorder &spans, LayerReport &out)
{
    ScopedSpan s(&spans, "model.footprint_monitor");
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.modelSchedulerFootprint = false;
    BarnesWorkload workload(
        {.bodies = 16384, .treeDepth = 4, .passes = 4, .seed = 31});
    Machine machine(cfg);
    Tracer tracer(machine);
    FootprintMonitor monitor(machine, tracer, 0, 128);
    WorkloadEnv env{machine, &tracer, true};
    workload.setup(env);
    workload.onWorkStart([&] {
        machine.flushAllCaches();
        monitor.setDriver(workload.workTid());
        monitor.track(workload.workTid(), FootprintMonitor::Kind::Executing);
    });
    machine.run();
    if (!workload.verify())
        fail(out, "barnes (Figure 5 protocol) failed verification");
    size_t excluded = 0;
    double mare = monitor.meanAbsRelError(workload.workTid(), 128.0,
                                          &excluded);
    std::printf("fig5: barnes footprint MARE %.6f over %zu samples "
                "(%zu below the 128-line floor)\n",
                mare, monitor.samples(workload.workTid()).size(), excluded);
    add(out, "model.footprint_mare", mare, "ratio");
}

} // namespace

void
runLayerProbes(SpanRecorder &spans, const Seeds &seeds, LayerReport &out)
{
    ScopedSpan s(&spans, "probes");
    probeUniprocessor(spans, seeds, out);
    probeMultiprocessor(spans, seeds, out);
    probeFiberSwitch(spans, out);
    probeDispatch(spans, out);
    probeMachineBuild(spans, out);
    probeShards(spans, seeds, out);
    probePic(spans, out);
    probePriority(spans, out);
    probeFootprintMare(spans, out);
}

} // namespace paperbench
