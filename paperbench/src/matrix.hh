/**
 * @file
 * The paper's policy matrix (Figures 8 and 9): the four Table 4
 * applications under FCFS, LFF and CRT on one platform, each cell built,
 * set up, run, verified and torn down through the simulator's public
 * API with every phase timed separately.
 */

#ifndef PAPERBENCH_MATRIX_HH
#define PAPERBENCH_MATRIX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atl/sim/experiment.hh"
#include "atl/sim/trace.hh"
#include "atl/workloads/workload.hh"
#include "spans.hh"

namespace paperbench
{

/** Input seeds of the three seeded applications (tasks takes none). */
struct Seeds
{
    uint64_t merge = 7;
    uint64_t photo = 11;
    uint64_t tsp = 23;
};

/** Seeds for benchmark seed `n`: the defaults shifted by n, so seed 0
 *  is the paper-matrix input set (7, 11, 23). */
Seeds seedsFor(uint64_t n);

/** Table 4 applications, in the paper's row order. */
inline const std::vector<std::string> kApps = {"tasks", "merge", "photo",
                                               "tsp"};

/** Policies of every row, FCFS first (the normalisation base). */
inline constexpr atl::PolicyKind kPolicies[] = {
    atl::PolicyKind::FCFS, atl::PolicyKind::LFF, atl::PolicyKind::CRT};

/** Simulated platform of a workload. */
struct Platform
{
    /** Simulated processors: 1 (Ultra-1) or 8 (Enterprise 5000). */
    unsigned cpus = 1;
    /** Host threads driving them; more than one selects the epoch
     *  engine. */
    unsigned hostShards = 1;
};

/** One Table 4 application at the paper's parameters. */
std::unique_ptr<atl::Workload> makeApp(const std::string &app,
                                       const Seeds &seeds);

/** Machine configuration of one cell (the miss-cost split follows the
 *  width: 42 cycles on one processor, 50/80 on more). */
atl::MachineConfig platformConfig(const Platform &platform,
                                  atl::PolicyKind policy);

/** Cheapest E-miss cost of a configuration, in cycles (paper Table 1:
 *  42 on the Ultra-1, 50 on the E5000). */
atl::Cycles cheapestMissCycles(const atl::MachineConfig &config);

/** Simulated statistics of one cell, plus the host-side issue counts. */
struct CellStats
{
    atl::RunMetrics metrics;
    uint64_t steals = 0;
};

/** True when two cells simulated the same run: every simulated field
 *  equal (host-side diagnostics excluded). */
bool sameSimulation(const CellStats &a, const CellStats &b);

/** FNV-1a digest of a cell's simulated statistics. */
uint64_t digest(const CellStats &stats);

/** Host time of each phase of one cell, in ns. */
struct CellTimes
{
    int64_t build = 0;    ///< Machine construction
    int64_t setup = 0;    ///< Workload::setup
    int64_t run = 0;      ///< Machine::run
    int64_t verify = 0;   ///< statistics collection + Workload::verify
    int64_t teardown = 0; ///< Machine and workload destruction
    int64_t total = 0;    ///< the whole cell
};

/** What runCell attaches to the cell beyond the plain run. */
struct CellProbe
{
    /** Record every modelled reference into this buffer. */
    atl::TraceBuffer *record = nullptr;
    /** Attach a ground-truth Tracer (footprint instrumentation). */
    bool tracer = false;
};

/** Result of one cell. */
struct CellRun
{
    CellStats stats;
    CellTimes times;
};

/** Span name of a cell, e.g. "cell:merge/LFF". */
std::string cellName(const std::string &app, atl::PolicyKind policy);

/**
 * Run one cell through its five phases, each timed by a span (recorded
 * when `spans` is non-null).
 */
CellRun runCell(const std::string &app, atl::PolicyKind policy,
                const Platform &platform, const Seeds &seeds,
                SpanRecorder *spans, const CellProbe &probe = {});

} // namespace paperbench

#endif // PAPERBENCH_MATRIX_HH
