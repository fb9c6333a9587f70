#include "checks.hh"

#include <cmath>
#include <sstream>

#include "atl/model/footprint_model.hh"
#include "atl/model/markov.hh"

using namespace atl;

namespace paperbench
{

namespace
{

template <typename... Args>
std::string
describe(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

std::string
label(const CellStats &stats)
{
    return stats.metrics.workload + "/" +
           policyName(stats.metrics.policy) + "@" +
           std::to_string(stats.metrics.numCpus) + "cpu";
}

} // namespace

std::string
checkVerified(const CellStats &stats)
{
    if (stats.metrics.verified)
        return {};
    return describe(label(stats), ": workload verification failed");
}

std::string
checkMissOrdering(const CellStats &stats)
{
    const RunMetrics &m = stats.metrics;
    if (m.eMisses <= m.eRefs && m.eRefs <= m.refsIssued)
        return {};
    return describe(label(stats), ": E-misses ", m.eMisses, " <= E-refs ",
                    m.eRefs, " <= references ", m.refsIssued,
                    " does not hold");
}

std::string
checkMakespanBound(const CellStats &stats, const MachineConfig &config)
{
    const RunMetrics &m = stats.metrics;
    Cycles cost = cheapestMissCycles(config);
    // Both sides stay far below 2^64 for any run this benchmark makes
    // (makespans are ~1e9 cycles).
    uint64_t capacity = m.makespan * config.numCpus;
    uint64_t floor = m.instructions + m.eMisses * cost;
    if (capacity >= floor)
        return {};
    return describe(label(stats), ": makespan ", m.makespan, " x ",
                    config.numCpus, " cpus < instructions ", m.instructions,
                    " + E-misses ", m.eMisses, " x ", cost, " cycles");
}

std::vector<std::string>
checkCell(const CellStats &stats, const MachineConfig &config)
{
    std::vector<std::string> failures;
    for (std::string f : {checkVerified(stats), checkMissOrdering(stats),
                          checkMakespanBound(stats, config)}) {
        if (!f.empty())
            failures.push_back(std::move(f));
    }
    return failures;
}

std::string
checkSameSimulation(const CellStats &a, const CellStats &b,
                    const std::string &what)
{
    if (sameSimulation(a, b))
        return {};
    return describe(label(a), ": simulated statistics differ across ",
                    what, " (digest ", std::hex, digest(a), " vs ",
                    digest(b), ")");
}

std::string
checkReplayMatches(const ReplayResult &replay, const CellStats &live)
{
    const RunMetrics &m = live.metrics;
    if (replay.l2Refs == m.eRefs && replay.l2Misses == m.eMisses)
        return {};
    return describe(label(live), ": replay E-refs/E-misses ",
                    replay.l2Refs, "/", replay.l2Misses,
                    " differ from live ", m.eRefs, "/", m.eMisses);
}

std::string
checkColdMisses(uint64_t e_misses, uint64_t distinct_lines)
{
    if (e_misses >= distinct_lines)
        return {};
    return describe("E-misses ", e_misses, " < distinct lines ",
                    distinct_lines, " of the recorded stream");
}

std::string
checkClosedForm(uint64_t n_lines, double closed, double exact)
{
    double n = static_cast<double>(n_lines);
    if (closed >= 0.0 && closed <= n && std::fabs(closed - exact) <= 1e-7 * n)
        return {};
    return describe("closed-form E[F] ", closed, " vs chain ", exact,
                    " (N=", n_lines, ")");
}

std::vector<std::string>
checkClosedFormGrid()
{
    std::vector<std::string> failures;
    for (uint64_t n_lines : {64ull, 256ull}) {
        FootprintModel model(n_lines);
        for (double q : {0.0, 0.5, 1.0}) {
            MarkovFootprintChain chain(n_lines, q);
            for (uint64_t s0 : {uint64_t{0}, n_lines / 2, n_lines}) {
                for (uint64_t n : {1ull, 64ull, 513ull}) {
                    std::string f = checkClosedForm(
                        n_lines,
                        model.dependent(q, static_cast<double>(s0), n),
                        chain.expectedAfter(s0, n));
                    if (!f.empty()) {
                        failures.push_back(describe(f, " q=", q, " S0=",
                                                    s0, " n=", n));
                    }
                }
            }
        }
    }
    return failures;
}

std::vector<std::string>
selfTestChecks(const CellStats &good, const MachineConfig &config,
               const Seeds &seeds)
{
    std::vector<std::string> failures;
    auto expectReject = [&failures](const std::string &verdict,
                                    const char *check) {
        if (verdict.empty())
            failures.push_back(std::string("self-test: ") + check +
                               " accepted a perturbed input");
    };

    CellStats unverified = good;
    unverified.metrics.verified = false;
    expectReject(checkVerified(unverified), "verified");

    CellStats over_miss = good;
    over_miss.metrics.eMisses = over_miss.metrics.eRefs + 1;
    expectReject(checkMissOrdering(over_miss), "miss ordering");

    CellStats fast = good;
    fast.metrics.makespan =
        (fast.metrics.instructions +
         fast.metrics.eMisses * cheapestMissCycles(config)) /
            config.numCpus -
        1;
    expectReject(checkMakespanBound(fast, config), "makespan bound");

    CellStats drifted = good;
    drifted.metrics.makespan += 1;
    expectReject(checkSameSimulation(good, drifted, "self-test"),
                 "repetition identity");

    ReplayResult short_replay;
    short_replay.l2Refs = good.metrics.eRefs;
    short_replay.l2Misses = good.metrics.eMisses - 1;
    expectReject(checkReplayMatches(short_replay, good), "replay match");

    expectReject(checkColdMisses(99, 100), "cold misses");

    // Closed form under the wrong sharing coefficient, and a value
    // outside [0, N] that the chain "agrees" with.
    FootprintModel model(256);
    MarkovFootprintChain chain(256, 0.25);
    expectReject(checkClosedForm(256, model.dependent(0.5, 128.0, 64),
                                 chain.expectedAfter(128, 64)),
                 "closed form (wrong q)");
    expectReject(checkClosedForm(256, 257.0, 257.0),
                 "closed form (out of range)");

    // verify() on outputs that were never computed: every application
    // is set up on a machine that never runs.
    for (const std::string &app : kApps) {
        std::unique_ptr<Workload> workload = makeApp(app, seeds);
        Machine machine(platformConfig(Platform{}, PolicyKind::FCFS));
        WorkloadEnv env{machine, nullptr, true};
        workload->setup(env);
        if (workload->verify()) {
            failures.push_back("self-test: " + app +
                               " verify() accepted an unrun workload");
        }
    }
    return failures;
}

} // namespace paperbench
