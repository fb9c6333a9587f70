/**
 * @file
 * Correctness checks on the simulator's outputs. Each check returns an
 * empty string when it holds and a description of the violation
 * otherwise, and each has a self-test that feeds it a perturbed input
 * and requires the check to reject it: a check that accepts a wrong
 * input checks nothing.
 */

#ifndef PAPERBENCH_CHECKS_HH
#define PAPERBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "atl/sim/trace.hh"
#include "matrix.hh"

namespace paperbench
{

/** The workload's own verify() held (merge: order and checksum; tsp:
 *  tour validity and length; photo: sampled pixels; tasks: periods). */
std::string checkVerified(const CellStats &stats);

/** E-misses <= E-refs <= references issued. */
std::string checkMissOrdering(const CellStats &stats);

/** makespan * cpus >= instructions + E-misses * cheapest miss cost. */
std::string checkMakespanBound(const CellStats &stats,
                               const atl::MachineConfig &config);

/** The three per-cell checks above, in order. */
std::vector<std::string> checkCell(const CellStats &stats,
                                   const atl::MachineConfig &config);

/** Two runs of one cell simulated the same thing. */
std::string checkSameSimulation(const CellStats &a, const CellStats &b,
                                const std::string &what);

/** A uniprocessor replay reproduces the live E-refs and E-misses. */
std::string checkReplayMatches(const atl::ReplayResult &replay,
                               const CellStats &live);

/** Caches start empty, so every distinct line misses at least once. */
std::string checkColdMisses(uint64_t e_misses, uint64_t distinct_lines);

/** Closed-form E[F] equals the appendix chain's expectation (to 1e-7 N)
 *  and lies in [0, N]. */
std::string checkClosedForm(uint64_t n_lines, double closed, double exact);

/** checkClosedForm over a grid of (N, q, S0, n); @return violations. */
std::vector<std::string> checkClosedFormGrid();

/**
 * Self-tests of every check that needs no recorded trace: each is fed a
 * perturbed copy of `good` (a real cell that passed) or of a model
 * value, and must reject it; verify() must reject each application set
 * up but never run. @return one entry per check that accepted a
 * perturbed input
 */
std::vector<std::string> selfTestChecks(const CellStats &good,
                                        const atl::MachineConfig &config,
                                        const Seeds &seeds);

} // namespace paperbench

#endif // PAPERBENCH_CHECKS_HH
