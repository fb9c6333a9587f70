/**
 * @file
 * Per-layer probes of the traced run: each times the benchmark's own
 * calls into one layer's public functions (mem, perf, model, runtime,
 * sim) under a span, on inputs that do not depend on the workload, so
 * every workload's traced run reports the whole ledger.
 */

#ifndef PAPERBENCH_LAYERS_HH
#define PAPERBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "matrix.hh"
#include "spans.hh"

namespace paperbench
{

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics and check failures gathered by the probes. */
struct LayerReport
{
    std::vector<Metric> metrics;
    std::vector<std::string> failures;
};

/**
 * Run every workload-independent layer probe, recording spans.
 * Besides timings this checks that a recorded 1-CPU cell replays to the
 * live E-refs/E-misses, that an 8-CPU cell misses at least once per
 * distinct line, that runWorkload agrees with the benchmark's own cell,
 * that 2 and 4 host shards simulate the same run, and that the closed
 * form matches the appendix chain; failures land in `out.failures`.
 */
void runLayerProbes(SpanRecorder &spans, const Seeds &seeds,
                    LayerReport &out);

} // namespace paperbench

#endif // PAPERBENCH_LAYERS_HH
