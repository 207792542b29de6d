/**
 * @file
 * The benchmark's three workloads. Each is a closed loop with one
 * caller: set up the inputs, then run items back to back, each item
 * waiting for the previous one, as GSF's batch tools do.
 *
 *  - intensity_sweep: Figs. 11/12 — three GsfEvaluator::sweep calls.
 *  - fleet_replay:    one streamed BinaryTraceReader -> VmAllocator
 *                     replay of a fleet-scale year.
 *  - design_search:   the exhaustive carbon/TCO/SLO Pareto front over a
 *                     widened design range.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "measure.h"

namespace gsku::obs {
struct MetricsSnapshot;
} // namespace gsku::obs

namespace gsku::perfbench {

/** The pinned worker-pool size: min(2, hardware threads). */
int poolThreads();

struct WorkloadConfig
{
    std::uint64_t seed = 0;
    std::string scratch_dir;    ///< Where temporary files go.
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Builds every input from the seed, replacing any earlier set-up,
     *  and does everything lazy the first timed item would do. */
    virtual void setup() = 0;

    /** One closed-loop item; returns the checksum of its output. */
    virtual std::string runItem(long item) = 0;

    /** The item time as this workload's users read it: sweep_s,
     *  replay_events_per_s or front_s. */
    virtual Metric itemMetric(double item_s) const = 0;

    /**
     * Checks the last item's output against an independent path (a
     * different code path or an exact invariant) and, for the seeds
     * whose output is recorded, against the recorded reference.
     */
    virtual void crossCheck(Checks &checks) = 0;

    /**
     * Traced run only: calls each layer this workload reaches directly,
     * one span per call, and derives the per-layer metrics from those
     * spans, from the counter deltas of one traced item, and from the
     * median untraced item wall @p item_s.
     */
    virtual void layerPass(Checks &checks, double item_s,
                           const obs::MetricsSnapshot &before,
                           const obs::MetricsSnapshot &after,
                           Metrics &out) = 0;
};

/** Null when @p name is not a workload. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &config);

/**
 * The benchmark's own tests on small inputs: streamed replay equals
 * materialized replay, and a sweep is identical at 1 and 2 threads.
 */
Checks runSelfTests(const std::string &scratch_dir);

} // namespace gsku::perfbench
