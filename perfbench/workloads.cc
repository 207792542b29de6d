#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "carbon/catalog.h"
#include "cluster/allocator.h"
#include "cluster/trace_binary.h"
#include "cluster/trace_gen.h"
#include "cluster/trace_stats.h"
#include "common/error.h"
#include "common/parallel.h"
#include "gsf/evaluator.h"
#include "gsf/pareto.h"
#include "gsf/search.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "perf/app.h"
#include "perf/cpu.h"
#include "perf/queueing.h"
#include "spans.h"

namespace gsku::perfbench {

namespace {

std::string
format(const char *fmt, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

double
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after, const char *name)
{
    return static_cast<double>(after.counter(name) - before.counter(name));
}

/** Keeps a computed value alive so the call producing it is not elided. */
volatile double g_sink = 0.0;

/** Seeded Fisher-Yates order of [0, n) (splitmix64 stream). */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(order[i - 1], order[z % i]);
    }
    return order;
}

// ---------------------------------------------------------------------
// intensity_sweep

/**
 * The fig11_intensity_sweep inputs: 12 traces of 600 concurrent VMs over
 * 14 days (family seed 11), CI 0-0.45 kg/kWh in steps of 0.05. The
 * benchmark seed sets the order of the traces, which moves the pool's
 * job order but not the work: a different family would change the work
 * by up to 20% from seed to seed.
 */
class IntensitySweep final : public Workload
{
  public:
    explicit IntensitySweep(const WorkloadConfig &config) : config_(config)
    {
        for (int i = 0; i <= 9; ++i) {
            grid_.push_back(0.05 * i);
        }
    }

    const char *name() const override { return "intensity_sweep"; }

    void setup() override
    {
        traces_.clear();
        cluster::TraceGenParams params;
        params.target_concurrent_vms = 600.0;
        params.duration_h = 24.0 * 14.0;
        const cluster::TraceGenerator gen(params);
        {
            SpanScope span("TraceGenerator::generateFamily");
            std::vector<cluster::VmTrace> family =
                gen.generateFamily(12, kFamilySeed);
            double vms = 0.0;
            for (std::size_t i : permutation(family.size(), config_.seed)) {
                vms += static_cast<double>(family[i].vms.size());
                traces_.push_back(std::move(family[i]));
            }
            span.setWork(vms);
        }
        evaluator_ = std::make_unique<gsf::GsfEvaluator>(
            gsf::GsfEvaluator::Options{});
        baseline_ = carbon::StandardSkus::baseline();
        greens_ = {carbon::StandardSkus::greenEfficient(),
                   carbon::StandardSkus::greenCxl(),
                   carbon::StandardSkus::greenFull()};
        ThreadPool::resetGlobal(poolThreads());
        // Warm the adoption model's perf/carbon catalogs and start the
        // pool's workers, so the first timed sweep does neither.
        for (const carbon::ServerSku &green : greens_) {
            (void)evaluator_->adoptionModel().buildTable(
                baseline_, green, CarbonIntensity::kgPerKwh(0.0));
        }
        parallelFor(static_cast<std::size_t>(poolThreads()),
                    [](std::size_t) {});
    }

    std::string runItem(long item) override
    {
        sweeps_.clear();
        for (const carbon::ServerSku &green : greens_) {
            SpanScope span("GsfEvaluator::sweep", item);
            sweeps_.push_back(
                evaluator_->sweep(traces_, baseline_, green, grid_));
        }
        bench::Checksum sum;
        for (const gsf::IntensitySweep &s : sweeps_) {
            addText(sum, s.sku_name);
            for (std::size_t i = 0; i < s.intensities.size(); ++i) {
                sum.add(s.intensities[i]);
                sum.add(s.mean_savings[i]);
            }
        }
        return sum.hex();
    }

    Metric itemMetric(double item_s) const override
    {
        return {"sweep_s", item_s, "s"};
    }

    void crossCheck(Checks &checks) override
    {
        bool bounded = sweeps_.size() == greens_.size();
        for (const gsf::IntensitySweep &s : sweeps_) {
            bounded = bounded && s.mean_savings.size() == grid_.size();
            for (double v : s.mean_savings) {
                bounded = bounded && std::isfinite(v) && v > -1.0 && v < 1.0;
            }
        }
        checks.expect(bounded, "every sweep has one savings value in "
                               "(-1, 1) per carbon intensity");
        if (!bounded) {
            return;
        }
        // Independent path: one sweep point recomputed per trace through
        // evaluateCluster (no per-table sizing reuse, no pool fan-out).
        const std::size_t c = config_.seed % grid_.size();
        const std::size_t g = config_.seed % greens_.size();
        const CarbonIntensity ci = CarbonIntensity::kgPerKwh(grid_[c]);
        double total = 0.0;
        for (const cluster::VmTrace &trace : traces_) {
            total += evaluator_
                         ->evaluateCluster(trace, baseline_, greens_[g], ci)
                         .savings;
        }
        const double mean = total / static_cast<double>(traces_.size());
        checks.expect(mean == sweeps_[g].mean_savings[c],
                      "sweep point " + sweeps_[g].sku_name + " at CI " +
                          format("%.2f", grid_[c]) +
                          " equals the mean of evaluateCluster");
        // fig11_intensity_sweep's recorded mean_savings_full; the trace
        // order changes only the summation order.
        checks.expect(std::abs(gsf::GsfEvaluator::meanSavings(sweeps_[2]) -
                               0.10342874570098419) < 1e-12,
                      "GreenSKU-Full reproduces fig11 mean_savings_full");
    }

    void layerPass(Checks &checks, double item_s,
                   const obs::MetricsSnapshot &before,
                   const obs::MetricsSnapshot &after, Metrics &out) override
    {
        const double replays =
            counterDelta(before, after, "allocator.replays");
        const double sizings = counterDelta(before, after, "sizer.sizings");
        const double hits =
            counterDelta(before, after, "evaluator.cache_hits");
        const double misses =
            counterDelta(before, after, "evaluator.cache_misses");
        out.push_back({"allocator.replays", replays, "count"});
        out.push_back({"allocator.placements",
                       counterDelta(before, after, "allocator.placements"),
                       "count"});
        out.push_back({"sizer.sizings", sizings, "count"});
        out.push_back({"sizer.replays_per_sizing",
                       sizings > 0.0 ? replays / sizings : 0.0, "ratio"});
        out.push_back({"evaluator.sizing_reuse",
                       hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                       "ratio"});
        out.push_back({"parallel.tasks_run",
                       counterDelta(before, after, "parallel.tasks_run"),
                       "count"});

        // The sweep's layers called one at a time at one thread: the
        // adoption tables, the distinct sizing jobs the sweep dedupes
        // to, and replays of each trace at its sized clusters.
        ThreadPool::resetGlobal(1);
        const gsf::ClusterSizer sizer{cluster::ReplayOptions{}};
        const cluster::VmAllocator allocator{cluster::ReplayOptions{}};
        long jobs = 0;
        for (const carbon::ServerSku &green : greens_) {
            std::vector<cluster::AdoptionTable> tables;
            std::set<std::uint64_t> seen;
            for (double ci : grid_) {
                cluster::AdoptionTable table;
                {
                    SpanScope span("AdoptionModel::buildTable");
                    table = evaluator_->adoptionModel().buildTable(
                        baseline_, green, CarbonIntensity::kgPerKwh(ci));
                }
                if (seen.insert(table.fingerprint()).second) {
                    tables.push_back(table);
                }
            }
            for (const cluster::AdoptionTable &table : tables) {
                for (const cluster::VmTrace &trace : traces_) {
                    ++jobs;
                    sizeAndReplay(checks, sizer, allocator, trace, green,
                                  table);
                }
            }
        }
        ThreadPool::resetGlobal(poolThreads());
        checks.expect(static_cast<double>(jobs) == sizings,
                      "distinct (trace, adoption table) jobs equal the "
                      "sweep's sizings");

        const SpanRecorder &rec = spans();
        addTiming(out, "trace_gen.ns_per_vm.paper", "ns",
                  rec.samples("TraceGenerator::generateFamily", true, 1.0));
        addTiming(out, "adoption.build_table_us", "us",
                  rec.samples("AdoptionModel::buildTable", false, 1e3));
        const std::vector<double> size_ms =
            rec.samples("ClusterSizer::size", false, 1e6);
        addTiming(out, "sizer.size_ms", "ms", size_ms);
        addTiming(out, "allocator.ns_per_event.paper", "ns",
                  rec.samples("VmAllocator::replay", true, 1.0));
        out.push_back({"parallel.efficiency",
                       sum(size_ms) / 1e3 /
                           (poolThreads() * item_s),
                       "ratio"});

        // Decision ledger + work-unit profiler on against off, in three
        // adjacent pairs of sweep items alternating which goes first, so
        // the box's drift cancels; the median pair ratio is reported.
        std::vector<double> ratios;
        for (int pair = 0; pair < 3; ++pair) {
            double wall[2] = {0.0, 0.0};
            std::string sums[2];
            for (int side = 0; side < 2; ++side) {
                const bool on = (side == 0) == (pair % 2 == 1);
                if (on) {
                    obs::startLedger();
                    obs::startProfile();
                }
                const bench::WallTimer timer;
                {
                    SpanScope span(on ? "obs.on" : "obs.off");
                    sums[on] = runItem(-1);
                }
                wall[on] = timer.seconds();
                if (on) {
                    obs::stopProfile();
                    obs::stopLedger();
                }
            }
            checks.expect(sums[1] == sums[0],
                          "ledger and profiler leave the sweep unchanged");
            ratios.push_back(wall[1] / wall[0]);
        }
        out.push_back({"obs.overhead_ratio", median(ratios), "ratio"});
    }

  private:
    static constexpr std::uint64_t kFamilySeed = 11;

    void sizeAndReplay(Checks &checks, const gsf::ClusterSizer &sizer,
                       const cluster::VmAllocator &allocator,
                       const cluster::VmTrace &trace,
                       const carbon::ServerSku &green,
                       const cluster::AdoptionTable &table) const
    {
        gsf::SizingResult sized;
        {
            SpanScope span("ClusterSizer::size");
            sized = sizer.size(trace, baseline_, green, table);
        }
        const double events = 2.0 * static_cast<double>(trace.vms.size());
        cluster::ClusterSpec spec;
        spec.baseline_sku = baseline_;
        spec.green_sku = green;
        spec.baselines = sized.baseline_only_servers;
        cluster::ReplayResult base;
        {
            SpanScope span("VmAllocator::replay", -1, events);
            base = allocator.replay(trace, spec,
                                    cluster::AdoptionTable::none());
        }
        spec.baselines = sized.mixed_baselines;
        spec.greens = sized.mixed_greens;
        cluster::ReplayResult mixed;
        {
            SpanScope span("VmAllocator::replay", -1, events);
            mixed = allocator.replay(trace, spec, table);
        }
        checks.expect(base.success && mixed.success &&
                          base.placed == sized.baseline_only_replay.placed &&
                          mixed.placed == sized.mixed_replay.placed &&
                          mixed.green_placed ==
                              sized.mixed_replay.green_placed,
                      "replays at the sized clusters of " + trace.name +
                          " reproduce the sizing's final replays");
    }

    WorkloadConfig config_;
    std::vector<double> grid_;
    std::vector<cluster::VmTrace> traces_;
    std::unique_ptr<gsf::GsfEvaluator> evaluator_;
    carbon::ServerSku baseline_;
    std::vector<carbon::ServerSku> greens_;
    std::vector<gsf::IntensitySweep> sweeps_;
};

// ---------------------------------------------------------------------
// fleet_replay

/** Replay outcome plus allocator counter deltas, the fields bench_fleet
 *  folds into its replay checksum. */
std::string
replayChecksum(const cluster::MultiReplayResult &r,
               const obs::MetricsSnapshot &before,
               const obs::MetricsSnapshot &after)
{
    bench::Checksum sum;
    auto add_group = [&sum](const cluster::GroupMetrics &g) {
        sum.add(static_cast<double>(g.servers));
        sum.add(static_cast<double>(g.vms_placed));
        sum.add(g.mean_core_packing);
        sum.add(g.mean_mem_packing);
        sum.add(g.mean_max_mem_utilization);
    };
    sum.add(r.success ? 1.0 : 0.0);
    sum.add(static_cast<double>(r.placed));
    sum.add(static_cast<double>(r.rejected));
    add_group(r.baseline);
    for (const cluster::GroupMetrics &g : r.greens) {
        add_group(g);
    }
    sum.add(static_cast<double>(r.green_placed));
    sum.add(static_cast<double>(r.green_fallbacks));
    for (const char *name :
         {"allocator.placements", "allocator.rejections",
          "allocator.green_fallbacks", "allocator.evictions"}) {
        sum.add(static_cast<double>(after.counter(name) -
                                    before.counter(name)));
    }
    return sum.hex();
}

/** The bench_fleet trace shape: 48 h mean lifetime, no load jitter. */
cluster::TraceGenParams
fleetParams(double target_concurrent_vms, double duration_h)
{
    cluster::TraceGenParams params;
    params.duration_h = duration_h;
    params.mean_lifetime_h = 48.0;
    params.load_jitter = 0.0;
    params.target_concurrent_vms = target_concurrent_vms;
    return params;
}

/** bench_fleet's cluster, sized off the streamed peaks: baselines for
 *  1.15x peak cores plus Full GreenSKUs for 0.30x, adopted by Gen1/Gen2
 *  VMs at a 1.05 inflation. */
cluster::MultiClusterSpec
fleetCluster(const cluster::TraceStats &stats)
{
    const carbon::ServerSku baseline = carbon::StandardSkus::baseline();
    const carbon::ServerSku green = carbon::StandardSkus::greenFull();
    cluster::AdoptionTable adoption = cluster::AdoptionTable::none();
    for (std::size_t app = 0; app < perf::AppCatalog::all().size(); ++app) {
        adoption.set(app, carbon::Generation::Gen1,
                     cluster::AdoptionDecision{true, 1.05});
        adoption.set(app, carbon::Generation::Gen2,
                     cluster::AdoptionDecision{true, 1.05});
    }
    cluster::MultiClusterSpec spec;
    spec.baseline_sku = baseline;
    spec.baselines = static_cast<int>(
        std::ceil(1.15 * stats.peak_concurrent_cores /
                  static_cast<double>(baseline.cores)));
    cluster::GreenGroupSpec group;
    group.sku = green;
    group.count = static_cast<int>(std::ceil(
        0.30 * stats.peak_concurrent_cores /
        static_cast<double>(green.cores)));
    group.adoption = adoption;
    spec.greens.push_back(group);
    return spec;
}

cluster::ReplayOptions
unboundedReplay()
{
    cluster::ReplayOptions options;
    options.stop_on_reject = false;
    return options;
}

/** Streams the trace at @p path into the allocator; returns the
 *  checksum of the outcome and its counter deltas. */
std::string
streamedReplay(const cluster::VmAllocator &allocator,
               const std::string &path,
               const cluster::MultiClusterSpec &spec,
               cluster::MultiReplayResult *result = nullptr)
{
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    cluster::BinaryTraceReader reader(path);
    const cluster::MultiReplayResult r = allocator.replay(reader, spec);
    if (result != nullptr) {
        *result = r;
    }
    return replayChecksum(r, before, obs::metrics().snapshot());
}

/** Reads the whole trace at @p path into memory, then replays it. */
std::string
materializedReplay(const cluster::VmAllocator &allocator,
                   const std::string &path,
                   const cluster::MultiClusterSpec &spec)
{
    const cluster::VmTrace trace = cluster::readTraceBinary(path);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const cluster::MultiReplayResult r = allocator.replay(trace, spec);
    return replayChecksum(r, before, obs::metrics().snapshot());
}

/** One simulated year of bench_fleet's trace (seed 42), replayed from
 *  the binary file; the benchmark seed does not change it. */
class FleetReplay final : public Workload
{
  public:
    explicit FleetReplay(const WorkloadConfig &config)
        : path_(config.scratch_dir + "/fleet-" + std::to_string(getpid()) +
                ".gskutrc"),
          allocator_(unboundedReplay())
    {
    }

    ~FleetReplay() override { std::remove(path_.c_str()); }

    const char *name() const override { return "fleet_replay"; }

    void setup() override
    {
        const cluster::TraceGenerator gen(
            fleetParams(kConcurrentVms, 24.0 * 365.0));
        {
            SpanScope span("TraceGenerator::generateToBinary");
            vms_ = gen.generateToBinary(kTraceSeed, path_);
            span.setWork(static_cast<double>(vms_));
        }
        cluster::TraceStats stats;
        {
            SpanScope span("summarizeTrace");
            cluster::BinaryTraceReader reader(path_);
            stats = cluster::summarizeTrace(reader);
        }
        spec_ = fleetCluster(stats);
        ThreadPool::resetGlobal(poolThreads());
        // First touch of the mapped file, so page faults land here.
        cluster::BinaryTraceReader reader(path_);
        cluster::VmRequest vm;
        while (reader.next(&vm)) {
        }
    }

    std::string runItem(long item) override
    {
        SpanScope span("VmAllocator::replay", item, events());
        checksum_ = streamedReplay(allocator_, path_, spec_, &result_);
        return checksum_;
    }

    Metric itemMetric(double item_s) const override
    {
        return {"replay_events_per_s", events() / item_s, "events/s"};
    }

    void crossCheck(Checks &checks) override
    {
        checks.expect(static_cast<std::uint64_t>(result_.placed +
                                                 result_.rejected) == vms_,
                      "every VM of the trace is placed or rejected");
        checks.expect(materializedReplay(allocator_, path_, spec_) ==
                          checksum_,
                      "streamed replay equals the materialized replay");
    }

    void layerPass(Checks &checks, double,
                   const obs::MetricsSnapshot &,
                   const obs::MetricsSnapshot &, Metrics &out) override
    {
        for (int rep = 0; rep < 3; ++rep) {
            SpanScope span("BinaryTraceReader::next", -1,
                           static_cast<double>(vms_));
            cluster::BinaryTraceReader reader(path_);
            cluster::VmRequest vm;
            std::uint64_t records = 0;
            while (reader.next(&vm)) {
                ++records;
            }
            checks.expect(records == vms_,
                          "the decode loop reads every record");
        }
        const SpanRecorder &rec = spans();
        addTiming(out, "trace_gen.ns_per_vm.fleet", "ns",
                  rec.samples("TraceGenerator::generateToBinary", true,
                              1.0));
        const std::vector<double> decode =
            rec.samples("BinaryTraceReader::next", true, 1.0);
        addTiming(out, "trace_binary.decode_ns_per_record", "ns", decode);
        // Streamed replay minus its decode share, per event.
        const double decode_ns = median(decode) * static_cast<double>(vms_);
        std::vector<double> alloc;
        for (double ns :
             rec.samples("VmAllocator::replay", false, 1.0)) {
            alloc.push_back((ns - decode_ns) / events());
        }
        addTiming(out, "allocator.ns_per_event.fleet", "ns", alloc);
        out.push_back({"fleet.events", events(), "count"});
        out.push_back({"fleet.servers",
                       static_cast<double>(spec_.baselines +
                                           spec_.greens.front().count),
                       "count"});
    }

  private:
    /** bench_fleet's trace seed. Fixed, so one recorded reference
     *  checks the replay at every benchmark seed. */
    static constexpr std::uint64_t kTraceSeed = 42;
    /** About 1.3M VMs (2.6M events) over the year at seed 42. */
    static constexpr double kConcurrentVms = 9200.0;

    double events() const { return 2.0 * static_cast<double>(vms_); }

    std::string path_;
    cluster::VmAllocator allocator_;
    std::uint64_t vms_ = 0;
    cluster::MultiClusterSpec spec_;
    cluster::MultiReplayResult result_;
    std::string checksum_;
};

// ---------------------------------------------------------------------
// design_search

/** The widened lattice: DDR5 4-24, CXL DDR4 0-16 step 2, new SSD 0-12,
 *  reused SSD 0-24 (61,425 combinations). */
gsf::DesignRange
widenedRange()
{
    auto steps = [](int lo, int hi, int step) {
        std::vector<int> v;
        for (int x = lo; x <= hi; x += step) {
            v.push_back(x);
        }
        return v;
    };
    gsf::DesignRange range;
    range.ddr5_dimms = steps(4, 24, 1);
    range.cxl_ddr4_dimms = steps(0, 16, 2);
    range.new_ssds = steps(0, 12, 1);
    range.reused_ssds = steps(0, 24, 1);
    return range;
}

/** The exhaustive Pareto front; the seed sets the order candidates are
 *  evaluated and inserted in, which must not change the front. */
class DesignSearch final : public Workload
{
  public:
    explicit DesignSearch(const WorkloadConfig &config) : config_(config) {}

    const char *name() const override { return "design_search"; }

    void setup() override
    {
        explorer_.reset();
        search_ = std::make_unique<gsf::SkuSearch>();
        explorer_ = std::make_unique<gsf::DesignSpaceExplorer>(
            search_->carbonModel(), search_->constraints());
        baseline_ = carbon::StandardSkus::baseline();
        range_ = widenedRange();
        ThreadPool::resetGlobal(poolThreads());
        // Warm the explorer, the catalogs and every model on the
        // default lattice's best design.
        const std::vector<gsf::RankedDesign> warm =
            explorer_->explore(baseline_, gsf::DesignRange{});
        GSKU_REQUIRE(!warm.empty(), "the default lattice has no design");
        (void)search_->evaluate(baseline_, warm.front().sku);
        parallelFor(static_cast<std::size_t>(poolThreads()),
                    [](std::size_t) {});
    }

    std::string runItem(long item) override
    {
        {
            SpanScope span("DesignSpaceExplorer::explore", item);
            considered_ = 0;
            designs_ = explorer_->explore(baseline_, range_, &considered_);
        }
        objectives_.assign(designs_.size(), gsf::SearchObjectives{});
        gsf::ParetoArchive archive;
        for (std::size_t i : permutation(designs_.size(), config_.seed)) {
            const carbon::ServerSku &sku = designs_[i].sku;
            gsf::SearchEval eval;
            {
                SpanScope span("SkuSearch::evaluate", item);
                eval = search_->evaluate(baseline_, sku);
            }
            {
                SpanScope span("ParetoArchive::insert", item);
                archive.insert(
                    gsf::ParetoPoint{sku.name, eval.objectives,
                                     eval.savings});
            }
            objectives_[i] = eval.objectives;
        }
        front_ = archive.points();
        bench::Checksum sum;
        sum.add(static_cast<double>(considered_));
        sum.add(static_cast<double>(designs_.size()));
        addText(sum, archive.render());
        return sum.hex();
    }

    Metric itemMetric(double item_s) const override
    {
        return {"front_s", item_s, "s"};
    }

    void crossCheck(Checks &checks) override
    {
        // Brute-force dominance: a design is on the front exactly when
        // no front point dominates it, and nothing dominates the front.
        std::set<std::string> on_front;
        for (const gsf::ParetoPoint &p : front_) {
            on_front.insert(p.name);
        }
        bool exact = !front_.empty();
        for (std::size_t i = 0; i < designs_.size() && exact; ++i) {
            bool dominated = false;
            for (const gsf::ParetoPoint &p : front_) {
                dominated = dominated ||
                            gsf::ParetoArchive::dominates(p.objectives,
                                                          objectives_[i]);
                exact = exact && !gsf::ParetoArchive::dominates(
                                     objectives_[i], p.objectives);
            }
            exact = exact && (on_front.count(designs_[i].sku.name) == 1) !=
                                 dominated;
        }
        checks.expect(exact, "the archive is exactly the non-dominated "
                             "set of the evaluated designs");
    }

    void layerPass(Checks &checks, double,
                   const obs::MetricsSnapshot &,
                   const obs::MetricsSnapshot &, Metrics &out) override
    {
        const carbon::CarbonModel &model = search_->carbonModel();
        for (const gsf::RankedDesign &d : designs_) {
            SpanScope span("CarbonModel::perCore");
            g_sink = model.perCore(d.sku).total().asKg();
        }
        // The perf layer as SkuSearch::evaluate calls it: one scaling
        // search and one tail-latency point per (latency app, CXL).
        const perf::PerfModel perf{perf::PerfConfig{}};
        const perf::CpuSpec base_cpu =
            perf::CpuCatalog::forGeneration(baseline_.generation);
        const perf::CpuSpec green_cpu = perf::CpuCatalog::bergamo();
        bool consistent = true;
        for (const perf::AppProfile &app : perf::AppCatalog::all()) {
            if (app.throughput_only) {
                continue;
            }
            for (bool cxl : {false, true}) {
                perf::ScalingResult scaling;
                for (int rep = 0; rep < 10; ++rep) {
                    SpanScope span("PerfModel::scalingFactor");
                    scaling = perf.scalingFactor(app, base_cpu, cxl);
                }
                if (!scaling.feasible) {
                    continue;
                }
                const perf::SloSpec slo = perf.slo(app, base_cpu);
                const double mu = perf.serviceRate(app, green_cpu, cxl);
                double p95 = 0.0;
                for (int rep = 0; rep < 20; ++rep) {
                    SpanScope span("perf::percentileSojournMs");
                    p95 = perf::percentileSojournMs(
                        scaling.green_cores, mu, slo.load_qps,
                        perf.config().tail_percentile);
                }
                consistent = consistent &&
                             p95 == perf.p95LatencyMs(app, green_cpu,
                                                      scaling.green_cores,
                                                      slo.load_qps, cxl);
            }
        }
        checks.expect(consistent, "percentileSojournMs equals the perf "
                                  "model's p95 at the scaled VM size");

        const SpanRecorder &rec = spans();
        addTiming(out, "design_space.explore_ms", "ms",
                  rec.samples("DesignSpaceExplorer::explore", false, 1e6));
        out.push_back({"design_space.candidates",
                       static_cast<double>(considered_), "count"});
        out.push_back({"design_space.feasible",
                       static_cast<double>(designs_.size()), "count"});
        out.push_back({"pareto.front_size",
                       static_cast<double>(front_.size()), "count"});
        addTiming(out, "search.evaluate_us", "us",
                  rec.samples("SkuSearch::evaluate", false, 1e3));
        addTiming(out, "pareto.insert_ns", "ns",
                  rec.samples("ParetoArchive::insert", false, 1.0));
        addTiming(out, "carbon.per_core_ns", "ns",
                  rec.samples("CarbonModel::perCore", false, 1.0));
        addTiming(out, "perf.scaling_factor_us", "us",
                  rec.samples("PerfModel::scalingFactor", false, 1e3));
        addTiming(out, "perf.sojourn_percentile_ns", "ns",
                  rec.samples("perf::percentileSojournMs", false, 1.0));
    }

  private:
    WorkloadConfig config_;
    std::unique_ptr<gsf::SkuSearch> search_;
    std::unique_ptr<gsf::DesignSpaceExplorer> explorer_;
    carbon::ServerSku baseline_;
    gsf::DesignRange range_;
    long considered_ = 0;
    std::vector<gsf::RankedDesign> designs_;
    std::vector<gsf::SearchObjectives> objectives_;
    std::vector<gsf::ParetoPoint> front_;
};

} // namespace

int
poolThreads()
{
    static const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
    return threads;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    if (name == "intensity_sweep") {
        return std::make_unique<IntensitySweep>(config);
    }
    if (name == "fleet_replay") {
        return std::make_unique<FleetReplay>(config);
    }
    if (name == "design_search") {
        return std::make_unique<DesignSearch>(config);
    }
    return nullptr;
}

Checks
runSelfTests(const std::string &scratch_dir)
{
    Checks checks;

    // Streamed and materialized replays of one small trace agree,
    // counter deltas included.
    const std::string path =
        scratch_dir + "/selftest-" + std::to_string(getpid()) + ".gskutrc";
    const cluster::TraceGenerator gen(fleetParams(60.0, 24.0 * 30));
    gen.generateToBinary(7, path);
    cluster::TraceStats stats;
    {
        cluster::BinaryTraceReader reader(path);
        stats = cluster::summarizeTrace(reader);
    }
    const cluster::VmAllocator allocator(unboundedReplay());
    const cluster::MultiClusterSpec spec = fleetCluster(stats);
    checks.expect(streamedReplay(allocator, path, spec) ==
                      materializedReplay(allocator, path, spec),
                  "streamed replay equals materialized replay");
    std::remove(path.c_str());

    // A small sweep is identical at one and two pool threads.
    cluster::TraceGenParams params;
    params.target_concurrent_vms = 40.0;
    params.duration_h = 24.0 * 3;
    const std::vector<cluster::VmTrace> traces =
        cluster::TraceGenerator(params).generateFamily(2, 5);
    const gsf::GsfEvaluator evaluator{gsf::GsfEvaluator::Options{}};
    auto sweep = [&](int threads) {
        ThreadPool::resetGlobal(threads);
        bench::Checksum sum;
        for (const carbon::ServerSku &green :
             {carbon::StandardSkus::greenCxl(),
              carbon::StandardSkus::greenFull()}) {
            for (double v :
                 evaluator
                     .sweep(traces, carbon::StandardSkus::baseline(), green,
                            {0.0, 0.2, 0.4})
                     .mean_savings) {
                sum.add(v);
            }
        }
        return sum.hex();
    };
    checks.expect(sweep(1) == sweep(2),
                  "a sweep is identical at 1 and 2 threads");
    return checks;
}

} // namespace gsku::perfbench
