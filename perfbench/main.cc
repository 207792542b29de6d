/**
 * @file
 * gsf_bench: runs one benchmark workload in this process and prints, as
 * its last stdout line, one JSON object with the output-check counts and
 * the metrics.
 *
 *   gsf_bench --workload <name> --seed <n> --seconds <s> [--trace]
 *             [--scratch <dir>] [--expect <hex>] [--spans <path>]
 *             [--min-items <n>]
 *   gsf_bench --selftest [--scratch <dir>]
 *
 * Untraced (end-to-end) run: run items back to back for --seconds (at
 * least --min-items), setting up again between some of them (setup_s is
 * the median set-up), sampling RssAnon during the items, and report the
 * median item wall time (item_s) and the peak anonymous RSS
 * (peak_anon_mb).
 *
 * Traced run (--trace): alternate untraced and traced items for
 * --seconds, then call each layer directly with one span per call and
 * report the per-layer metrics, the traced/untraced wall ratio, and the
 * span tree; spans are written to --spans at the end.
 *
 * The worker pool is pinned to min(2, hardware threads) in every run.
 *
 * Every item's output checksum must equal the first item's and, when
 * given, --expect (the recorded reference); each workload also checks
 * its last output against an independent path. A mismatch or an
 * exception is a failed check; error_rate = failed / attempted.
 */
#include <malloc.h>
#include <thread>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "gsf/eval_cache.h"
#include "measure.h"
#include "obs/flightrec.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace gsku;
using namespace gsku::perfbench;

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "g++ " __VERSION__;
#endif

/** Set-up runs at points spread over the whole run, as the items are:
 *  before the first item, then before any later one while set-up has
 *  taken under kSetupShare of the run so far. At each point it repeats
 *  for kSetupBurstS (at least once). A shared host's speed drifts over
 *  seconds, so set-up is sampled across the run, under the same
 *  conditions as the items, not all in its first half second. */
constexpr double kSetupShare = 0.25;
constexpr double kSetupBurstS = 0.05;

/** Every environment switch that would turn on a persistent cache or an
 *  obs sink, or resize the pool, behind the benchmark's back. */
const char *const kPinnedEnv[] = {
    "GSKU_EVAL_CACHE", "GSKU_LEDGER", "GSKU_PROFILE", "GSKU_TSDB",
    "GSKU_TRACE",      "GSKU_FLIGHT", "GSKU_THREADS"};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
    std::string expect;
    std::string spans_path;
    int min_items = 3;
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gsf_bench: " << why
              << "\nusage: gsf_bench --workload <intensity_sweep|"
                 "fleet_replay|design_search> --seed <n> --seconds <s> "
                 "[--trace] [--scratch <dir>] "
                 "[--expect <hex>] [--spans <path>] [--min-items <n>]\n"
                 "       gsf_bench --selftest [--scratch <dir>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(arg + " needs a value");
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = value();
            } else if (arg == "--seed") {
                a.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(value());
            } else if (arg == "--trace") {
                a.trace = true;
            } else if (arg == "--scratch") {
                a.scratch = value();
            } else if (arg == "--expect") {
                a.expect = value();
            } else if (arg == "--spans") {
                a.spans_path = value();
            } else if (arg == "--min-items") {
                a.min_items = std::stoi(value());
            } else if (arg == "--selftest") {
                a.selftest = true;
            } else {
                usage("unknown option '" + arg + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (a.min_items < 1 || !(a.seconds >= 0.0)) {
        usage("--min-items must be >= 1 and --seconds >= 0");
    }
    return a;
}

/** Clears the pinned environment, then verifies every cache and obs
 *  sink is off. Returns why not, or an empty string. */
std::string
pinEnvironment()
{
    for (const char *name : kPinnedEnv) {
        unsetenv(name); // NOLINT(concurrency-mt-unsafe)
    }
    gsf::configureEvalCache("", 0);
    if (gsf::evalCache() != nullptr) {
        return "the persistent eval cache is on";
    }
    if (obs::ledgerEnabled() || obs::profileEnabled() ||
        obs::traceEnabled() || obs::timeseriesEnabled() ||
        obs::flightRecorderEnabled()) {
        return "an obs sink (ledger/profile/trace/tsdb/flight) is on";
    }
    return "";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
resultJson(const std::string &workload, const Checks &checks,
           const Metrics &metrics)
{
    std::ostringstream out;
    out << "{\"workload\": \"" << workload << "\", \"correct\": "
        << (checks.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << checks.attempted
        << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
            << "\": {\"value\": " << jsonNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

/** One human-readable "name = value unit (note)" report line. */
void
report(const std::string &name, double value, const std::string &unit,
       const std::string &note)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    std::cout << name << " = " << buf << ' ' << unit << " (" << note
              << ")\n";
}

/** A timing's median line, with its tail percentile and sample count. */
void
report(const std::string &name, double value, const std::string &unit,
       const Summary &s)
{
    char note[128];
    std::snprintf(note, sizeof(note), "median of %zu; p%g %.6g s; max %.6g s",
                  s.n, s.tail_pct, s.tail, s.max);
    report(name, value, unit, note);
}

/** Runs one item, timing it and checking its output. */
double
timedItem(Workload &wl, long item, const Args &args, std::string *first,
          Checks &checks)
{
    const bench::WallTimer timer;
    std::string sum;
    try {
        sum = wl.runItem(item);
    } catch (const std::exception &e) {
        checks.expect(false, "item " + std::to_string(item) +
                                 " threw: " + e.what());
        return timer.seconds();
    }
    const double s = timer.seconds();
    if (first->empty()) {
        *first = sum;
    }
    checks.expect(sum == *first, "item " + std::to_string(item) +
                                     " output equals item 0's");
    if (!args.expect.empty()) {
        checks.expect(sum == args.expect,
                      "item " + std::to_string(item) + " output " + sum +
                          " equals the recorded reference " + args.expect);
    }
    return s;
}

int
runSelfTest(const Args &args)
{
    const Checks checks = runSelfTests(args.scratch);
    for (const std::string &f : checks.failures) {
        std::cout << "FAIL: " << f << '\n';
    }
    std::cout << "selftest: " << checks.attempted - checks.failed << "/"
              << checks.attempted << " checks passed\n";
    return checks.failed == 0 ? 0 : 1;
}

int
run(const Args &args)
{
    const std::string pin = pinEnvironment();
    if (!pin.empty()) {
        std::cerr << "gsf_bench: " << pin << " after clearing the "
                  << "environment; refusing to time\n";
        return 2;
    }
    if (args.selftest) {
        return runSelfTest(args);
    }
    WorkloadConfig config;
    config.seed = args.seed;
    config.scratch_dir = args.scratch;
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, config);
    if (!wl) {
        usage("unknown workload '" + args.workload + "'");
    }
    std::cout << "gsf_bench: workload=" << wl->name()
              << " seed=" << args.seed << " trace=" << (args.trace ? 1 : 0)
              << "\nenv: nproc=" << std::thread::hardware_concurrency()
              << " pool_threads=" << poolThreads()
              << " cpu=\"" << cpuModel() << "\" compiler=\"" << kCompiler
              << "\" build_type=" << GSF_BENCH_BUILD_TYPE
              << " contract_level=" << contracts::kLevel << "\n";

    SpanRecorder &rec = spans();
    Checks checks;
    Metrics metrics;

    std::vector<double> setup_s;
    const bench::WallTimer run_timer;
    auto setUpIfDue = [&] {
        if (!setup_s.empty() &&
            sum(setup_s) >= kSetupShare * run_timer.seconds()) {
            return;
        }
        rec.setEnabled(args.trace);
        const bench::WallTimer burst;
        do {
            const bench::WallTimer timer;
            {
                SpanScope root("setup", static_cast<long>(setup_s.size()));
                wl->setup();
            }
            setup_s.push_back(timer.seconds());
        } while (burst.seconds() < kSetupBurstS);
        // The replaced set-up's freed pages must not count toward the
        // peak.
        malloc_trim(0);
    };

    std::string first;
    std::vector<double> item_s;
    RssSampler rss;
    if (!args.trace) {
        for (long item = 0; item < args.min_items ||
                            run_timer.seconds() < args.seconds;
             ++item) {
            setUpIfDue();
            rec.setEnabled(false);
            rss.start();
            item_s.push_back(timedItem(*wl, item, args, &first, checks));
            rss.stop();
        }
    } else {
        // Pairs of untraced and traced items, alternating which runs
        // first so neither side always follows the other.
        std::vector<double> traced_s;
        obs::MetricsSnapshot before;
        obs::MetricsSnapshot after;
        for (long pair = 0; pair < 1 || run_timer.seconds() < args.seconds;
             ++pair) {
            setUpIfDue();
            for (int side = 0; side < 2; ++side) {
                const bool traced = (side == 0) == (pair % 2 == 1);
                const long item = 2 * pair + side;
                rec.setEnabled(traced);
                if (traced && traced_s.empty()) {
                    before = obs::metrics().snapshot();
                }
                double s = 0.0;
                {
                    SpanScope root("item", item);
                    s = timedItem(*wl, item, args, &first, checks);
                }
                if (traced && traced_s.empty()) {
                    after = obs::metrics().snapshot();
                }
                (traced ? traced_s : item_s).push_back(s);
            }
        }
        rec.setEnabled(true);
        {
            SpanScope root("layers");
            wl->layerPass(checks, median(item_s), before, after, metrics);
        }
        rec.setEnabled(false);
        metrics.push_back({std::string("trace.overhead_ratio.") + wl->name(),
                           median(traced_s) / median(item_s), "ratio"});
        // Reported, not counted as an output check: self time is a
        // span's duration minus its children's, so this only catches a
        // recorder fault.
        const std::string why = rec.checkSelfTimes();
        std::cout << "span self times sum to their roots: "
                  << (why.empty() ? "yes" : "no, " + why) << '\n'
                  << "span tree (" << rec.spans().size() << " spans):\n"
                  << rec.renderTree();
        if (!args.spans_path.empty() && !rec.writeJsonl(args.spans_path)) {
            std::cerr << "gsf_bench: cannot write " << args.spans_path
                      << '\n';
            return 2;
        }
    }
    rec.setEnabled(false);
    wl->crossCheck(checks);

    const Summary items = summarize(item_s);
    const Summary setups = summarize(setup_s);
    report("setup_s", setups.p50, "s", setups);
    report("item_s", items.p50, "s", items);
    const Metric user = wl->itemMetric(items.p50);
    report(user.name, user.value, user.unit, items);
    std::cout << "item walls (s):";
    for (double s : item_s) {
        std::cout << ' ' << s;
    }
    std::cout << "\noutput_checksum = " << first << '\n';
    if (!args.trace) {
        report("peak_anon_mb", rss.peakAnonMb(), "MB",
               "RssAnon; RssFile peak " +
                   std::to_string(rss.peakFileMb()) + " MB not counted");
        metrics.push_back({"setup_s", setups.p50, "s"});
        metrics.push_back({"item_s", items.p50, "s"});
        metrics.push_back({"peak_anon_mb", rss.peakAnonMb(), "MB"});
    }
    report("error_rate",
           static_cast<double>(checks.failed) /
               static_cast<double>(checks.attempted),
           "fraction",
           std::to_string(checks.failed) + " failed / " +
               std::to_string(checks.attempted) + " attempted checks");
    for (const std::string &f : checks.failures) {
        std::cout << "FAILED CHECK: " << f << '\n';
    }
    std::cout << resultJson(wl->name(), checks, metrics) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "gsf_bench: " << e.what() << '\n';
        return 1;
    }
}
