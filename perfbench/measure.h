/**
 * @file
 * Measurement helpers for the benchmark: sample summaries, text in
 * output checksums, output-check bookkeeping, the named metric list,
 * and the resident-memory sampler.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"

namespace gsku::perfbench {

double sum(const std::vector<double> &v);

/** Median of @p v (mean of the middle two for an even count). */
double median(std::vector<double> v);

/**
 * A timing distribution: the median, and the highest of the
 * percentiles 99.9/99/95/90/75/50 that has at least ten samples beyond
 * it (the maximum, reported as percentile 100, when none has).
 */
struct Summary
{
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

Summary summarize(std::vector<double> samples);

/** Feeds @p text to @p sum as its length and then each byte, as
 *  doubles (bench::Checksum takes numbers only). */
void addText(bench::Checksum &sum, const std::string &text);

/** Output checks: each is one attempt; a false one is one failure. */
struct Checks
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what);
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Appends <base>.p50/.tail/.tail_pct/.max/.n for @p samples. */
void addTiming(Metrics &out, const std::string &base,
               const std::string &unit, const std::vector<double> &samples);

/**
 * Samples RssAnon and RssFile from /proc/self/status every 10 ms on one
 * thread between start() and stop(), keeping the highest of each.
 * Anonymous pages are the heap and stacks; file-backed pages (the
 * mmapped trace) are kept apart so they never count as heap.
 */
class RssSampler
{
  public:
    RssSampler() = default;
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    void start();
    void stop();

    double peakAnonMb() const { return peak_anon_kb_ / 1024.0; }
    double peakFileMb() const { return peak_file_kb_ / 1024.0; }

  private:
    void sample();

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::atomic<double> peak_anon_kb_{0.0};
    std::atomic<double> peak_file_kb_{0.0};
    std::thread thread_;
};

} // namespace gsku::perfbench
