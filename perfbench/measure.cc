#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.h"

namespace gsku::perfbench {

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v) {
        s += x;
    }
    return s;
}

double
median(std::vector<double> v)
{
    GSKU_REQUIRE(!v.empty(), "median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** Linear interpolation between closest ranks of sorted @p v. */
double
percentile(const std::vector<double> &v, double pct)
{
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

} // namespace

Summary
summarize(std::vector<double> samples)
{
    GSKU_REQUIRE(!samples.empty(), "summary of no samples");
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.p50 = percentile(samples, 50.0);
    s.max = samples.back();
    s.tail = s.max;
    s.tail_pct = 100.0;
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double beyond =
            static_cast<double>(s.n) * (100.0 - pct) / 100.0;
        if (beyond >= 10.0) {
            s.tail = percentile(samples, pct);
            s.tail_pct = pct;
            break;
        }
    }
    return s;
}

void
addText(bench::Checksum &sum, const std::string &text)
{
    sum.add(static_cast<double>(text.size()));
    for (const char c : text) {
        sum.add(static_cast<double>(static_cast<unsigned char>(c)));
    }
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

void
addTiming(Metrics &out, const std::string &base, const std::string &unit,
          const std::vector<double> &samples)
{
    const Summary s = summarize(samples);
    out.push_back({base + ".p50", s.p50, unit});
    out.push_back({base + ".tail", s.tail, unit});
    out.push_back({base + ".tail_pct", s.tail_pct, "%"});
    out.push_back({base + ".max", s.max, unit});
    out.push_back({base + ".n", static_cast<double>(s.n), "count"});
}

RssSampler::~RssSampler()
{
    stop();
}

void
RssSampler::start()
{
    GSKU_REQUIRE(!thread_.joinable(), "sampler already running");
    stopping_ = false;
    sample();
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, std::chrono::milliseconds(10),
                               [this] { return stopping_; })) {
            sample();
        }
    });
}

void
RssSampler::stop()
{
    if (!thread_.joinable()) {
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    thread_.join();
    sample();
}

void
RssSampler::sample()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    auto raise = [](std::atomic<double> &peak, double kb) {
        if (kb > peak.load()) {
            peak.store(kb);
        }
    };
    while (std::getline(status, line)) {
        double kb = 0.0;
        if (std::sscanf(line.c_str(), "RssAnon: %lf kB", &kb) == 1) {
            raise(peak_anon_kb_, kb);
        } else if (std::sscanf(line.c_str(), "RssFile: %lf kB", &kb) == 1) {
            raise(peak_file_kb_, kb);
        }
    }
}

} // namespace gsku::perfbench
