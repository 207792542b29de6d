/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer's public function, recorded by the
 * benchmark around the call (nothing inside the libraries is
 * instrumented). Spans nest through an RAII scope on the benchmark's
 * main thread only, so a span's children never overlap each other and
 * a span's self time is its duration minus its children's durations.
 * Spans stay in memory until writeJsonl() at the end of the run.
 */
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace gsku::perfbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

struct Span
{
    const char *name = "";  ///< A string literal.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< Index into spans(), -1 for a root.
    long item = -1;         ///< Workload-item id (-1: set-up / none).
    double work = 1.0;      ///< Work units (VMs, events, records) done.

    std::int64_t durationNs() const { return end_ns - start_ns; }
};

class SpanRecorder
{
  public:
    /** Turns recording on or off; spans opened while off are not
     *  recorded. Recording is bound to the calling thread. */
    void setEnabled(bool on);
    bool enabled() const { return enabled_; }

    int open(const char *name, long item, double work);
    void close(int id);
    void setWork(int id, double work);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ns) of every closed span called @p name, each divided
     *  by its work units when @p per_work, then by @p ns_per_unit. */
    std::vector<double> samples(const char *name, bool per_work,
                                double ns_per_unit) const;

    /**
     * Checks, for every root, that the self times of the spans in its
     * tree sum to the root's duration and that every child lies inside
     * its parent. Returns an empty string when consistent, else why.
     */
    std::string checkSelfTimes() const;

    /** Aggregated tree: one line per distinct name path with count,
     *  total and self milliseconds. */
    std::string renderTree() const;

    /** One JSON object per span per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    /** Summed durations of each span's direct children. */
    std::vector<std::int64_t> childNs() const;

    bool enabled_ = false;
    std::thread::id owner_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** The process-wide recorder. */
SpanRecorder &spans();

/** Records one span for its lifetime (when the recorder is enabled). */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, long item = -1,
                       double work = 1.0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void setWork(double work);

  private:
    int id_ = -1;
};

} // namespace gsku::perfbench
