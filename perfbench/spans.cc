#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"

namespace gsku::perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::setEnabled(bool on)
{
    GSKU_REQUIRE(stack_.empty(), "cannot toggle tracing inside a span");
    enabled_ = on;
    owner_ = std::this_thread::get_id();
}

int
SpanRecorder::open(const char *name, long item, double work)
{
    if (!enabled_) {
        return -1;
    }
    GSKU_REQUIRE(std::this_thread::get_id() == owner_,
                 "spans are recorded on the tracing thread only");
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.item = item;
    span.work = work;
    spans_.push_back(span);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    // Last, so the bookkeeping above is not inside the span.
    spans_.back().start_ns = nowNs();
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0) {
        return;
    }
    const std::int64_t end = nowNs();
    GSKU_REQUIRE(!stack_.empty() && stack_.back() == id,
                 "spans must close in LIFO order");
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    stack_.pop_back();
}

void
SpanRecorder::setWork(int id, double work)
{
    if (id >= 0) {
        spans_[static_cast<std::size_t>(id)].work = work;
    }
}

std::vector<double>
SpanRecorder::samples(const char *name, bool per_work,
                      double ns_per_unit) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (std::strcmp(s.name, name) != 0 || s.end_ns == 0) {
            continue;
        }
        double v = static_cast<double>(s.durationNs());
        if (per_work) {
            v /= s.work;
        }
        out.push_back(v / ns_per_unit);
    }
    return out;
}

std::vector<std::int64_t>
SpanRecorder::childNs() const
{
    std::vector<std::int64_t> out(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            out[static_cast<std::size_t>(s.parent)] += s.durationNs();
        }
    }
    return out;
}

std::string
SpanRecorder::checkSelfTimes() const
{
    const std::size_t n = spans_.size();
    const std::vector<std::int64_t> child_ns = childNs();
    // Spans are appended in open order, so a parent's index is below
    // its children's and root[] fills in one pass.
    std::vector<int> root(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.end_ns < s.start_ns) {
            return std::string("span ") + s.name + " ends before it starts";
        }
        if (s.parent < 0) {
            root[i] = static_cast<int>(i);
            continue;
        }
        const auto p = static_cast<std::size_t>(s.parent);
        if (s.start_ns < spans_[p].start_ns ||
            s.end_ns > spans_[p].end_ns) {
            return std::string("span ") + s.name + " is not inside " +
                   spans_[p].name;
        }
        root[i] = root[p];
    }
    std::vector<std::int64_t> self_sum(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t self = spans_[i].durationNs() - child_ns[i];
        if (self < 0) {
            return std::string("children of ") + spans_[i].name + " overlap";
        }
        self_sum[static_cast<std::size_t>(root[i])] += self;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (spans_[i].parent < 0 &&
            self_sum[i] != spans_[i].durationNs()) {
            return std::string("self times under ") + spans_[i].name +
                   " do not sum to its duration";
        }
    }
    return "";
}

std::string
SpanRecorder::renderTree() const
{
    struct Row
    {
        int depth = 0;
        long count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };
    const std::size_t n = spans_.size();
    std::vector<std::string> path(n);
    std::vector<int> depth(n, 0);
    const std::vector<std::int64_t> child_ns = childNs();
    std::vector<std::string> order;
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
        const int p = spans_[i].parent;
        const auto up = static_cast<std::size_t>(p);
        path[i] = p < 0 ? std::string(spans_[i].name)
                        : path[up] + "/" + spans_[i].name;
        depth[i] = p < 0 ? 0 : depth[up] + 1;
        auto [it, fresh] = rows.try_emplace(path[i]);
        if (fresh) {
            order.push_back(path[i]);
        }
        Row &row = it->second;
        row.depth = depth[i];
        ++row.count;
        row.total_ns += spans_[i].durationNs();
        row.self_ns += spans_[i].durationNs() - child_ns[i];
    }
    std::ostringstream out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-56s %8s %12s %12s\n", "span",
                  "count", "total_ms", "self_ms");
    out << line;
    for (const std::string &key : order) {
        const Row &row = rows.at(key);
        const std::string leaf = key.substr(key.rfind('/') + 1);
        const std::string label =
            std::string(static_cast<std::size_t>(2 * row.depth), ' ') +
            leaf;
        std::snprintf(line, sizeof(line), "%-56s %8ld %12.3f %12.3f\n",
                      label.c_str(), row.count,
                      static_cast<double>(row.total_ns) / 1e6,
                      static_cast<double>(row.self_ns) / 1e6);
        out << line;
    }
    return out.str();
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
        return false;
    }
    const std::vector<std::int64_t> child_ns = childNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"parent\":" << s.parent << ",\"item\":" << s.item
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"self_ns\":" << s.durationNs() - child_ns[i]
            << ",\"work\":" << s.work
            << "}\n";
    }
    return static_cast<bool>(out);
}

SpanRecorder &
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

SpanScope::SpanScope(const char *name, long item, double work)
    : id_(spans().open(name, item, work))
{
}

SpanScope::~SpanScope()
{
    spans().close(id_);
}

void
SpanScope::setWork(double work)
{
    spans().setWork(id_, work);
}

} // namespace gsku::perfbench
