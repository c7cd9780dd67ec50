#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

namespace
{

/** This thread's open spans, innermost last. */
thread_local std::vector<int> openSpans;

/** The layer a span name belongs to: its text before the first '.'. */
std::string
layerOf(const char *name)
{
    std::string text(name);
    return text.substr(0, text.find('.'));
}

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

double
Tracer::toSeconds(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - origin_).count();
}

int
Tracer::begin(const char *name, std::uint64_t request)
{
    int parent = openSpans.empty() ? -1 : openSpans.back();
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back({name, now(), 0.0, parent, request});
    }
    openSpans.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    double t = now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
}

int
Tracer::add(const char *name, double start, double end, int parent,
            std::uint64_t request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.start, span.end});
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0.0;
        double reach = span.start;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.end);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = (span.end - span.start) - covered;
    }
    return self;
}

Accounting
account(const std::vector<Span> &spans, const std::vector<double> &self,
        int root)
{
    Accounting result;
    if (root < 0 || static_cast<std::size_t>(root) >= spans.size())
        return result;
    // Spans are recorded in begin() order, so every descendant of
    // root has a larger index than root and than its own parent.
    std::vector<bool> inside(spans.size(), false);
    inside[static_cast<std::size_t>(root)] = true;
    for (std::size_t i = static_cast<std::size_t>(root) + 1;
         i < spans.size(); ++i) {
        int parent = spans[i].parent;
        if (parent >= 0 && inside[static_cast<std::size_t>(parent)]) {
            inside[i] = true;
            result.layerSelf[layerOf(spans[i].name)] += self[i];
        }
    }
    const Span &top = spans[static_cast<std::size_t>(root)];
    constexpr double slack = 1e-9;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = static_cast<std::size_t>(root) + 1;
         i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (inside[i]) {
            children[static_cast<std::size_t>(span.parent)].push_back(i);
        } else if (span.parent < 0 && span.request == 0 &&
                   span.start < top.end && span.end > top.start) {
            // Begun on a thread with no open span: its time is in
            // the phase but in no tree.
            ++result.orphans;
        }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::size_t> &kids = children[i];
        std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
            return spans[a].start < spans[b].start;
        });
        double reach = spans[i].start;
        for (std::size_t k : kids) {
            if (spans[k].start < reach - slack ||
                spans[k].end > spans[i].end + slack)
                ++result.overlaps;
            reach = std::max(reach, spans[k].end);
        }
    }
    result.wall = top.end - top.start;
    result.unspanned = self[static_cast<std::size_t>(root)];
    double sum = result.unspanned;
    for (const auto &[layer, seconds] : result.layerSelf)
        sum += seconds;
    result.residual = result.wall - sum;
    return result;
}

std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &span : spans) {
        if (name == span.name)
            out.push_back(span.end - span.start);
    }
    return out;
}

bool
writeSpans(const std::vector<Span> &spans, const std::vector<double> &self,
           const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fputs("[\n", file);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        std::fprintf(file,
                     "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                     "\"end\":%.9f,\"self\":%.9f,\"parent\":%d,"
                     "\"request\":%llu}%s\n",
                     i, span.name, span.start, span.end, self[i],
                     span.parent,
                     static_cast<unsigned long long>(span.request),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", file);
    return std::fclose(file) == 0;
}

} // namespace perfbench
