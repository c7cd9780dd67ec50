/**
 * @file
 * In-memory spans for the traced run.
 *
 * Spans are recorded by the benchmark's own code around each call it
 * makes into a layer: a name ("<layer>.<call>"), start, end, the span
 * that caused it and, for served requests, a request id. They are kept
 * in memory and written out when the workload ends. A span's self time
 * is its duration minus the part of it covered by its children; the
 * accounting check asserts that self times over a phase's span tree
 * add up to the phase's wall clock, that no span in the tree overlaps
 * a sibling or leaves its parent (time counted twice), and that no
 * span was opened during the phase outside the tree (time missed: a
 * span begun on another thread has no parent).
 *
 * When tracing is disabled every Scope is one relaxed load and a
 * branch, so the untraced timed phase runs the same code.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench.hh"

namespace perfbench
{

/** One recorded span; times are seconds since the tracer's origin. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;           //!< index of the causing span; -1 = root
    std::uint64_t request = 0; //!< shared by one request's spans
};

/** The process-wide span recorder. */
class Tracer
{
  public:
    static Tracer &get();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Seconds since the tracer's origin. */
    double now() const { return toSeconds(Clock::now()); }
    double toSeconds(Clock::time_point t) const;

    /** Open a span whose parent is this thread's innermost open span.
     *  @return its index. */
    int begin(const char *name, std::uint64_t request = 0);

    /** Close span @p id opened by begin() on this thread. */
    void end(int id);

    /** Record a finished span with explicit times and parent. */
    int add(const char *name, double start, double end, int parent,
            std::uint64_t request);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    Tracer();

    Clock::time_point origin_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** RAII span on the calling thread. */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t request = 0)
        : id_(Tracer::get().enabled() ? Tracer::get().begin(name, request)
                                      : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            Tracer::get().end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** Self time of every span (duration minus its children's union). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Self-time accounting of the span tree under @p root. */
struct Accounting
{
    double wall = 0.0;      //!< the root's duration
    double unspanned = 0.0; //!< the root's own self time
    std::map<std::string, double> layerSelf; //!< by layer prefix
    double residual = 0.0;  //!< wall - (unspanned + sum of layerSelf)
    std::size_t orphans = 0;  //!< parentless spans begun in the phase
                              //!< (request roots excepted)
    std::size_t overlaps = 0; //!< tree spans overlapping a sibling or
                              //!< reaching outside their parent
};
Accounting account(const std::vector<Span> &spans,
                   const std::vector<double> &self, int root);

/** Durations (seconds) of every span named @p name. */
std::vector<double> durations(const std::vector<Span> &spans,
                              const std::string &name);

/** Write @p spans as a JSON array to @p path (false on I/O error). */
bool writeSpans(const std::vector<Span> &spans,
                const std::vector<double> &self,
                const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
