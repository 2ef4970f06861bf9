/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Every public simulator call the benchmark makes while tracing is
 * wrapped in a span: name, start, end, parent span and thread. Spans
 * are appended to memory under a mutex and written out once, when the
 * run ends. A span's self time is its duration minus the union of the
 * intervals its child spans cover (children on other threads, such as
 * sweep jobs under SweepRunner::run, are clipped to the parent).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1 for a root span
    std::string name;
    std::uint32_t thread = 0; //!< small per-recorder thread index
    double start = 0.0;       //!< seconds since the recorder's epoch
    double end = 0.0;
};

/** Per-name aggregate: calls, total and self seconds. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span; @p parent < 0 means "the calling thread's
     *  innermost open span". Returns the span id. */
    std::int64_t open(const std::string &name, std::int64_t parent);
    void close(std::int64_t id);

    /** Innermost open span on the calling thread, or -1. */
    static std::int64_t current();

    const std::vector<Span> &spans() const { return spans_; }

    /** Aggregate closed spans by name. */
    std::map<std::string, SpanTotals> totals() const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::uint32_t> threadIds_;
};

/**
 * RAII span: a no-op when @p rec is null, so untraced runs pay one
 * branch per wrapped call.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name,
               std::int64_t parent = -1)
        : rec_(rec)
    {
        if (rec_ != nullptr)
            id_ = rec_->open(name, parent);
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::int64_t id_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
