#include "spans.hh"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> tlsOpen;

} // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::int64_t
SpanRecorder::open(const std::string &name, std::int64_t parent)
{
    const double start = seconds(epoch_, Clock::now());
    const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = static_cast<std::int64_t>(spans_.size());
    span.parent = parent >= 0 ? parent : current();
    span.name = name;
    span.thread = threadIds_
                      .emplace(tid, static_cast<std::uint32_t>(
                                        threadIds_.size()))
                      .first->second;
    span.start = start;
    span.end = start;
    spans_.push_back(std::move(span));
    tlsOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::close(std::int64_t id)
{
    const double end = seconds(epoch_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
}

std::int64_t
SpanRecorder::current()
{
    return tlsOpen.empty() ? -1 : tlsOpen.back();
}

std::map<std::string, SpanTotals>
SpanRecorder::totals() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                static_cast<std::size_t>(s.id));
    }
    std::map<std::string, SpanTotals> out;
    std::vector<std::pair<double, double>> cover;
    for (const Span &s : spans_) {
        cover.clear();
        for (const std::size_t c : children[static_cast<std::size_t>(
                 s.id)]) {
            const double a = std::max(s.start, spans_[c].start);
            const double b = std::min(s.end, spans_[c].end);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : cover) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        SpanTotals &t = out[s.name];
        ++t.calls;
        t.totalS += s.end - s.start;
        t.selfS += (s.end - s.start) - covered;
    }
    return out;
}

} // namespace perfbench
