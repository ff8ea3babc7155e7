/**
 * @file
 * In-memory span log for the end-to-end benchmark's traced run.
 *
 * The benchmark wraps each call it makes into a simulator layer's
 * public functions in a ScopedSpan. A span records its name
 * ("<layer>.<call>"), host start/end time, the span that caused it,
 * the benchmark phase it ran in and a case label. Spans stay in
 * memory until the run ends; selfSeconds() then derives each span's
 * self time (its duration minus the union of its children's
 * intervals, so parallel sweep cases are not double-subtracted).
 *
 * A disabled log records nothing: ScopedSpan then costs one branch.
 */

#ifndef EMMCSIM_E2EBENCH_SPANS_HH
#define EMMCSIM_E2EBENCH_SPANS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/** Host seconds between two steady_clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One recorded layer call. Times are seconds since the log origin. */
struct Span
{
    std::string name;
    std::string phase;
    std::string caseId;
    double start = 0.0;
    double end = -1.0;
    std::int64_t parent = -1;
    int thread = 0; ///< small per-thread index, for trace viewers
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Phase stamped on spans opened from now on (main thread only). */
    void setPhase(std::string phase) { phase_ = std::move(phase); }

    std::int64_t
    open(std::string name, std::string case_id, std::int64_t parent)
    {
        Span s;
        s.name = std::move(name);
        s.caseId = std::move(case_id);
        s.parent = parent;
        thread_local const int thread = nextThread_++;
        s.thread = thread;
        std::lock_guard<std::mutex> lock(mutex_);
        s.phase = phase_;
        s.start = seconds(origin_, Clock::now());
        spans_.push_back(std::move(s));
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        const double t = seconds(origin_, Clock::now());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    /** All spans; call once every span is closed. */
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: duration minus the part of it covered
     * by the union of its children's intervals.
     */
    std::vector<double>
    selfSeconds() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].emplace_back(
                    s.start, s.end);
        }
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &p = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            double cur_lo = 0.0;
            double cur_hi = -1.0;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, p.start);
                hi = std::min(hi, p.end);
                if (hi <= lo)
                    continue;
                if (lo > cur_hi) {
                    if (cur_hi > cur_lo)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
            self[i] = (p.end - p.start) - covered;
        }
        return self;
    }

    /** Chrome trace_event JSON, one complete ("X") event per span. */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"" << s.phase << "\",\"ph\":\"X\",\"ts\":"
               << static_cast<std::int64_t>(s.start * 1e6)
               << ",\"dur\":"
               << static_cast<std::int64_t>((s.end - s.start) * 1e6)
               << ",\"pid\":1,\"tid\":" << s.thread
               << ",\"args\":{\"id\":" << i
               << ",\"parent\":" << s.parent << ",\"case\":\""
               << s.caseId << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    Clock::time_point origin_;
    bool enabled_ = false;
    std::atomic<int> nextThread_{0};
    std::string phase_;
    std::mutex mutex_; ///< guards spans_ (sweep workers open spans)
    std::vector<Span> spans_;
};

/**
 * RAII span. Without an explicit parent it nests under the innermost
 * span open on the same thread.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::string case_id = {},
               std::int64_t parent = kInherit)
        : log_(log)
    {
        if (!log_.enabled())
            return;
        if (parent == kInherit)
            parent = current();
        id_ = log_.open(std::move(name), std::move(case_id), parent);
        saved_ = current();
        current() = id_;
    }

    ~ScopedSpan()
    {
        if (id_ < 0)
            return;
        log_.close(id_);
        current() = saved_;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Span id (-1 when the log is disabled). */
    std::int64_t id() const { return id_; }

    static constexpr std::int64_t kInherit = -2;

  private:
    static std::int64_t &
    current()
    {
        thread_local std::int64_t cur = -1;
        return cur;
    }

    SpanLog &log_;
    std::int64_t id_ = -1;
    std::int64_t saved_ = -1;
};

} // namespace e2ebench

#endif // EMMCSIM_E2EBENCH_SPANS_HH
