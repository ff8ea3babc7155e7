/**
 * @file
 * core::Sweep: parallel execution of independent replay cases.
 *
 * The Section V comparison and every figure/table bench replay many
 * independent (trace, scheme, options) cases. Each runCase() builds
 * its own simulator and device, reads a shared const trace, and
 * returns a value-only CaseResult, so cases are embarrassingly
 * parallel. This header provides:
 *
 *   - runOrdered(): run N indexed jobs on up to `jobs` worker threads
 *     and return their results in index order, so downstream output
 *     (tables, run-report JSON) is byte-identical regardless of worker
 *     count,
 *   - SweepCase / runCases(): the (trace, scheme, options) job model
 *     used by the CLI sweep mode, the HPS case study and the benches.
 *
 * Determinism contract: a job must depend only on its own inputs
 * (trace contents, options, seeds), never on execution order or wall
 * clock. runCase() satisfies this — simulated time is event-driven
 * and all randomness is seeded — so `--jobs=1` and `--jobs=N` produce
 * identical result vectors.
 */

#ifndef EMMCSIM_CORE_SWEEP_HH
#define EMMCSIM_CORE_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/experiment.hh"
#include "core/scheme.hh"
#include "trace/trace.hh"

namespace emmcsim::core {

/**
 * Resolve a --jobs request: 0 means "use the hardware", anything else
 * is taken literally. Never returns 0.
 */
unsigned effectiveJobs(unsigned requested);

/**
 * Run @p fn(0) .. @p fn(count-1) on min(effectiveJobs(@p jobs),
 * @p count) worker threads and return the results indexed by job,
 * independent of completion order. @p fn is invoked concurrently from
 * several threads and must be safe to call that way (runCase() is:
 * all its state is per-call). If jobs throw, the exception of the
 * lowest-indexed failing job is rethrown after all jobs finish.
 */
template <typename Fn>
auto
runOrdered(std::size_t count, unsigned jobs, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<std::optional<R>> slots(count);
    std::vector<std::exception_ptr> errors(count);
    // Workers claim indices in increasing order, so jobs start in
    // index order whatever the worker count.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                slots[i].emplace(fn(i));
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t n =
        std::min<std::size_t>(effectiveJobs(jobs), count);
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t w = 0; w < n; ++w)
        workers.emplace_back(work);
    for (std::thread &w : workers)
        w.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R> &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

/**
 * One replay job in a sweep: which trace on which device, with which
 * experiment toggles. The trace is shared by pointer — replays only
 * read it — and must outlive the runCases() call.
 */
struct SweepCase
{
    /** Report label, e.g. "Twitter/HPS" or a scheme name. */
    std::string label;
    const trace::Trace *trace = nullptr;
    SchemeKind kind = SchemeKind::HPS;
    ExperimentOptions opts;
};

/**
 * Replay every case on up to @p jobs workers (0 = hardware
 * concurrency) and return the results in case order.
 */
std::vector<CaseResult> runCases(const std::vector<SweepCase> &cases,
                                 unsigned jobs = 0);

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_SWEEP_HH
