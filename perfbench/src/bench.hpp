#pragma once

// Shared plumbing of the benchmark runner: arguments, the seeded input
// stream, the in-memory span recorder and the record stream the harness
// (perfbench/run.py) aggregates.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Json = ap::trace::json::Value;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string data_dir;  ///< perfbench/ in the checkout: kernels, expected values
    unsigned threads = 1;  ///< min(4, nproc), used by every parallel layer
};

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seeded input generator. std::mt19937_64's output sequence is fixed by
/// the standard, so a seed names the same inputs on every platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : gen_(seed) {}
    /// Uniform integer in [lo, hi].
    std::int64_t between(std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(gen_() % static_cast<std::uint64_t>(hi - lo + 1));
    }
    /// Fisher-Yates permutation of 0..n-1.
    std::vector<int> permutation(int n) {
        std::vector<int> p(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
        for (int i = n - 1; i > 0; --i) {
            std::swap(p[static_cast<std::size_t>(i)],
                      p[static_cast<std::size_t>(between(0, i))]);
        }
        return p;
    }

private:
    std::mt19937_64 gen_;
};

/// The benchmark's own spans, kept in memory: one per call it makes into
/// a layer, with the span that caused it. Only traced rounds record;
/// otherwise a span costs one branch.
class Spans {
public:
    void enable(bool on) { on_ = on; }

    class Scope {
    public:
        Scope(Spans* owner, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Spans* owner_;
        std::size_t index_ = 0;
    };

    [[nodiscard]] Scope span(std::string name) {
        return Scope(on_ ? this : nullptr, std::move(name));
    }

    /// Self time (duration minus the part covered by child spans) summed
    /// per span name, in ms; then forgets the recorded spans.
    [[nodiscard]] std::map<std::string, double> take_self_ms();

private:
    struct Event {
        std::string name;
        std::size_t parent;  ///< index into events_, or kNoParent
        Clock::time_point start, end;
    };
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    bool on_ = false;
    std::vector<Event> events_;
    std::size_t open_ = kNoParent;
};

/// One round of a workload: its operations, their outcome, and what the
/// round measured. `parts` is always filled (wall time per mode);
/// `counts` and `layers` only in traced rounds.
struct Round {
    int ops = 0;
    int failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, double> parts;
    std::map<std::string, std::int64_t> counts;  ///< must repeat exactly for a seed
    std::map<std::string, double> layers;

    void fail(std::string what) {
        ++failed;
        if (errors.size() < 8) errors.push_back(std::move(what));
    }
};

/// Writes one record as a JSON line on stdout and flushes, so the harness
/// keeps every finished round even if the process dies later.
void emit(const Json& record);

/// A snapshot of the process-wide trace::counters registry, and how far
/// one counter advanced between two snapshots.
[[nodiscard]] std::map<std::string, std::int64_t> counter_values();
[[nodiscard]] std::int64_t delta(const std::map<std::string, std::int64_t>& before,
                                 const std::map<std::string, std::int64_t>& after,
                                 std::string_view name);

/// A workload: set up (repeatably), then rounds until the time is spent.
class Workload {
public:
    virtual ~Workload() = default;
    /// Builds every input from the seed; called several times per run so
    /// set-up time is reported as a median.
    virtual void setup(Json& info) = 0;
    virtual Round round(bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_compile_corpus(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_exec_kernels(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_seismic_medium(const Args& args);

}  // namespace perfbench
