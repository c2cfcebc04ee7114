// Benchmark runner: runs one workload for a fixed time and streams one
// JSON record per line (host, each set-up, each round, end). The harness,
// perfbench/run.py, builds this program, aggregates the records and
// prints the metrics; see BENCHMARK.json for the workloads.
//
//   perfbench --workload compile-corpus|exec-kernels|seismic-medium
//             --seed N --seconds S --trace 0|1 --data DIR

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "runtime/parallel_for.hpp"
#include "simd/simd.hpp"
#include "trace/counters.hpp"

namespace perfbench {

Spans::Scope::Scope(Spans* owner, std::string name) : owner_(owner) {
    if (!owner_) return;
    index_ = owner_->events_.size();
    owner_->events_.push_back({std::move(name), owner_->open_, Clock::now(), {}});
    owner_->open_ = index_;
}

Spans::Scope::~Scope() {
    if (!owner_) return;
    Event& e = owner_->events_[index_];
    e.end = Clock::now();
    owner_->open_ = e.parent;
}

std::map<std::string, double> Spans::take_self_ms() {
    std::vector<double> self(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const double d = ms_between(events_[i].start, events_[i].end);
        self[i] += d;
        if (events_[i].parent != kNoParent) self[events_[i].parent] -= d;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < events_.size(); ++i) by_name[events_[i].name] += self[i];
    events_.clear();
    open_ = kNoParent;
    return by_name;
}

void emit(const Json& record) {
    const std::string line = record.dump();
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

std::map<std::string, std::int64_t> counter_values() {
    std::map<std::string, std::int64_t> out;
    const Json snap = ap::trace::counters::snapshot();
    if (const auto* obj = snap.as_object()) {
        for (const auto& [name, v] : *obj) {
            if (v.is_number()) out[name] = v.as_int();
        }
    }
    return out;
}

std::int64_t delta(const std::map<std::string, std::int64_t>& before,
                   const std::map<std::string, std::int64_t>& after, std::string_view name) {
    const auto a = after.find(std::string(name));
    if (a == after.end()) return 0;
    const auto b = before.find(std::string(name));
    return a->second - (b == before.end() ? 0 : b->second);
}

namespace {

constexpr int kSetups = 5;

/// A fixed piece of native work that calls no code of the parallelizer:
/// string keys into an ordered map, a sort, and a floating-point
/// smoothing sweep. Returns a checksum that never changes.
std::uint64_t calibration_work() {
    std::map<std::string, std::uint64_t> keys;
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t i = 0; i < 6000; ++i) {
        h = (h ^ i) * 1099511628211ull;
        keys[std::to_string(h % 100003)] += i;
    }
    std::vector<std::uint64_t> v;
    v.reserve(keys.size());
    for (const auto& [k, x] : keys) v.push_back((x * 2654435761ull) ^ k.size());
    std::sort(v.begin(), v.end());
    std::vector<double> a(8192), b(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i % 97) * 0.01;
    for (int t = 0; t < 40; ++t) {
        for (std::size_t i = 1; i + 1 < a.size(); ++i) {
            b[i] = 0.25 * (a[i - 1] + 2 * a[i] + a[i + 1]);
        }
        std::swap(a, b);
    }
    std::uint64_t sum = v.size();
    for (std::size_t i = 0; i < v.size(); i += 97) sum = sum * 31 + v[i];
    double s = 0;
    for (double x : a) s += x;
    return sum ^ static_cast<std::uint64_t>(s * 1e6);
}

/// The host's speed right now: wall time in ms of calibration_work() run
/// once on each of `threads` threads at the same time (the calling thread
/// is one of them). A checksum that moves fails the round `r`.
double calibrate(unsigned threads, std::uint64_t expected, Round& r) {
    std::vector<std::uint64_t> sums(threads);
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> others;
        for (unsigned t = 1; t < threads; ++t) {
            others.emplace_back([&sums, t] { sums[t] = calibration_work(); });
        }
        sums[0] = calibration_work();
    }
    const double ms = ms_between(t0, Clock::now());
    for (std::uint64_t s : sums) {
        if (s != expected) r.fail("calibration checksum changed");
    }
    return ms;
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* k = argv[i];
        const char* v = argv[i + 1];
        if (std::strcmp(k, "--workload") == 0) args.workload = v;
        else if (std::strcmp(k, "--seed") == 0) args.seed = std::strtoull(v, nullptr, 10);
        else if (std::strcmp(k, "--seconds") == 0) args.seconds = std::strtod(v, nullptr);
        else if (std::strcmp(k, "--trace") == 0) args.trace = std::strcmp(v, "0") != 0;
        else if (std::strcmp(k, "--data") == 0) args.data_dir = v;
        else return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && !args.data_dir.empty() && args.seconds > 0;
}

template <typename Map>
Json to_json(const Map& m) {
    Json out = Json::object();
    for (const auto& [k, v] : m) out.set(k, v);
    return out;
}

int run(const Args& args) {
    std::unique_ptr<Workload> w;
    if (args.workload == "compile-corpus") w = make_compile_corpus(args);
    else if (args.workload == "exec-kernels") w = make_exec_kernels(args);
    else if (args.workload == "seismic-medium") w = make_seismic_medium(args);
    else {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    Json host = Json::object();
    host.set("ev", "host");
    host.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    host.set("threads", static_cast<std::int64_t>(args.threads));
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("compiler", PERFBENCH_COMPILER);
    host.set("simd_width", ap::simd::enabled() ? ap::simd::kLanes : 1);
    emit(host);

    for (int s = 0; s < kSetups; ++s) {
        Json info = Json::object();
        const auto t0 = Clock::now();
        w->setup(info);
        const double sec = ms_between(t0, Clock::now()) / 1e3;
        info.set("ev", "setup");
        info.set("s", sec);
        emit(info);
    }

    // Calibration on one thread and on the workload's threads, before the
    // first round and after every round; a round is normalized by the mean
    // of the two around it (run.py), so host-speed drift cancels.
    const std::uint64_t cal_sum = calibration_work();
    Round unused;
    double cal_before = calibrate(1, cal_sum, unused);
    double cal_par_before = calibrate(args.threads, cal_sum, unused);
    const auto start = Clock::now();
    for (int i = 0; ms_between(start, Clock::now()) < 1e3 * args.seconds; ++i) {
        // A traced run alternates traced and untraced rounds, so the
        // tracing overhead is measured under the same conditions.
        const bool traced = args.trace && i % 2 == 0;
        const auto t0 = Clock::now();
        Round r = w->round(traced);
        const double ms = ms_between(t0, Clock::now());
        const double cal_after = calibrate(1, cal_sum, r);
        const double cal_par_after = calibrate(args.threads, cal_sum, r);
        Json rec = Json::object();
        rec.set("ev", "round");
        rec.set("traced", traced);
        rec.set("ms", ms);
        rec.set("cal_ms", 0.5 * (cal_before + cal_after));
        rec.set("cal_par_ms", 0.5 * (cal_par_before + cal_par_after));
        cal_before = cal_after;
        cal_par_before = cal_par_after;
        rec.set("ops", r.ops);
        rec.set("failed", r.failed);
        Json errors = Json::array();
        for (auto& e : r.errors) errors.push_back(std::move(e));
        rec.set("errors", std::move(errors));
        rec.set("parts", to_json(r.parts));
        if (traced) {
            rec.set("counts", to_json(r.counts));
            rec.set("layers", to_json(r.layers));
        }
        emit(rec);
    }

    Json end = Json::object();
    end.set("ev", "end");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    end.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    if (args.trace) {
        end.set("fork_join_us", 1e6 * ap::runtime::measure_fork_join_overhead(args.threads, 400));
    }
    emit(end);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR\n");
        return 2;
    }
    args.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
