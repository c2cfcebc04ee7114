// exec-kernels: six Mini-F kernels (perfbench/kernels/*.f), compiled once
// during set-up. Each round builds an interp::Machine per kernel and mode
// and runs every kernel three ways: serial, parallel (proven loops on the
// benchmark's threads) and speculative (a spec::Runtime gated by an
// observe-mode profile taken during set-up). The interp, spec and runtime
// fork/join layers do all their work here.
//
// Checks: every PRINT line equals a native C++ reference computed from
// the same generated deck, and the three modes print identical bytes.

#include <array>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "frontend/parser.hpp"
#include "interp/interp.hpp"
#include "spec/spec.hpp"

namespace perfbench {
namespace {

using namespace ap;

// Sizes; they must match the PARAMETERs of the kernel files (a mismatch
// shows as a reference mismatch on every run).
constexpr std::int64_t kJacobiN = 160, kJacobiSteps = 4;
constexpr std::int64_t kReduceN = 40000;
constexpr std::int64_t kPrivateM = 2000, kPrivateK = 8;
constexpr std::int64_t kGatherN = 20000;
constexpr std::int64_t kAliasN = 20000;
constexpr std::int64_t kConflictN = 20000;

using Deck = std::vector<std::int64_t>;

std::string print_line(std::initializer_list<double> values) {
    std::string line;
    for (double v : values) {
        if (!line.empty()) line += ' ';
        line += interp::format_value(v);
    }
    return line;
}

// --- native references --------------------------------------------------
// Each mirrors its kernel statement for statement, in the same evaluation
// order, so the doubles round identically.

std::string ref_jacobi(const Deck& d) {
    const std::int64_t n = kJacobiN, nt = d[0], a = d[1], b = d[2];
    std::vector<double> u(static_cast<std::size_t>(n * n)), v(u.size());
    auto at = [n](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>((j - 1) * n + (i - 1));
    };
    for (std::int64_t j = 1; j <= n; ++j) {
        for (std::int64_t i = 1; i <= n; ++i) {
            u[at(i, j)] = static_cast<double>((i * a + j * b) % 97) * 0.01;
            v[at(i, j)] = u[at(i, j)];
        }
    }
    for (std::int64_t t = 1; t <= nt; ++t) {
        for (std::int64_t j = 2; j <= n - 1; ++j) {
            for (std::int64_t i = 2; i <= n - 1; ++i) {
                v[at(i, j)] = 0.25 * (u[at(i - 1, j)] + u[at(i + 1, j)] + u[at(i, j - 1)] +
                                      u[at(i, j + 1)]);
            }
        }
        for (std::int64_t j = 2; j <= n - 1; ++j) {
            for (std::int64_t i = 2; i <= n - 1; ++i) u[at(i, j)] = v[at(i, j)];
        }
    }
    double s = 0.0;
    for (std::int64_t j = 1; j <= n; ++j) {
        double c = 0.0;
        for (std::int64_t i = 1; i <= n; ++i) c = c + u[at(i, j)];
        s = s + c;
    }
    return print_line({s, u[at(2, 2)], u[at(n / 2, n / 2)]});
}

std::string ref_reduce(const Deck& d) {
    const std::int64_t n = kReduceN, a = d[0], b = d[1];
    std::vector<double> x(static_cast<std::size_t>(n + 1)), y(x.size());
    for (std::int64_t i = 1; i <= n; ++i) {
        x[static_cast<std::size_t>(i)] = static_cast<double>((i * a) % 1009) * 0.001;
        y[static_cast<std::size_t>(i)] = static_cast<double>((i * b) % 997) * 0.002 - 1.0;
    }
    double s = 0.0;
    for (std::int64_t i = 1; i <= n; ++i) {
        s = s + x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
    }
    return print_line({s});
}

std::string ref_private(const Deck& d) {
    const std::int64_t m = kPrivateM, k = kPrivateK, a0 = d[0];
    std::vector<double> a(static_cast<std::size_t>(m * k)), w(static_cast<std::size_t>(k + 1)),
        r(static_cast<std::size_t>(m + 1));
    auto at = [k](std::int64_t i, std::int64_t j) {
        return static_cast<std::size_t>((j - 1) * k + (i - 1));
    };
    for (std::int64_t j = 1; j <= m; ++j) {
        for (std::int64_t i = 1; i <= k; ++i) {
            a[at(i, j)] = static_cast<double>((i * 31 + j * a0) % 113) * 0.05;
        }
    }
    for (std::int64_t j = 1; j <= m; ++j) {
        for (std::int64_t i = 1; i <= k; ++i) {
            w[static_cast<std::size_t>(i)] = a[at(i, j)] * a[at(i, j)] + 1.0;
        }
        double& rj = r[static_cast<std::size_t>(j)];
        rj = 0.0;
        for (std::int64_t i = 1; i <= k; ++i) {
            rj = rj + w[static_cast<std::size_t>(i)] * static_cast<double>(i);
        }
    }
    double s = 0.0;
    for (std::int64_t j = 1; j <= m; ++j) s = s + r[static_cast<std::size_t>(j)];
    return print_line({s, r[1], r[static_cast<std::size_t>(m)]});
}

/// IDX(I) = MOD(I * P, N) + 1, then (when Q > 0) every Q-th entry copies
/// the target of the iteration half the range away, so two iterations in
/// different speculative chunks update the same element.
std::vector<std::int64_t> scatter_targets(std::int64_t n, std::int64_t p, std::int64_t q) {
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n + 1));
    for (std::int64_t i = 1; i <= n; ++i) idx[static_cast<std::size_t>(i)] = (i * p) % n + 1;
    if (q > 0) {
        for (std::int64_t i = q; i <= n; i += q) {
            idx[static_cast<std::size_t>(i)] = idx[static_cast<std::size_t>((i + n / 2) % n + 1)];
        }
    }
    return idx;
}

std::string ref_gather(const Deck& d) {
    const std::int64_t n = kGatherN;
    const auto idx = scatter_targets(n, d[0], 0);
    std::vector<double> x(static_cast<std::size_t>(n + 1), 0.0), y(x.size());
    for (std::int64_t i = 1; i <= n; ++i) {
        y[static_cast<std::size_t>(i)] = static_cast<double>((i * 7) % 101) * 0.01;
    }
    for (std::int64_t i = 1; i <= n; ++i) {
        x[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])] =
            0.5 * y[static_cast<std::size_t>(i)] + 1.0;
    }
    double s = 0.0;
    for (std::int64_t i = 1; i <= n; ++i) {
        s = s + x[static_cast<std::size_t>(i)] * static_cast<double>(i);
    }
    return print_line({s, x[1], x[static_cast<std::size_t>(n)]});
}

std::string ref_alias(const Deck& d) {
    const std::int64_t n = kAliasN, a = d[0];
    std::vector<double> w(static_cast<std::size_t>(2 * n + 1));
    for (std::int64_t i = 1; i <= 2 * n; ++i) {
        w[static_cast<std::size_t>(i)] = static_cast<double>((i * a) % 1013) * 0.25;
    }
    for (std::int64_t i = 1; i <= n; ++i) {
        w[static_cast<std::size_t>(i)] = 2.0 * w[static_cast<std::size_t>(n + i)] + 1.0;
    }
    double s = 0.0;
    for (std::int64_t i = 1; i <= 2 * n; ++i) s = s + w[static_cast<std::size_t>(i)];
    return print_line({s, w[1], w[static_cast<std::size_t>(2 * n)]});
}

std::string ref_conflict(const Deck& d) {
    const std::int64_t n = kConflictN;
    const auto idx = scatter_targets(n, d[0], d[1]);
    std::vector<double> x(static_cast<std::size_t>(n + 1), 1.0), y(x.size());
    for (std::int64_t i = 1; i <= n; ++i) {
        y[static_cast<std::size_t>(i)] = static_cast<double>((i * 7) % 101) * 0.01;
    }
    for (std::int64_t i = 1; i <= n; ++i) {
        double& t = x[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
        t = t * 0.5 + y[static_cast<std::size_t>(i)];
    }
    double s = 0.0;
    for (std::int64_t i = 1; i <= n; ++i) {
        s = s + x[static_cast<std::size_t>(i)] * static_cast<double>(i);
    }
    return print_line({s, x[1], x[static_cast<std::size_t>(n)]});
}

/// A multiplier coprime with n (n = 2^a * 5^b here), so I -> MOD(I*P, N)
/// is a permutation.
std::int64_t coprime(Rng& rng, std::int64_t n) {
    for (;;) {
        const std::int64_t p = rng.between(3, n - 1);
        if (p % 2 != 0 && p % 5 != 0) return p;
    }
}

enum Mode { kSerial, kParallel, kSpec };
constexpr std::array<const char*, 3> kModeNames = {"serial", "parallel", "spec"};

struct Kernel {
    std::string name;
    bool maybe_parallel = false;  ///< has MaybeParallel loops: the speculation kernels
    Deck deck;                    ///< the measured input
    Deck profile_deck;            ///< the input the dependence profile is taken on
    std::int64_t iterations = 0;  ///< DO-loop iterations of one run, all nesting levels
    std::string expected;         ///< PRINT output of the native reference
    ir::Program program;
    spec::Profile profile;
};

class ExecKernels final : public Workload {
public:
    explicit ExecKernels(const Args& args) : args_(args) {}

    void setup(Json& info) override {
        Rng rng(args_.seed);
        kernels_.clear();
        const std::int64_t jn = kJacobiN, jm = kJacobiN - 2;
        add("jacobi", {kJacobiSteps, rng.between(1, 96), rng.between(1, 96)}, {},
            jn + jn * jn + kJacobiSteps * (1 + 2 * (jm + jm * jm)) + 2 * jn + jn * jn, ref_jacobi);
        add("reduce", {rng.between(2, 1008), rng.between(2, 996)}, {}, 2 * kReduceN, ref_reduce);
        add("private", {rng.between(1, 112)}, {},
            kPrivateM + kPrivateM * kPrivateK + kPrivateM * (1 + 2 * kPrivateK) + kPrivateM,
            ref_private);
        add("gather", {coprime(rng, kGatherN)}, {}, 3 * kGatherN, ref_gather);
        add("alias", {rng.between(2, 1012)}, {}, 5 * kAliasN, ref_alias);
        // A small, seeded fraction of colliding targets; profiled clean.
        const std::int64_t p = coprime(rng, kConflictN);
        const std::int64_t q = rng.between(kConflictN / 6, kConflictN / 4);
        add("conflict", {p, q}, {p, 0}, 3 * kConflictN + kConflictN / q, ref_conflict);

        const auto t0 = Clock::now();
        for (auto& k : kernels_) {
            if (!k.maybe_parallel) continue;
            interp::Machine m(k.program);
            interp::ExecutionOptions observe;
            observe.profile = &k.profile;
            (void)m.run(to_values(k.profile_deck.empty() ? k.deck : k.profile_deck), observe);
        }
        info.set("spec_profile_ms", ms_between(t0, Clock::now()));

        // Warm-up; a failing kernel fails again in every measured round.
        info.set("warmup_failed", round(false).failed);
    }

    Round round(bool traced) override {
        Round r;
        spans_.enable(traced);
        const auto before = traced ? counter_values() : std::map<std::string, std::int64_t>{};
        std::int64_t attempts = 0, commits = 0, rollbacks = 0, fallbacks = 0;
        std::array<double, 3> proven_ms{}, maybe_ms{};
        double serial_run_ms = 0;
        std::int64_t iterations = 0;
        for (auto& k : kernels_) {
            std::array<std::string, 3> out;
            for (int mode = kSerial; mode <= kSpec; ++mode) {
                ++r.ops;
                spec::Runtime rt;
                rt.profile = &k.profile;
                interp::ExecutionOptions opts;
                opts.parallel = mode != kSerial;
                opts.threads = args_.threads;
                if (mode == kSpec) opts.spec = &rt;
                const std::string tag = k.name + "." + kModeNames[static_cast<std::size_t>(mode)];
                const auto t0 = Clock::now();
                try {
                    auto op = spans_.span("exec." + tag);
                    std::unique_ptr<interp::Machine> m;
                    {
                        auto s = spans_.span("interp.machine_build");
                        m = std::make_unique<interp::Machine>(k.program);
                    }
                    auto s = spans_.span("interp." + tag);
                    const auto result = m->run(to_values(k.deck), opts);
                    for (const auto& line : result.output) {
                        out[static_cast<std::size_t>(mode)] += line + "\n";
                    }
                } catch (const std::exception& e) {
                    r.fail(tag + " threw: " + e.what());
                }
                const double ms = ms_between(t0, Clock::now());
                r.parts[kModeNames[static_cast<std::size_t>(mode)]] += ms;
                (k.maybe_parallel ? maybe_ms : proven_ms)[static_cast<std::size_t>(mode)] += ms;
                if (mode == kSerial) {
                    serial_run_ms += ms;
                    iterations += k.iterations;
                }
                if (out[static_cast<std::size_t>(mode)] != k.expected) {
                    r.fail(tag + " printed \"" + out[static_cast<std::size_t>(mode)] +
                           "\", native reference \"" + k.expected + "\"");
                }
                for (const auto& [loop, st] : rt.registry.all()) {
                    attempts += st.attempts;
                    commits += st.commits;
                    rollbacks += st.rollbacks;
                    fallbacks += st.fallen_back ? 1 : 0;
                }
            }
            if (out[kSerial] != out[kParallel] || out[kSerial] != out[kSpec]) {
                r.fail(k.name + ": serial, parallel and speculative output differ");
            }
        }
        if (!traced) return r;

        const auto after = counter_values();
        for (const auto& [name, ms] : spans_.take_self_ms()) {
            if (name.rfind("interp.", 0) == 0) r.layers[name + "_ms"] = ms;
        }
        r.layers["interp.serial_ns_per_iter"] =
            1e6 * serial_run_ms / static_cast<double>(iterations);
        r.layers["runtime.parallel_eff"] =
            proven_ms[kSerial] / (proven_ms[kParallel] * args_.threads);
        r.layers["spec.overhead_frac"] = maybe_ms[kSpec] / maybe_ms[kSerial];
        r.layers["spec.commit_frac"] =
            attempts ? static_cast<double>(commits) / static_cast<double>(attempts) : 0.0;
        r.counts["runtime.forks"] = delta(before, after, "runtime.parallel_for.forked");
        r.counts["spec.attempts"] = attempts;
        r.counts["spec.rollbacks"] = rollbacks;
        r.counts["spec.fallbacks"] = fallbacks;
        return r;
    }

private:
    static std::vector<interp::Value> to_values(const Deck& deck) {
        return {deck.begin(), deck.end()};
    }

    void add(std::string name, Deck deck, Deck profile_deck, std::int64_t iterations,
             std::string (*reference)(const Deck&)) {
        Kernel& k = kernels_.emplace_back();
        k.name = std::move(name);
        k.deck = std::move(deck);
        k.profile_deck = std::move(profile_deck);
        k.iterations = iterations;
        k.expected = reference(k.deck) + "\n";

        const std::string path = args_.data_dir + "/kernels/" + k.name + ".f";
        std::ifstream in(path);
        if (!in) throw std::runtime_error("cannot read " + path);
        std::stringstream src;
        src << in.rdbuf();
        k.program = frontend::parse(src.str(), k.name);
        const core::CompileReport report = core::compile(k.program);
        for (const auto& loop : report.loops) {
            k.maybe_parallel = k.maybe_parallel || loop.maybe_parallel;
        }
    }

    const Args& args_;
    Spans spans_;
    std::deque<Kernel> kernels_;  // a deque: Kernel (its Profile) cannot move
};

}  // namespace

std::unique_ptr<Workload> make_exec_kernels(const Args& args) {
    return std::make_unique<ExecKernels>(args);
}

}  // namespace perfbench
