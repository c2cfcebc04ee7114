// compile-corpus: the paper's Fig. 2 workload. One operation parses the
// five corpus programs and compiles them with core::compile_many, analysis
// cache on; a round is one such batch on the benchmark's threads and one
// on a single thread. The seed permutes the job order of every round. The
// dependence, symbolic and sched layers do nearly all their work here and
// none in the other workloads.
//
// Checks: each program's Fig. 5 target histogram equals the corpus's
// hand-written expectation, and its verdict fingerprint never changes
// from one batch to the next.

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "corpus/corpus.hpp"
#include "frontend/parser.hpp"
#include "trace/digest.hpp"

namespace perfbench {
namespace {

using namespace ap;

/// Metric-name suffix per pass (core::PassId order; fission, off by
/// default, is folded into "other").
constexpr const char* kPassKeys[core::kPassCount] = {
    "ddtest", "privatization", "induction", "inline", "gsa", "constprop", "reduction",
    "other",  "other"};

/// Metric-name key per program, in corpus::all() order.
constexpr const char* kProgramKeys[] = {"seismic", "gamess", "sander", "perfect", "linpack"};

std::uint64_t verdict_fingerprint(const core::CompileReport& r) {
    std::uint64_t h = trace::kFnv1aOffset;
    for (const auto& loop : r.loops) {
        h = trace::fnv1a_field(h, std::to_string(loop.loop_id));
        h = trace::fnv1a_field(h, loop.parallel ? "P" : loop.maybe_parallel ? "M" : "S");
        h = trace::fnv1a_field(h, ir::to_string(loop.verdict));
        for (const auto& p : loop.privates) h = trace::fnv1a_field(h, p);
        for (const auto& red : loop.reductions) h = trace::fnv1a_field(h, red);
    }
    return h;
}

class CompileCorpus final : public Workload {
public:
    explicit CompileCorpus(const Args& args) : args_(args) {}

    void setup(Json& info) override {
        corpora_ = corpus::all();
        if (corpora_.size() != std::size(kProgramKeys)) {
            throw std::runtime_error("compile-corpus expects the five corpus programs");
        }
        rng_ = Rng(args_.seed);
        fingerprints_.assign(corpora_.size(), 0);
        // Warm-up: one round fills the thread pool and the allocator, and
        // pins the verdict fingerprints every later batch must match.
        info.set("warmup_failed", round(false).failed);
    }

    /// The batch on the benchmark's threads, then the same batch on one
    /// thread: the paper's serial compile, and the steadier of the two
    /// timings on a shared host.
    Round round(bool traced) override {
        Round r;
        spans_.enable(traced);
        const std::vector<int> order = rng_.permutation(static_cast<int>(corpora_.size()));
        const auto before = traced ? counter_values() : std::map<std::string, std::int64_t>{};
        const auto t0 = Clock::now();
        const std::vector<core::CompileReport> reports = batch(order, args_.threads, r);
        const auto t1 = Clock::now();
        spans_.enable(false);
        (void)batch(order, 1, r);
        r.parts["serial"] = ms_between(t1, Clock::now());
        r.parts["batch"] = ms_between(t0, t1);
        if (!traced || reports.empty()) return r;

        const auto after = counter_values();
        core::PassTimes passes;
        sched::CacheStats cache;
        double busy_s = 0;
        std::int64_t ops = 0, pairs = 0, incidents = 0;
        for (std::size_t j = 0; j < reports.size(); ++j) {
            const auto& rep = reports[j];
            passes += rep.times;
            cache += rep.cache;
            busy_s += rep.total_seconds();
            incidents += static_cast<std::int64_t>(rep.incidents.size());
            for (const auto& loop : rep.loops) {
                ops += static_cast<std::int64_t>(loop.symbolic_ops);
                pairs += loop.pairs_tested;
            }
            r.layers[std::string("core.compile_ms.") + kProgramKeys[order[j]]] =
                1e3 * rep.total_seconds();
        }
        for (int p = 0; p < core::kPassCount; ++p) {
            r.layers[std::string("core.pass.") + kPassKeys[p] + "_ms"] +=
                1e3 * passes.seconds[static_cast<std::size_t>(p)];
        }
        r.layers["frontend.parse_ms"] = spans_.take_self_ms()["frontend.parse"];
        r.counts["dependence.symbolic_ops"] = ops;
        r.counts["dependence.pairs_tested"] = pairs;
        r.counts["sched.queries"] = static_cast<std::int64_t>(cache.queries());
        r.counts["guard.incidents"] = incidents;
        // The counter deltas span both batches; the ratio is unaffected.
        const std::int64_t tested = delta(before, after, "ddtest.pairs_tested");
        r.layers["dependence.gave_up_frac"] =
            tested ? static_cast<double>(delta(before, after, "ddtest.gave_up")) /
                         static_cast<double>(tested)
                   : 0.0;
        r.layers["sched.cache_hit_frac"] = cache.hit_rate();
        r.layers["sched.fanout_eff"] = busy_s / (ms_between(t0, t1) / 1e3 * args_.threads);
        return r;
    }

private:
    /// One operation: parse the programs in `order` and compile_many them
    /// on `threads`, then check every report. Returns the reports in
    /// `order` (empty when the batch threw).
    std::vector<core::CompileReport> batch(const std::vector<int>& order, unsigned threads,
                                           Round& r) {
        ++r.ops;
        std::vector<ir::Program> programs;
        std::vector<core::CompilerOptions> options;
        std::vector<core::CompileReport> reports;
        try {
            for (int c : order) {
                const auto& cp = *corpora_[static_cast<std::size_t>(c)];
                auto s = spans_.span("frontend.parse");
                programs.push_back(frontend::parse(cp.source, cp.name));
                core::CompilerOptions o;
                o.loop_op_budget = cp.loop_op_budget;
                o.threads = threads;
                options.push_back(o);
            }
            auto s = spans_.span("core.compile_many");
            reports = core::compile_many(programs, options);
        } catch (const std::exception& e) {
            r.fail(std::string("compile batch threw: ") + e.what());
            return {};
        }
        std::size_t statements = 0;
        for (std::size_t j = 0; j < reports.size(); ++j) {
            const std::size_t c = static_cast<std::size_t>(order[j]);
            const auto& rep = reports[j];
            statements += rep.statements;
            if (rep.target_histogram() != corpora_[c]->expected_targets) {
                r.fail(corpora_[c]->name + ": Fig. 5 target histogram differs from expected");
            }
            const std::uint64_t fp = verdict_fingerprint(rep);
            if (fingerprints_[c] == 0) fingerprints_[c] = fp;
            if (fp != fingerprints_[c]) r.fail(corpora_[c]->name + ": verdict fingerprint changed");
        }
        r.parts["stmts"] += static_cast<double>(statements);
        return reports;
    }

    const Args& args_;
    Spans spans_;
    Rng rng_{0};
    std::vector<const corpus::CorpusProgram*> corpora_;
    std::vector<std::uint64_t> fingerprints_;
};

}  // namespace

std::unique_ptr<Workload> make_compile_corpus(const Args& args) {
    return std::make_unique<CompileCorpus>(args);
}

}  // namespace perfbench
