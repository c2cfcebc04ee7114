// seismic-medium: the paper's Fig. 1 workload, as measured wall time. Each
// round runs the four phases (datagen, stack, fft3d, findiff) on
// Deck::medium() in all five flavors, in a seeded order; MPI runs on
// `threads` simulated ranks, the threaded flavors on `threads` workers.
// The seismic, simd and mpisim layers do all their work here.
//
// Checks: every shared-memory flavor's phase checksum is bit-identical to
// the value stored in perfbench/seismic_medium.expected. The MPI flavor
// folds the same data as per-rank (or per-shot) partial sums, a different
// summation order whose grouping depends on the rank count, so its
// checksum must match the stored value to a relative 1e-12 instead.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "fault/fault.hpp"
#include "seismic/seismic.hpp"

namespace perfbench {
namespace {

using namespace ap;
using seismic::Flavor;

constexpr std::array<const char*, 4> kPhases = {"datagen", "stack", "fft3d", "findiff"};
constexpr std::array<Flavor, 5> kFlavors = {Flavor::Serial, Flavor::Mpi, Flavor::OuterParallel,
                                            Flavor::AutoInner, Flavor::SpecPriv};
constexpr std::array<const char*, 5> kFlavorKeys = {"serial", "mpi", "openmp", "polaris",
                                                    "specpriv"};

using PhaseFn = seismic::PhaseResult (*)(const seismic::Deck&, Flavor, int,
                                         const seismic::FaultTolerance&);
constexpr std::array<PhaseFn, 4> kPhaseFns = {seismic::run_datagen, seismic::run_stack,
                                              seismic::run_fft3d, seismic::run_findiff};

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

class SeismicMedium final : public Workload {
public:
    explicit SeismicMedium(const Args& args) : args_(args) {}

    void setup(Json&) override {
        const std::string path = args_.data_dir + "/seismic_medium.expected";
        std::ifstream in(path);
        if (!in) throw std::runtime_error("cannot read " + path);
        for (std::size_t p = 0; p < kPhases.size(); ++p) {
            std::string phase, value;
            if (!(in >> phase >> value) || phase != kPhases[p]) {
                throw std::runtime_error(path + ": expected a line \"" + kPhases[p] +
                                         " <hexfloat>\"");
            }
            expected_[p] = std::strtod(value.c_str(), nullptr);
        }
        rng_ = Rng(args_.seed);
        deck_ = seismic::Deck::medium();
        // An inert injector: ambient AP_FAULT plans must not reach the run.
        ft_.injector = std::make_shared<fault::Injector>(fault::Plan{});
        // Warm-up on the small deck: thread pool, rank threads, allocator.
        for (Flavor f : kFlavors) {
            (void)seismic::run_suite(seismic::Deck::small(), f, nprocs(), ft_);
        }
    }

    Round round(bool traced) override {
        Round r;
        spans_.enable(traced);
        const auto before = traced ? counter_values() : std::map<std::string, std::int64_t>{};
        std::int64_t spec_attempts = 0, spec_commits = 0;
        for (int f : rng_.permutation(static_cast<int>(kFlavors.size()))) {
            const auto fi = static_cast<std::size_t>(f);
            ++r.ops;
            const auto t0 = Clock::now();
            try {
                for (std::size_t p = 0; p < kPhases.size(); ++p) {
                    const std::string tag = std::string(kPhases[p]) + "." + kFlavorKeys[fi];
                    seismic::PhaseResult res;
                    {
                        auto s = spans_.span("seismic." + tag);
                        res = kPhaseFns[p](deck_, kFlavors[fi], nprocs(), ft_);
                    }
                    const double want = expected_[p];
                    const bool ok = kFlavors[fi] == Flavor::Mpi
                                        ? std::fabs(res.checksum - want) <= 1e-12 * std::fabs(want)
                                        : res.checksum == want;
                    if (!ok) {
                        r.fail(tag + " checksum " + hex(res.checksum) + ", expected " +
                               hex(expected_[p]));
                    }
                    spec_attempts += res.spec_attempts;
                    spec_commits += res.spec_commits;
                }
            } catch (const std::exception& e) {
                r.fail(std::string(kFlavorKeys[fi]) + " threw: " + e.what());
            }
            r.parts[kFlavorKeys[fi]] = ms_between(t0, Clock::now());
        }
        if (!traced) return r;

        const auto after = counter_values();
        for (const auto& [name, ms] : spans_.take_self_ms()) r.layers[name + "_ms"] = ms;
        r.layers["seismic.specpriv.commit_frac"] =
            spec_attempts ? static_cast<double>(spec_commits) / static_cast<double>(spec_attempts)
                          : 0.0;
        for (const char* c : {"mpisim.messages", "mpisim.bytes", "mpi.retries", "mpi.timeouts"}) {
            r.counts[c] = delta(before, after, c);
        }
        return r;
    }

private:
    [[nodiscard]] int nprocs() const { return static_cast<int>(args_.threads); }

    const Args& args_;
    Spans spans_;
    Rng rng_{0};
    seismic::Deck deck_;
    seismic::FaultTolerance ft_;
    std::array<double, 4> expected_{};
};

}  // namespace

std::unique_ptr<Workload> make_seismic_medium(const Args& args) {
    return std::make_unique<SeismicMedium>(args);
}

}  // namespace perfbench
