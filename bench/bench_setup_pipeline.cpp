// Setup-pipeline benchmark: quantifies the symbolic/numeric split of the
// block-Jacobi setup on the Fig. 9 suite (block bound 32).
//
//   fused    fused gather+factorize setup        vs phased extract-then-
//            (one pass, no batch container)         batched-LU pipeline
//   refresh  numeric-only re-setup on new values vs full first-time setup
//            (cached gather plan)                   (blocking + plan + numeric)
//
// The phased reference runs monitored (collecting per-block FactorInfo),
// exactly like the recovery-enabled setup it stands in for. Only
// "speedup" series are emitted (ratios transfer across machines, so the
// regression gate can hold a committed baseline). The refreshed factors
// are verified bitwise against a fresh setup on the same values and the
// outcome lands in the config.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "bench_common.hpp"
#include "blocking/extraction.hpp"
#include "blocking/supervariable.hpp"
#include "core/getrf.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/suite.hpp"

namespace vb = vbatch;

namespace {

/// Best of `reps` passes; setup costs jitter less than they skew.
template <typename F>
double time_best(int reps, const F& f) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        vb::Timer t;
        f();
        best = std::min(best, t.seconds());
    }
    return best;
}

/// Same pattern, different values: deterministic per-entry perturbation.
std::vector<double> perturbed_values(const vb::sparse::Csr<double>& a) {
    std::vector<double> v(a.values().begin(), a.values().end());
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] *= 1.0 + 1e-3 * static_cast<double>(i % 7);
    }
    return v;
}

struct BackendTimes {
    double setup;
    double refresh;
    bool bitwise;
};

BackendTimes run_backend(const vb::sparse::Csr<double>& a,
                         const vb::sparse::Csr<double>& b,
                         vb::precond::BlockJacobiBackend backend,
                         vb::index_type block_bound, int reps) {
    vb::precond::BlockJacobiOptions opts;
    opts.backend = backend;
    opts.max_block_size = block_bound;
    const double t_setup = time_best(
        reps, [&] { vb::precond::BlockJacobi<double> prec(a, opts); });
    vb::precond::BlockJacobi<double> prec(a, opts);
    const double t_refresh = time_best(reps, [&] { prec.refresh(b); });

    // The refreshed preconditioner must equal a fresh one on `b` that
    // adopts the same symbolic (refresh keeps the layout).
    vb::precond::BlockJacobiOptions fresh_opts = opts;
    fresh_opts.symbolic = prec.symbolic();
    const vb::precond::BlockJacobi<double> fresh(b, fresh_opts);
    const auto nvals = static_cast<std::size_t>(prec.layout().total_values());
    const bool same =
        std::equal(prec.factors().data(), prec.factors().data() + nvals,
                   fresh.factors().data());
    return {t_setup, t_refresh, same};
}

}  // namespace

int main() {
    const bool quick = vb::bench::quick_mode();
    const int reps = quick ? 5 : 15;
    const vb::index_type block_bound = 32;

    // Arm the pool telemetry so the report's "pool" object carries real
    // utilization/imbalance numbers for the parallel setup passes.
    vb::ThreadPool::set_stats_enabled(true);

    std::printf("Block-Jacobi setup pipeline on the Fig. 9 suite "
                "(block bound %d, pool = %u threads).\n",
                static_cast<int>(block_bound),
                vb::ThreadPool::global().size());

    vb::obs::BenchReport report("setup_pipeline");
    report.config("quick", quick);
    report.config("block_bound", block_bound);
    report.config("threads",
                  static_cast<vb::size_type>(vb::ThreadPool::global().size()));

    const auto& cases = vb::sparse::suite_cases();
    bool bitwise = true;
    double min_refresh_speedup = 1e300;
    std::vector<std::pair<double, double>> fused_pts, lu_pts, simd_pts;
    vb::Timer total_timer;

    vb::bench::print_header(
        "Setup pipeline | fused vs phased, refresh vs setup");
    std::printf("%4s %-22s %10s %12s %12s %9s\n", "ID", "matrix", "fused x",
                "refresh lu", "refresh simd", "bitwise");

    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (quick && i % 4 != 0) {
            continue;
        }
        const auto& c = cases[i];
        const auto a = vb::sparse::build_suite_matrix(c);
        auto b = a;
        b.set_values(std::span<const double>(perturbed_values(a)));

        // Phased reference: the pre-split pipeline. Supervariable
        // blocking, extraction into an intermediate batch container,
        // then a separate monitored batched factorization over it.
        vb::blocking::BlockingOptions bopts;
        bopts.max_block_size = block_bound;
        vb::core::GetrfOptions gopts;
        gopts.on_singular = vb::core::SingularPolicy::report;
        gopts.monitor = true;
        const double t_phased = time_best(reps, [&] {
            const auto layout = vb::blocking::supervariable_layout(a, bopts);
            auto blocks = vb::blocking::extract_diagonal_blocks(a, layout);
            vb::core::BatchedPivots pivots(blocks.layout_ptr());
            (void)vb::core::getrf_batch(blocks, pivots, gopts);
        });

        const auto lu = run_backend(
            a, b, vb::precond::BlockJacobiBackend::lu, block_bound, reps);
        const auto simd = run_backend(
            a, b, vb::precond::BlockJacobiBackend::lu_simd, block_bound,
            reps);
        bitwise = bitwise && lu.bitwise && simd.bitwise;

        const double fused_speedup = t_phased / lu.setup;
        const double lu_speedup = lu.setup / lu.refresh;
        const double simd_speedup = simd.setup / simd.refresh;
        min_refresh_speedup =
            std::min({min_refresh_speedup, lu_speedup, simd_speedup});
        const auto id = static_cast<double>(c.id);
        fused_pts.emplace_back(id, fused_speedup);
        lu_pts.emplace_back(id, lu_speedup);
        simd_pts.emplace_back(id, simd_speedup);
        std::printf("%4d %-22s %10.2f %12.2f %12.2f %9s\n", c.id,
                    c.name.c_str(), fused_speedup, lu_speedup, simd_speedup,
                    lu.bitwise && simd.bitwise ? "yes" : "NO");
    }

    report.phase("measure", total_timer.seconds());
    report.series("setup/fused_vs_phased", "matrix_id", std::move(fused_pts),
                  "speedup");
    report.series("setup/refresh/lu", "matrix_id", std::move(lu_pts),
                  "speedup");
    report.series("setup/refresh/lu-simd", "matrix_id", std::move(simd_pts),
                  "speedup");
    report.config("bitwise_identical", bitwise);
    vb::obs::Registry::global().set("setup_pipeline.min_refresh_speedup",
                                    min_refresh_speedup);

    std::printf("minimum refresh speedup over the suite: %.2fx\n",
                min_refresh_speedup);
    std::printf("refresh bitwise identical to fresh setup: %s\n",
                bitwise ? "yes" : "NO");

    report.write_if_enabled();
    return bitwise ? 0 : 1;
}
