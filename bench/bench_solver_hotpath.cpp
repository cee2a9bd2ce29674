// Solver hot-path benchmark: measures the per-iteration building blocks
// of the IDR(s) solver on a skewed-nnz matrix (the circuit-like stress
// case) and reports optimized-over-reference speedups.
//
//   spmv      nnz-balanced parallel CSR SpMV   vs serial row loop
//   blas1     IDR x/r update (axpy + fused     vs blas::ref axpy+axpy+nrm2
//             axpy_norm2)
//   apply     block-Jacobi lu_simd pooled      vs serial lu (1-lane) apply
//   iteration all three chained                vs all three reference
//
// Only "speedup" series are emitted (ratios survive machine changes far
// better than absolute GFLOPS, so the regression gate can hold a committed
// baseline); the effective bandwidths behind them land in the metrics
// registry and ride along in the JSON's gauges section, which the gate
// ignores. The optimized and reference paths are verified to produce
// bitwise-identical vectors and the outcome is recorded in the config.
#include <cstdio>
#include <vector>

#include "base/random.hpp"
#include "base/thread_pool.hpp"
#include "base/timer.hpp"
#include "bench_common.hpp"
#include "blas/blas1_ref.hpp"
#include "blas/fused.hpp"
#include "obs/metrics.hpp"
#include "obs/roofline.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"

namespace vb = vbatch;

namespace {

/// Serial textbook CSR SpMV -- the pre-optimization reference.
void spmv_ref(const vb::sparse::Csr<double>& a, const std::vector<double>& x,
              std::vector<double>& y) {
    const auto rp = a.row_ptrs();
    const auto ci = a.col_idxs();
    const auto va = a.values();
    const auto n = static_cast<std::size_t>(a.num_rows());
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (auto p = rp[i]; p < rp[i + 1]; ++p) {
            acc += va[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(ci[static_cast<std::size_t>(p)])];
        }
        y[i] = acc;
    }
}

/// Median-free robust timing: best of `reps` full passes.
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

struct PhaseResult {
    double speedup;
    double opt_gbs;
    bool bitwise;
};

}  // namespace

int main() {
    const bool quick = vb::bench::quick_mode();
    const vb::index_type n = quick ? 20000 : 120000;
    const int reps = quick ? 10 : 30;

    // Arm the pool telemetry so the report's "pool" object carries real
    // utilization/imbalance numbers for this run.
    vb::ThreadPool::set_stats_enabled(true);

    std::printf("Solver hot-path speedups on a skewed-nnz circuit-like "
                "matrix (n = %d, pool = %u threads).\n",
                static_cast<int>(n), vb::ThreadPool::global().size());

    vb::obs::BenchReport report("solver_hotpath");
    report.config("quick", quick);
    report.config("n", n);
    report.config("threads",
                  static_cast<vb::size_type>(vb::ThreadPool::global().size()));

    const auto a = vb::sparse::circuit_like<double>(n, 5, 8, 400, 11);
    const auto nz = static_cast<std::size_t>(n);
    auto eng = vb::make_engine(99);
    std::vector<double> xvec(nz), p(nz), q(nz);
    for (std::size_t i = 0; i < nz; ++i) {
        xvec[i] = vb::uniform(eng, -1.0, 1.0);
        p[i] = vb::uniform(eng, -1.0, 1.0);
        q[i] = vb::uniform(eng, -1.0, 1.0);
    }

    // Preconditioners: serial 1-lane apply (reference) vs interleaved SIMD
    // groups dispatched over the pool (optimized). Identical factors.
    vb::precond::BlockJacobiOptions ref_opts;
    ref_opts.backend = vb::precond::BlockJacobiBackend::lu;
    ref_opts.max_block_size = 16;
    ref_opts.parallel = false;
    const vb::precond::BlockJacobi<double> prec_ref(a, ref_opts);
    vb::precond::BlockJacobiOptions opt_opts;
    opt_opts.backend = vb::precond::BlockJacobiBackend::lu_simd;
    opt_opts.max_block_size = 16;
    const vb::precond::BlockJacobi<double> prec_opt(a, opt_opts);

    // Canonical byte models (core/bytes.hpp) shared with the solvers'
    // roofline attribution. The apply model includes the streamed
    // factors, not just r/z, so its GB/s is comparable across backends.
    const double spmv_bytes = vb::core::spmv_bytes<double>(n, a.nnz());
    const double blas1_bytes = 2.0 * vb::core::axpy_bytes<double>(n);
    const double apply_bytes = prec_opt.apply_bytes();

    bool bitwise = true;
    vb::Timer total_timer;

    // -- SpMV ---------------------------------------------------------
    std::vector<double> y_ref(nz), y_opt(nz);
    spmv_ref(a, xvec, y_ref);
    a.spmv(std::span<const double>(xvec), std::span<double>(y_opt));
    bitwise = bitwise && y_ref == y_opt;
    const double t_spmv_ref =
        time_best(reps, [&] { spmv_ref(a, xvec, y_ref); });
    const double t_spmv_opt = time_best(reps, [&] {
        a.spmv(std::span<const double>(xvec), std::span<double>(y_opt));
    });
    const PhaseResult spmv{t_spmv_ref / t_spmv_opt,
                           spmv_bytes / t_spmv_opt * 1e-9, y_ref == y_opt};

    // -- BLAS-1 (IDR iterate/residual update, idr.cpp) ----------------
    // x += alpha * u; r += (-alpha) * g; ||r||, with u = p and g = q.
    const double alpha = 0.125;
    std::vector<double> x1(xvec), r1(q), x2(xvec), r2(q);
    const double t_blas_ref = time_best(reps, [&] {
        vb::blas::ref::axpy(alpha, std::span<const double>(p),
                            std::span<double>(x1));
        vb::blas::ref::axpy(-alpha, std::span<const double>(q),
                            std::span<double>(r1));
        (void)vb::blas::ref::nrm2(std::span<const double>(r1));
    });
    const double t_blas_opt = time_best(reps, [&] {
        vb::blas::axpy(alpha, std::span<const double>(p),
                       std::span<double>(x2));
        (void)vb::blas::fused_axpy_norm2(-alpha, std::span<const double>(q),
                                         std::span<double>(r2));
    });
    // Both paths ran `reps` identical updates from the same start, so the
    // iterates must agree bitwise (chunked == textbook order per element).
    bitwise = bitwise && x1 == x2 && r1 == r2;
    const PhaseResult blas1{t_blas_ref / t_blas_opt,
                            blas1_bytes / t_blas_opt * 1e-9,
                            x1 == x2 && r1 == r2};

    // -- Block-Jacobi apply -------------------------------------------
    std::vector<double> z_ref(nz), z_opt(nz);
    prec_ref.apply(std::span<const double>(q), std::span<double>(z_ref));
    prec_opt.apply(std::span<const double>(q), std::span<double>(z_opt));
    bitwise = bitwise && z_ref == z_opt;
    const double t_apply_ref = time_best(reps, [&] {
        prec_ref.apply(std::span<const double>(q), std::span<double>(z_ref));
    });
    const double t_apply_opt = time_best(reps, [&] {
        prec_opt.apply(std::span<const double>(q), std::span<double>(z_opt));
    });
    const PhaseResult apply{t_apply_ref / t_apply_opt,
                            apply_bytes / t_apply_opt * 1e-9,
                            z_ref == z_opt};

    // -- Whole iteration ----------------------------------------------
    const double t_iter_ref = time_best(reps, [&] {
        spmv_ref(a, xvec, y_ref);
        vb::blas::ref::axpy(alpha, std::span<const double>(p),
                            std::span<double>(x1));
        vb::blas::ref::axpy(-alpha, std::span<const double>(y_ref),
                            std::span<double>(r1));
        (void)vb::blas::ref::nrm2(std::span<const double>(r1));
        prec_ref.apply(std::span<const double>(r1), std::span<double>(z_ref));
    });
    const double t_iter_opt = time_best(reps, [&] {
        a.spmv(std::span<const double>(xvec), std::span<double>(y_opt));
        vb::blas::axpy(alpha, std::span<const double>(p),
                       std::span<double>(x2));
        (void)vb::blas::fused_axpy_norm2(-alpha,
                                         std::span<const double>(y_opt),
                                         std::span<double>(r2));
        prec_opt.apply(std::span<const double>(r2), std::span<double>(z_opt));
    });
    const double iter_speedup = t_iter_ref / t_iter_opt;

    report.phase("measure", total_timer.seconds());

    auto& registry = vb::obs::Registry::global();
    registry.set("hotpath.spmv.gbs", spmv.opt_gbs);
    registry.set("hotpath.blas1.gbs", blas1.opt_gbs);
    registry.set("hotpath.apply.gbs", apply.opt_gbs);
    registry.set("hotpath.spmv.ref_seconds", t_spmv_ref);
    registry.set("hotpath.spmv.opt_seconds", t_spmv_opt);
    registry.set("hotpath.blas1.ref_seconds", t_blas_ref);
    registry.set("hotpath.blas1.opt_seconds", t_blas_opt);
    registry.set("hotpath.apply.ref_seconds", t_apply_ref);
    registry.set("hotpath.apply.opt_seconds", t_apply_opt);

    const double xn = static_cast<double>(n);
    report.series("hotpath/spmv", "n", {{xn, spmv.speedup}}, "speedup");
    report.series("hotpath/blas1", "n", {{xn, blas1.speedup}}, "speedup");
    report.series("hotpath/apply", "n", {{xn, apply.speedup}}, "speedup");
    report.series("hotpath/iteration", "n", {{xn, iter_speedup}}, "speedup");
    report.config("bitwise_identical", bitwise);

    // Roofline accounting against the host's measured (or overridden)
    // STREAM-triad ceiling: one traffic family + one series quartet per
    // measured hot-path kernel.
    const double roof = vb::obs::machine_roof_gbs();
    struct Family {
        const char* name;
        double flops;
        double bytes;
        double seconds;
    };
    const Family families[] = {
        {"spmv", 2.0 * static_cast<double>(a.nnz()), spmv_bytes,
         t_spmv_opt},
        {"blas1", 6.0 * static_cast<double>(nz), blas1_bytes, t_blas_opt},
        {"apply", prec_opt.apply_flops(), apply_bytes, t_apply_opt},
    };
    for (const auto& f : families) {
        registry.record_traffic(std::string("hotpath.") + f.name, f.flops,
                                f.bytes, f.seconds, 1, roof);
        const double gflops =
            f.seconds > 0.0 ? f.flops / f.seconds * 1e-9 : 0.0;
        const double gbs =
            f.seconds > 0.0 ? f.bytes / f.seconds * 1e-9 : 0.0;
        const double ai = f.bytes > 0.0 ? f.flops / f.bytes : 0.0;
        const std::string base = std::string("roofline/hotpath/") + f.name;
        report.series(base + "/gflops", "n", {{xn, gflops}}, "gflops");
        report.series(base + "/bandwidth_gbs", "n", {{xn, gbs}}, "gbs");
        report.series(base + "/arithmetic_intensity", "n", {{xn, ai}},
                      "flops_per_byte");
        report.series(base + "/fraction_of_roof", "n",
                      {{xn, roof > 0.0 ? gbs / roof : 0.0}}, "fraction");
    }

    vb::bench::print_header("Solver hot path | optimized / reference");
    std::printf("%12s  %10s  %12s\n", "phase", "speedup", "opt GB/s");
    std::printf("%12s  %10.2f  %12.2f\n", "spmv", spmv.speedup, spmv.opt_gbs);
    std::printf("%12s  %10.2f  %12.2f\n", "blas1", blas1.speedup,
                blas1.opt_gbs);
    std::printf("%12s  %10.2f  %12.2f\n", "apply", apply.speedup,
                apply.opt_gbs);
    std::printf("%12s  %10.2f  %12s\n", "iteration", iter_speedup, "-");
    std::printf("bitwise identical to reference: %s\n",
                bitwise ? "yes" : "NO");

    report.write_if_enabled();
    return bitwise ? 0 : 1;
}
