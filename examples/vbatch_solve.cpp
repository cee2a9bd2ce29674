// Command-line solver: the "downstream user" entry point.
//
//   vbatch_solve [options]
//     --matrix <file.mtx>     Matrix Market input (default: a built-in
//                             convection-diffusion test problem)
//     --suite <case-name>     use a case from the 48-matrix suite instead
//     --precond <backend>     any registered preconditioner backend
//                             (none|jacobi|lu|lu-simd|gh|gh-t|gje|
//                              gje-inv|cholesky)        (default lu)
//     --block-size <1..32>    supervariable bound       (default 32)
//     --recovery strict|boost|full   breakdown policy   (default full)
//     --inject-singular <n>   zero n diagonal blocks before the setup
//                             (exercises the recovery pipeline)
//     --tol <rel. residual>   stopping tolerance        (default 1e-6)
//     --max-iters <n>         iteration budget          (default 10000)
//     --idr-s <s>             IDR shadow dimension      (default 4)
//
// Solves with IDR(s), prints a MAGMA-sparse-style convergence report plus
// the per-block recovery summary, and emits BENCH_vbatch_solve.json when
// VBATCH_BENCH_JSON is set.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blocking/extraction.hpp"
#include "blocking/supervariable.hpp"
#include "obs/bench_report.hpp"
#include "precond/config.hpp"
#include "solvers/config.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suite.hpp"

namespace vb = vbatch;

namespace {

struct Options {
    std::string matrix_file;
    std::string suite_case;
    std::string precond = "lu";
    std::string recovery = "full";
    vb::index_type block_size = 32;
    vb::size_type inject_singular = 0;
    double tol = 1e-6;
    vb::index_type max_iters = 10000;
    vb::index_type idr_s = 4;
};

[[noreturn]] void usage(const char* argv0) {
    const auto join = [](const std::vector<std::string>& names) {
        std::string out;
        for (const auto& name : names) {
            if (!out.empty()) {
                out += "|";
            }
            out += name;
        }
        return out;
    };
    const std::string backends = join(vb::precond::registered_backends());
    std::printf(
        "usage: %s [--matrix f.mtx | --suite case] "
        "[--precond %s] [--block-size n] "
        "[--recovery strict|boost|full] [--inject-singular n] [--tol t] "
        "[--max-iters n] [--idr-s s]\n",
        argv0, backends.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (arg == "--matrix") {
            o.matrix_file = next();
        } else if (arg == "--suite") {
            o.suite_case = next();
        } else if (arg == "--precond") {
            o.precond = next();
        } else if (arg == "--block-size") {
            o.block_size = std::atoi(next());
        } else if (arg == "--recovery") {
            o.recovery = next();
        } else if (arg == "--inject-singular") {
            o.inject_singular =
                static_cast<vb::size_type>(std::atoi(next()));
        } else if (arg == "--tol") {
            o.tol = std::atof(next());
        } else if (arg == "--max-iters") {
            o.max_iters = std::atoi(next());
        } else if (arg == "--idr-s") {
            o.idr_s = std::atoi(next());
        } else {
            usage(argv[0]);
        }
    }
    return o;
}

vb::precond::RecoveryPolicy recovery_policy(const Options& opts,
                                            const char* argv0) {
    if (opts.recovery == "strict") {
        return vb::precond::RecoveryPolicy::strict();
    }
    if (opts.recovery == "boost") {
        return vb::precond::RecoveryPolicy::boost_only();
    }
    if (opts.recovery == "full") {
        return {};
    }
    usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = parse(argc, argv);
    if (!vb::precond::backend_registered(opts.precond)) {
        usage(argv[0]);
    }
    try {
        // --- load / build the matrix ---
        vb::sparse::Csr<double> a = [&] {
            if (!opts.matrix_file.empty()) {
                std::printf("reading %s\n", opts.matrix_file.c_str());
                return vb::sparse::read_matrix_market_file<double>(
                    opts.matrix_file);
            }
            if (!opts.suite_case.empty()) {
                return vb::sparse::build_suite_matrix(
                    vb::sparse::suite_case_by_name(opts.suite_case));
            }
            return vb::sparse::convection_diffusion_2d<double>(64, 64, 4,
                                                               20.0, 1);
        }();
        std::printf("matrix: n = %d, nnz = %lld\n", a.num_rows(),
                    static_cast<long long>(a.nnz()));

        // --- preconditioner ---
        vb::precond::Config config;
        config.backend = opts.precond;
        config.max_block_size = opts.block_size;
        config.recovery = recovery_policy(opts, argv[0]);

        vb::size_type injected = 0;
        if (opts.inject_singular > 0) {
            // Zero the in-block values of evenly spaced diagonal blocks;
            // the pattern (and with it the supervariable layout) is
            // unchanged, so the setup sees genuinely singular blocks.
            config.layout = vb::blocking::supervariable_layout(
                a, vb::blocking::BlockingOptions{
                       .max_block_size = opts.block_size});
            injected = vb::blocking::make_blocks_singular(
                a, *config.layout, opts.inject_singular);
            std::printf("injected %lld singular diagonal blocks\n",
                        static_cast<long long>(injected));
        }

        const auto prec =
            vb::precond::make_preconditioner<double>(a, config);
        std::printf("preconditioner: %s (setup %.3f ms, %lld blocks)\n",
                    prec->name().c_str(), prec->setup_seconds() * 1e3,
                    static_cast<long long>(prec->num_blocks()));
        const auto recovery = prec->recovery_summary();
        if (recovery.total() > 0) {
            std::printf(
                "recovery: %lld ok, %lld boosted, %lld fell back, "
                "%lld singular (max pivot growth %.3g)\n",
                static_cast<long long>(recovery.ok),
                static_cast<long long>(recovery.boosted),
                static_cast<long long>(recovery.fell_back),
                static_cast<long long>(recovery.singular),
                recovery.max_growth);
        }

        // --- solve ---
        std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
        std::vector<double> x(b.size(), 0.0);
        vb::solvers::Config solver_config;
        solver_config.rel_tol = opts.tol;
        solver_config.max_iters = opts.max_iters;
        solver_config.idr_s = opts.idr_s;
        const auto solver =
            vb::solvers::make_solver<double>(solver_config);
        const auto result = solver->solve(a, std::span<const double>(b),
                                          std::span<double>(x), *prec);

        std::printf("idr(%d): %s after %d iterations, ||r||/||r0|| = %.3e, "
                    "solve %.3f ms, total %.3f ms\n",
                    opts.idr_s, to_string(result.status),
                    result.iterations, result.relative_residual(),
                    result.solve_seconds * 1e3,
                    (result.solve_seconds + prec->setup_seconds()) * 1e3);

        vb::obs::BenchReport report("vbatch_solve");
        report.config("solver", solver_config.method);
        report.config("precond", opts.precond);
        report.config("recovery", opts.recovery);
        report.config("n", a.num_rows());
        report.config("block_size", opts.block_size);
        report.config("injected_singular", injected);
        report.config("status", to_string(result.status));
        report.config("iterations", result.iterations);
        report.phase("setup", prec->setup_seconds());
        report.phase("solve", result.solve_seconds);
        report.write_if_enabled();

        return result.converged() ? 0 : 1;
    } catch (const vb::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
