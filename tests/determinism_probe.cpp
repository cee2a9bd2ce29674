// Cross-process determinism probe: runs IDR(4) over the full hot path (nnz-balanced spmv, fused BLAS-1, block-Jacobi apply with both
// LU backends, a strength-aggregated layout) and writes an FNV-1a hash of all solution bit patterns to
// argv[1]. CTest launches this binary under VBATCH_THREADS=1, 2, 3, 8 and
// 16 and compares the output files byte for byte -- the pool size is fixed at
// startup, so thread-count independence can only be proven across
// processes.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "base/random.hpp"
#include "precond/block_jacobi.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

namespace {

struct Fnv1a {
    std::uint64_t state = 0xcbf29ce484222325ULL;
    void add(const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }
    void add_vector(const std::vector<double>& v) {
        add(v.data(), v.size() * sizeof(double));
    }
};

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: determinism_probe <output-file>\n");
        return 2;
    }
    using namespace vbatch;

    // Skewed-nnz system spanning several BLAS-1 chunks so both the spmv
    // partition and the chunked reductions actually split.
    const index_type n = 12000;
    const auto a = sparse::circuit_like<double>(n, 5, 6, 300, 17);
    const auto nz = static_cast<std::size_t>(n);
    std::vector<double> b(nz);
    auto eng = make_engine(123);
    for (auto& v : b) {
        v = uniform(eng, -1.0, 1.0);
    }

    Fnv1a hash;
    for (const auto backend : {precond::BlockJacobiBackend::lu,
                               precond::BlockJacobiBackend::lu_simd}) {
        precond::BlockJacobiOptions popts;
        popts.backend = backend;
        popts.max_block_size = 16;
        const precond::BlockJacobi<double> prec(a, popts);

        solvers::IdrOptions opts;
        opts.max_iters = 80;
        opts.rel_tol = 1e-10;
        std::vector<double> x(nz, 0.0);
        const auto res = solvers::idr(a, std::span<const double>(b),
                                      std::span<double>(x), prec, opts);
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));
    }

    // Recovery: zeroed blocks degrade to the identity, and a block whose
    // first column is zeroed breaks down at step one with a scale to
    // boost by, so the boost -> fallback -> lane-repack chain runs on
    // both backends and must be bitwise independent of the thread count
    // too.
    {
        auto broken = a;
        const auto layout = blocking::supervariable_layout(
            broken, blocking::BlockingOptions{.max_block_size = 16});
        const size_type zeroed =
            blocking::make_blocks_singular(broken, *layout, 4);
        size_type boost = 1;
        while (layout->size(boost) < 2) {
            ++boost;
        }
        const auto r0 = static_cast<index_type>(layout->row_offset(boost));
        std::vector<double> vals(broken.values().begin(),
                                 broken.values().end());
        for (index_type i = r0; i < r0 + layout->size(boost); ++i) {
            const auto row = static_cast<std::size_t>(i);
            for (auto e = broken.row_ptrs()[row];
                 e < broken.row_ptrs()[row + 1]; ++e) {
                if (broken.col_idxs()[static_cast<std::size_t>(e)] == r0) {
                    vals[static_cast<std::size_t>(e)] = 0.0;
                }
            }
        }
        broken.set_values(std::span<const double>(vals));
        for (const auto backend : {precond::BlockJacobiBackend::lu,
                                   precond::BlockJacobiBackend::lu_simd}) {
            precond::BlockJacobiOptions popts;
            popts.backend = backend;
            popts.max_block_size = 16;
            popts.layout = layout;
            const precond::BlockJacobi<double> prec(broken, popts);
            const auto summary = prec.recovery_summary();
            if (summary.boosted != 1 ||
                summary.fell_back + summary.singular != zeroed) {
                std::fprintf(stderr,
                             "recovery section: expected 1 boosted and %lld "
                             "degraded blocks\n",
                             static_cast<long long>(zeroed));
                return 1;
            }
            for (size_type bi = 0; bi < prec.factors().count(); ++bi) {
                const auto v = prec.factors().view(bi);
                for (index_type c = 0; c < v.cols(); ++c) {
                    for (index_type r = 0; r < v.rows(); ++r) {
                        const double x = v(r, c);
                        hash.add(&x, sizeof(x));
                    }
                }
            }
            const auto& status = prec.block_status();
            hash.add(status.data(), status.size() * sizeof(status[0]));
            std::vector<double> z(nz, 0.0);
            prec.apply(std::span<const double>(b), std::span<double>(z));
            hash.add_vector(z);
        }
    }

    // Strength-aware layout: the rule's choice (its captured shares are
    // partial sums on the pool), the row-list apply and an IDR(4) solve
    // through it must not depend on the thread count, and refresh keeps
    // the layout.
    {
        const auto an = sparse::anisotropic_2d<double>(60, 60, 100.0, 2, 31);
        const auto blocks = blocking::choose_diagonal_blocks(
            an, blocking::BlockingOptions{.max_block_size = 32});
        if (!blocks.aggregated()) {
            std::fprintf(stderr, "layout section: expected aggregation\n");
            return 1;
        }
        const auto& sizes = blocks.layout->sizes();
        hash.add(sizes.data(), sizes.size() * sizeof(sizes[0]));
        hash.add(blocks.rows.data(),
                 blocks.rows.size() * sizeof(blocks.rows[0]));
        hash.add(&blocks.supervariable_coupling, sizeof(double));
        hash.add(&blocks.captured_coupling, sizeof(double));

        precond::BlockJacobiOptions popts;
        popts.backend = precond::BlockJacobiBackend::lu_simd;
        precond::BlockJacobi<double> prec(an, popts);
        const auto nn = static_cast<std::size_t>(an.num_rows());
        std::vector<double> rhs(nn);
        for (auto& v : rhs) {
            v = uniform(eng, -1.0, 1.0);
        }
        std::vector<double> x(nn, 0.0);
        const auto res = solvers::idr(an, std::span<const double>(rhs),
                                      std::span<double>(x), prec,
                                      solvers::IdrOptions{});
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));

        auto updated = an;
        std::vector<double> vals(an.values().begin(), an.values().end());
        for (auto& v : vals) {
            v *= 1.0 + 1e-3 * uniform(eng, -1.0, 1.0);
        }
        updated.set_values(std::span<const double>(vals));
        prec.refresh(updated);
        if (prec.symbolic()->rows != blocks.rows ||
            prec.layout().sizes() != sizes) {
            std::fprintf(stderr, "layout section: refresh moved the layout\n");
            return 1;
        }
        std::vector<double> z(nn, 0.0);
        prec.apply(std::span<const double>(rhs), std::span<double>(z));
        hash.add_vector(z);
    }

    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", argv[1]);
        return 2;
    }
    std::fprintf(out, "%016llx\n",
                 static_cast<unsigned long long>(hash.state));
    std::fclose(out);
    return 0;
}
