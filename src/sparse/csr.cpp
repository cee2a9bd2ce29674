#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"

namespace vbatch::sparse {

template <typename T>
Csr<T> Csr<T>::from_triplets(index_type num_rows, index_type num_cols,
                             std::vector<Triplet<T>> triplets) {
    VBATCH_ENSURE(num_rows >= 0 && num_cols >= 0, "negative dimension");
    for (const auto& t : triplets) {
        VBATCH_ENSURE(t.row >= 0 && t.row < num_rows && t.col >= 0 &&
                          t.col < num_cols,
                      "triplet out of bounds");
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet<T>& a, const Triplet<T>& b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    std::vector<size_type> row_ptrs(static_cast<std::size_t>(num_rows) + 1,
                                    0);
    std::vector<index_type> col_idxs;
    std::vector<T> values;
    col_idxs.reserve(triplets.size());
    values.reserve(triplets.size());
    for (std::size_t p = 0; p < triplets.size();) {
        const auto row = triplets[p].row;
        const auto col = triplets[p].col;
        T sum{};
        while (p < triplets.size() && triplets[p].row == row &&
               triplets[p].col == col) {
            sum += triplets[p].value;
            ++p;
        }
        col_idxs.push_back(col);
        values.push_back(sum);
        ++row_ptrs[static_cast<std::size_t>(row) + 1];
    }
    for (index_type i = 0; i < num_rows; ++i) {
        row_ptrs[static_cast<std::size_t>(i) + 1] +=
            row_ptrs[static_cast<std::size_t>(i)];
    }
    return Csr(num_rows, num_cols, std::move(row_ptrs), std::move(col_idxs),
               std::move(values));
}

template <typename T>
Csr<T>::Csr(index_type num_rows, index_type num_cols,
            std::vector<size_type> row_ptrs, std::vector<index_type> col_idxs,
            std::vector<T> values)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      row_ptrs_(std::move(row_ptrs)),
      col_idxs_(std::move(col_idxs)),
      values_(std::move(values)) {
    VBATCH_ENSURE(row_ptrs_.size() ==
                      static_cast<std::size_t>(num_rows_) + 1,
                  "row_ptrs size mismatch");
    VBATCH_ENSURE(col_idxs_.size() == values_.size(),
                  "col/value size mismatch");
    VBATCH_ENSURE(row_ptrs_.front() == 0 &&
                      row_ptrs_.back() ==
                          static_cast<size_type>(values_.size()),
                  "row_ptrs endpoints invalid");
    for (index_type i = 0; i < num_rows_; ++i) {
        const auto beg = row_ptrs_[static_cast<std::size_t>(i)];
        const auto end = row_ptrs_[static_cast<std::size_t>(i) + 1];
        VBATCH_ENSURE(beg <= end, "row_ptrs not monotone");
        for (auto p = beg; p + 1 < end; ++p) {
            VBATCH_ENSURE(col_idxs_[static_cast<std::size_t>(p)] <
                              col_idxs_[static_cast<std::size_t>(p) + 1],
                          "column indices not strictly increasing");
        }
    }
    reset_spmv_partition();
}

template <typename T>
void Csr<T>::build_spmv_partition(std::vector<size_type>& parts) const {
    parts.clear();
    parts.push_back(0);
    if (num_rows_ == 0) {
        return;
    }
    // More parts than pool participants so the dynamic chunk claiming in
    // parallel_for can still even out residual imbalance (a single part
    // can never be split, so a lone hub row bounds the critical path at
    // max(row_nnz, nnz/parts)).
    const auto target_parts = std::min<size_type>(
        num_rows_,
        static_cast<size_type>(8 * ThreadPool::global().size()));
    const size_type total = nnz();
    for (size_type p = 1; p < target_parts; ++p) {
        const size_type goal = total * p / target_parts;
        const auto it = std::lower_bound(row_ptrs_.begin(), row_ptrs_.end(),
                                         goal);
        const auto row = static_cast<size_type>(it - row_ptrs_.begin());
        if (row <= parts.back() || row >= num_rows_) {
            continue;  // keep boundaries strictly increasing
        }
        parts.push_back(row);
    }
    parts.push_back(num_rows_);
}

template <typename T>
void Csr<T>::set_values(std::span<const T> new_values) {
    VBATCH_ENSURE_DIMS(new_values.size() == values_.size());
    std::copy(new_values.begin(), new_values.end(), values_.begin());
    // Structure untouched: the cached spmv partition stays valid.
}

template <typename T>
void Csr<T>::drop_small_entries(T threshold) {
    std::vector<size_type> row_ptrs(row_ptrs_.size(), 0);
    std::size_t out = 0;
    for (index_type i = 0; i < num_rows_; ++i) {
        for (auto p = row_ptrs_[static_cast<std::size_t>(i)];
             p < row_ptrs_[static_cast<std::size_t>(i) + 1]; ++p) {
            if (std::abs(values_[static_cast<std::size_t>(p)]) > threshold) {
                col_idxs_[out] = col_idxs_[static_cast<std::size_t>(p)];
                values_[out] = values_[static_cast<std::size_t>(p)];
                ++out;
            }
        }
        row_ptrs[static_cast<std::size_t>(i) + 1] =
            static_cast<size_type>(out);
    }
    col_idxs_.resize(out);
    values_.resize(out);
    row_ptrs_ = std::move(row_ptrs);
    // nnz distribution changed; a stale partition would still be *correct*
    // (boundaries stay within [0, num_rows]) but unbalanced -- swap in a
    // fresh slot so the balance invariant survives structural edits.
    reset_spmv_partition();
}

template <typename T>
T Csr<T>::at(index_type i, index_type j) const {
    VBATCH_ENSURE(i >= 0 && i < num_rows_ && j >= 0 && j < num_cols_,
                  "index out of bounds");
    const auto beg = col_idxs_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptrs_[static_cast<std::size_t>(i)]);
    const auto end = col_idxs_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptrs_[static_cast<std::size_t>(i) + 1]);
    const auto it = std::lower_bound(beg, end, j);
    if (it != end && *it == j) {
        return values_[static_cast<std::size_t>(it - col_idxs_.begin())];
    }
    return T{};
}

template <typename T>
void Csr<T>::spmv(std::span<const T> x, std::span<T> y) const {
    spmv(T{1}, x, T{0}, y);
}

template <typename T>
void Csr<T>::spmv(T alpha, std::span<const T> x, T beta,
                  std::span<T> y) const {
    VBATCH_ENSURE_DIMS(static_cast<index_type>(x.size()) == num_cols_);
    VBATCH_ENSURE_DIMS(static_cast<index_type>(y.size()) == num_rows_);
    // Each iteration is one nnz-balanced part; every row is still summed
    // serially left-to-right, so y is bitwise independent of the partition
    // (and therefore of the thread count). The y := A x case runs its own
    // loop: the generic tail would stream the old y through every row (an
    // extra memory pass) and let a stale NaN in y poison the product via
    // 0 * y[i].
    const T* vals = values_.data();
    const index_type* cols = col_idxs_.data();
    const size_type* rows = row_ptrs_.data();
    const auto row_sum = [&](index_type i) {
        const auto beg = rows[static_cast<std::size_t>(i)];
        const auto end = rows[static_cast<std::size_t>(i) + 1];
        T acc{};
        // Unrolled by two with a single accumulator: the additions stay in
        // ascending-index order, so the sum is bitwise identical to the
        // textbook loop while the loop overhead halves.
        auto p = beg;
        for (; p + 1 < end; p += 2) {
            acc += vals[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(
                       cols[static_cast<std::size_t>(p)])];
            acc += vals[static_cast<std::size_t>(p) + 1] *
                   x[static_cast<std::size_t>(
                       cols[static_cast<std::size_t>(p) + 1])];
        }
        if (p < end) {
            acc += vals[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(
                       cols[static_cast<std::size_t>(p)])];
        }
        return acc;
    };
    const bool plain = alpha == T{1} && beta == T{};
    const auto parts = spmv_partition();
    const auto nparts = static_cast<size_type>(parts.size()) - 1;
    ThreadPool::global().parallel_for(
        0, nparts,
        [&](size_type part) {
            const auto row_beg = static_cast<index_type>(
                parts[static_cast<std::size_t>(part)]);
            const auto row_end = static_cast<index_type>(
                parts[static_cast<std::size_t>(part) + 1]);
            if (plain) {
                for (auto i = row_beg; i < row_end; ++i) {
                    y[static_cast<std::size_t>(i)] = row_sum(i);
                }
            } else {
                for (auto i = row_beg; i < row_end; ++i) {
                    y[static_cast<std::size_t>(i)] =
                        alpha * row_sum(i) +
                        beta * y[static_cast<std::size_t>(i)];
                }
            }
        },
        1);
}

template <typename T>
Csr<T> Csr<T>::transpose() const {
    std::vector<Triplet<T>> triplets;
    triplets.reserve(values_.size());
    for (index_type i = 0; i < num_rows_; ++i) {
        for (auto p = row_ptrs_[static_cast<std::size_t>(i)];
             p < row_ptrs_[static_cast<std::size_t>(i) + 1]; ++p) {
            triplets.push_back({col_idxs_[static_cast<std::size_t>(p)], i,
                                values_[static_cast<std::size_t>(p)]});
        }
    }
    return from_triplets(num_cols_, num_rows_, std::move(triplets));
}

template <typename T>
bool Csr<T>::is_symmetric(T tol) const {
    if (num_rows_ != num_cols_) {
        return false;
    }
    const auto t = transpose();
    if (t.col_idxs_ != col_idxs_ || t.row_ptrs_ != row_ptrs_) {
        return false;
    }
    for (std::size_t p = 0; p < values_.size(); ++p) {
        if (std::abs(values_[p] - t.values_[p]) > tol) {
            return false;
        }
    }
    return true;
}

template class Csr<float>;
template class Csr<double>;

}  // namespace vbatch::sparse
