/**
 * @file
 * Shared helper for the conv tests: one conv group's rows of a layer's
 * CSR as a standalone operand, the input of the per-group im2col +
 * gemmSparseARaw compositions the grouped direct conv is checked
 * against.
 */

#ifndef MVQ_TESTS_CSR_TEST_UTIL_HPP
#define MVQ_TESTS_CSR_TEST_UTIL_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"

namespace mvq {

/** Rows [r0, r1) of `a` as a standalone CSR (row pointers rebased to
 *  the slice). */
inline SparseRowMatrix
rowSlice(const SparseRowMatrix &a, std::int64_t r0, std::int64_t r1)
{
    const std::int64_t e0 = a.row_ptr[static_cast<std::size_t>(r0)];
    const std::int64_t e1 = a.row_ptr[static_cast<std::size_t>(r1)];
    std::vector<std::int64_t> row_ptr;
    for (std::int64_t r = r0; r <= r1; ++r)
        row_ptr.push_back(a.row_ptr[static_cast<std::size_t>(r)] - e0);
    return SparseRowMatrix::fromVectors(
        r1 - r0, a.cols, std::move(row_ptr),
        std::vector<std::int32_t>(a.col_idx.begin() + e0,
                                  a.col_idx.begin() + e1),
        std::vector<float>(a.values.begin() + e0, a.values.begin() + e1));
}

} // namespace mvq

#endif // MVQ_TESTS_CSR_TEST_UTIL_HPP
