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

#include "tensor/ops.hpp"

namespace mvq {

/** Rows [r0, r1) of `a` as a standalone, validated CSR (row pointers
 *  rebased to the slice). */
inline SparseRowMatrix
rowSlice(const SparseRowMatrix &a, std::int64_t r0, std::int64_t r1)
{
    SparseRowMatrix s;
    s.rows = r1 - r0;
    s.cols = a.cols;
    const std::int64_t e0 = a.row_ptr[static_cast<std::size_t>(r0)];
    const std::int64_t e1 = a.row_ptr[static_cast<std::size_t>(r1)];
    for (std::int64_t r = r0; r <= r1; ++r)
        s.row_ptr.push_back(a.row_ptr[static_cast<std::size_t>(r)] - e0);
    s.col_idx.insert(s.col_idx.end(), a.col_idx.data() + e0,
                     a.col_idx.data() + e1);
    s.values.insert(s.values.end(), a.values.data() + e0,
                    a.values.data() + e1);
    validateSparseOperand(s);
    return s;
}

} // namespace mvq

#endif // MVQ_TESTS_CSR_TEST_UTIL_HPP
