/**
 * @file
 * Owned-or-borrowed storage for sparse-operand arrays. The packed gemm
 * operand (SparseRowMatrix) historically owned its arrays as
 * std::vectors, which forces every serving process to rebuild them from
 * the bit-packed model stream at startup. The MVQI
 * model image (core/io) instead stores the packed arrays verbatim, so a
 * loaded operand can *alias* the mmap'ed file directly — zero copies,
 * zero decode, and N processes share one page-cached image. OperandArray
 * is the storage type that makes both modes share one struct definition.
 */

#ifndef MVQ_TENSOR_OPERAND_ARRAY_HPP
#define MVQ_TENSOR_OPERAND_ARRAY_HPP

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace mvq {

/**
 * A dynamic array that is either *owned* (backed by a std::vector — the
 * result of packing an operand at runtime) or *borrowed* (a read-only
 * span over memory something else owns — e.g. one 64-byte-aligned
 * section of an MVQI model image; see core/io/model_artifact).
 *
 * The read API (const data()/size()/operator[]/iteration) works in both
 * modes and is what every gemm driver uses — drivers take operands by
 * const reference, so the hot path never copies. The mutating API
 * (push_back, resize, non-const data(), ...) is the builder surface:
 * invoking any of it on a borrowed array first detaches it into owned
 * storage (copy-on-write), so mutation is always safe but never cheap on
 * a borrowed operand — by design, since mutating a serving image's
 * operand would defeat the sharing.
 *
 * The borrowed bytes must stay valid for the lifetime of the borrowing
 * array; the owner (e.g. the ModelArtifact that holds the image) is
 * responsible for that, see io::ModelArtifact::packedOperands for the
 * lifetime-safe packaging.
 */
template <typename T>
class OperandArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "OperandArray elements must be trivially copyable "
                  "(they alias raw image bytes)");

  public:
    OperandArray() = default;
    OperandArray(std::initializer_list<T> init) : owned_(init) {}

    /** Borrow [data, data + count) without copying or taking ownership. */
    static OperandArray
    borrow(const T *data, std::int64_t count)
    {
        OperandArray a;
        a.bdata_ = data;
        a.bsize_ = count;
        a.borrowed_ = true;
        return a;
    }

    OperandArray &
    operator=(std::initializer_list<T> init)
    {
        owned_.assign(init);
        borrowed_ = false;
        bdata_ = nullptr;
        bsize_ = 0;
        return *this;
    }

    /** True when this array aliases externally owned memory. */
    bool borrowed() const { return borrowed_; }

    const T *data() const { return borrowed_ ? bdata_ : owned_.data(); }
    T *data() { ensureOwned(); return owned_.data(); }

    std::size_t
    size() const
    {
        return borrowed_ ? static_cast<std::size_t>(bsize_) : owned_.size();
    }
    bool empty() const { return size() == 0; }

    const T &operator[](std::size_t i) const { return data()[i]; }
    T &operator[](std::size_t i) { ensureOwned(); return owned_[i]; }

    const T &front() const { return data()[0]; }
    const T &back() const { return data()[size() - 1]; }
    T &back() { ensureOwned(); return owned_.back(); }

    const T *begin() const { return data(); }
    const T *end() const { return data() + size(); }
    T *begin() { ensureOwned(); return owned_.data(); }
    T *end() { ensureOwned(); return owned_.data() + owned_.size(); }

    void reserve(std::size_t n) { ensureOwned(); owned_.reserve(n); }
    void resize(std::size_t n) { ensureOwned(); owned_.resize(n); }
    void clear() { owned_.clear(); borrowed_ = false; bdata_ = nullptr; bsize_ = 0; }

    void push_back(const T &v) { ensureOwned(); owned_.push_back(v); }

    /** vector::insert restricted to pointers into this array. */
    template <typename It>
    void
    insert(const T *pos, It first, It last)
    {
        ensureOwned();
        const auto idx = pos - owned_.data();
        owned_.insert(owned_.begin() + idx, first, last);
    }

    friend bool
    operator==(const OperandArray &x, const OperandArray &y)
    {
        return x.size() == y.size()
            && std::equal(x.begin(), x.end(), y.begin());
    }

  private:
    /** Detach a borrowed span into owned storage (copy-on-write). */
    void
    ensureOwned()
    {
        if (borrowed_) {
            owned_.assign(bdata_, bdata_ + bsize_);
            borrowed_ = false;
            bdata_ = nullptr;
            bsize_ = 0;
        }
    }

    std::vector<T> owned_;
    const T *bdata_ = nullptr;
    std::int64_t bsize_ = 0;
    bool borrowed_ = false;
};

} // namespace mvq

#endif // MVQ_TENSOR_OPERAND_ARRAY_HPP
