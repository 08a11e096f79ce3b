/**
 * @file
 * Binary serialization of compressed models — the deployment artifact
 * the accelerator's weight loader consumes. The format packs exactly
 * the bits the storage accounting charges: assignments at
 * ceil(log2 k) bits, mask codes at ceil(log2 C(M,N)) bits, and int8
 * codewords, so the file size matches Eq. 7 up to header overhead.
 */

#ifndef MVQ_CORE_SERIALIZE_HPP
#define MVQ_CORE_SERIALIZE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/compressed_layer.hpp"

namespace mvq::core {

/** First 32 bits of a bit-packed model stream ("MVQ1" little-endian). */
constexpr std::uint32_t kStreamMagic = 0x4d565131;

/** Append an arbitrary-width little-endian bitfield to a bit stream. */
class BitWriter
{
  public:
    /** Append the low `bits` bits of value. */
    void put(std::uint64_t value, int bits);

    /** Pad to a byte boundary and return the buffer. */
    std::vector<std::uint8_t> finish();

    /** Bits written so far (before padding). */
    std::int64_t bitCount() const { return bit_count; }

  private:
    std::vector<std::uint8_t> bytes;
    int bit_pos = 0;
    std::int64_t bit_count = 0;
};

/** Read back arbitrary-width bitfields written by BitWriter. */
class BitReader
{
  public:
    explicit BitReader(const std::vector<std::uint8_t> &data)
        : bytes(data)
    {
    }

    /**
     * Read `bits` bits (0..57, as BitWriter::put writes them) with one
     * bounds check and one 8-byte window load per field. Fatal on
     * overrun, which consumes nothing; panics on a width outside 0..57.
     */
    std::uint64_t get(int bits);

    /**
     * Bits left before overrun. Decoders check this *before* sizing an
     * allocation from an untrusted count field, so a corrupt stream fails
     * with a clear message instead of attempting a huge resize.
     */
    std::int64_t
    remainingBits() const
    {
        return static_cast<std::int64_t>(bytes.size()) * 8 - pos;
    }

  private:
    const std::vector<std::uint8_t> &bytes;
    std::int64_t pos = 0; //!< bit cursor
};

/** Serialize a compressed model to a byte buffer. */
std::vector<std::uint8_t> serializeModel(const CompressedModel &model);

/** Inverse of serializeModel; fatal on a malformed buffer. */
CompressedModel deserializeModel(const std::vector<std::uint8_t> &data);

} // namespace mvq::core

#endif // MVQ_CORE_SERIALIZE_HPP
