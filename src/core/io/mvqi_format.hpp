/**
 * @file
 * MVQI ("MVQ Image") v3 — the flat, aligned, versioned serving format.
 * Where the bit-packed stream format (core/serialize) optimizes for the
 * paper's Eq. 7 storage accounting and must be decoded and re-packed on
 * every load, an MVQI file *is* the in-memory operand layout: fixed-width
 * little-endian header + TOC structs, then 64-byte-aligned sections
 * holding codebooks, assignments, mask codes, and the pre-packed sparse
 * operand (one CSR per layer) exactly as the gemm drivers consume it.
 * Loading is therefore mmap + validate: no bit-stream decode, no
 * packSparseRows, and N server processes share one read-only
 * page-cached image. A stream file is served through the same image,
 * built in memory when it is opened.
 *
 * Byte-level layout, alignment rules, and the versioning policy are
 * specified in docs/FORMAT.md; this header is the single source of truth
 * for the struct definitions (static_asserts pin their sizes, and the
 * golden-fixture test pins the emitted bytes against drift).
 */

#ifndef MVQ_CORE_IO_MVQI_FORMAT_HPP
#define MVQ_CORE_IO_MVQI_FORMAT_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compressed_layer.hpp"

namespace mvq::core::io {

constexpr std::uint32_t kMvqiMagic = 0x4951564Du; //!< "MVQI", little-endian
constexpr std::uint32_t kMvqiVersion = 3;
constexpr std::int64_t kMvqiAlign = 64;  //!< section alignment (bytes)
constexpr std::size_t kMvqiNameBytes = 64; //!< fixed layer-name field

/** Offset + element count of one array section (element type from use). */
struct MvqiArray
{
    std::uint64_t off = 0;   //!< byte offset from file start; 64-aligned
    std::int64_t count = 0;  //!< element count (not bytes)
};
static_assert(sizeof(MvqiArray) == 16);

/** File header; always the first 64 bytes of an image. */
struct MvqiHeader
{
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t header_bytes = 0; //!< sizeof(MvqiHeader)
    std::uint32_t flags = 0;        //!< bit 0: dense_reconstruct
    std::uint32_t n_codebooks = 0;
    std::uint32_t n_layers = 0;
    std::uint64_t codebook_toc_off = 0;
    std::uint64_t layer_toc_off = 0;
    std::uint64_t file_bytes = 0;   //!< must equal the actual file size
    std::uint8_t reserved[16] = {};
};
static_assert(sizeof(MvqiHeader) == 64);

/** One codebook TOC entry. Codewords are stored as raw fp32 (the
 *  dequantized, usable values); qbits/scale ride along so the Eq. 7
 *  accounting and a lossless convert back to the stream format remain
 *  possible. */
struct MvqiCodebook
{
    std::int64_t k = 0;
    std::int64_t d = 0;
    std::int32_t qbits = 0;
    float scale = 0.0f;
    std::uint64_t codewords_off = 0; //!< k*d fp32, 64-aligned
    std::uint64_t reserved[2] = {};
};
static_assert(sizeof(MvqiCodebook) == 48);

/**
 * One pre-packed sparse operand: the CSR of one layer's unrolled weight
 * matrix, flattened into offset-addressed sections that a loaded operand
 * borrows straight from the image.
 */
struct MvqiOperand
{
    std::int64_t rows = 0; //!< shape[0] of the layer
    std::int64_t cols = 0; //!< shape[1] * shape[2] * shape[3]
    MvqiArray row_ptr;     //!< int64, rows + 1
    MvqiArray col_idx;     //!< int32, nnz
    MvqiArray values;      //!< fp32, nnz
};
static_assert(sizeof(MvqiOperand) == 64);

/** One layer TOC entry. */
struct MvqiLayer
{
    char name[kMvqiNameBytes] = {}; //!< NUL-terminated
    std::int64_t shape[4] = {1, 1, 1, 1}; //!< [K, C/groups, R, S]
    std::int64_t k = 0;             //!< cfg.k
    std::int64_t d = 0;             //!< cfg.d
    std::int32_t n = 0;             //!< pattern N
    std::int32_t m = 0;             //!< pattern M
    std::int32_t grouping = 0;      //!< core::Grouping enum value
    std::int32_t codebook_bits = 0;
    std::int32_t codebook_id = 0;
    std::int32_t groups = 1;        //!< the conv's groups (geometry)
    std::int64_t dense_flops = 0;
    std::int64_t ng = 0;
    MvqiArray assignments;          //!< int32, ng
    MvqiArray mask_codes;           //!< uint32, ng * d/M
    MvqiOperand operand;            //!< the layer's one CSR
    std::uint64_t reserved = 0;
};
static_assert(sizeof(MvqiLayer) == 256);

/** Writer knobs: the conv `groups` each layer records (the compressed
 *  container does not store conv geometry), 1 for a layer the map does
 *  not name. They are geometry only: the operand is the layer's one CSR
 *  at any group count. */
struct MvqiWriteOptions
{
    std::map<std::string, std::int64_t> layer_groups; //!< by layer name
};

/**
 * Storage for image bytes on a kMvqiAlign boundary. On POSIX these are
 * fresh anonymous pages, returned to the OS when freed: an image built in
 * memory lives in its own pages, like a mapped file, and the copies left
 * behind as it grows never pile up in the malloc heap. Elsewhere it is
 * aligned operator new.
 */
void *allocateImagePages(std::size_t bytes);
void freeImagePages(void *p, std::size_t bytes) noexcept;

/** std::allocator stand-in over allocateImagePages / freeImagePages. */
template <typename T>
struct MvqiAllocator
{
    using value_type = T;

    MvqiAllocator() = default;
    template <typename U>
    MvqiAllocator(const MvqiAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(allocateImagePages(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        freeImagePages(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const MvqiAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** MVQI image bytes (see allocateImagePages). */
using MvqiBytes = std::vector<std::uint8_t, MvqiAllocator<std::uint8_t>>;

/**
 * Serialize `model` into an MVQI image: runs packSparseRows per layer
 * ONCE here, at serialize time, so no load ever runs it again.
 * Deterministic: same model + options => identical bytes (the golden
 * fixture test depends on this). Fatal on layer names >= 64 bytes,
 * groups that do not divide a layer's output channels, or a
 * `layer_groups` key that names no layer.
 */
MvqiBytes buildMvqiImage(const CompressedModel &model,
                         const MvqiWriteOptions &opts = {});

/** buildMvqiImage + write to a file (fatal on I/O failure). */
void writeMvqiFile(const CompressedModel &model, const std::string &path,
                   const MvqiWriteOptions &opts = {});

/**
 * The bytes of one MVQI image on a kMvqiAlign boundary: either a
 * read-only mmap of a `.mvqi` file or owned memory (an image built from a
 * stream file, or a `.mvqi` file read whole where mmap is unavailable).
 */
class MvqiImage
{
  public:
    /** Map the file at `path`; fatal on open/stat/map failure or an
     *  empty file. */
    explicit MvqiImage(const std::string &path);
    /** Own an image built in memory (see buildMvqiImage). */
    explicit MvqiImage(MvqiBytes bytes);
    ~MvqiImage();
    MvqiImage(const MvqiImage &) = delete;
    MvqiImage &operator=(const MvqiImage &) = delete;

    const std::uint8_t *data() const { return data_; }
    std::int64_t size() const { return size_; }
    /** True when the bytes are an mmap of the file. */
    bool mapped() const { return mapped_; }

  private:
    MvqiBytes owned_;
    const std::uint8_t *data_ = nullptr;
    std::int64_t size_ = 0;
    bool mapped_ = false;
};

/**
 * Non-owning structurally validated view over an MVQI image. The
 * constructor is the corruption firewall: truncated file, bad magic,
 * unsupported version, misaligned sections, out-of-range or overflowing
 * TOC offsets, oversized names, and inconsistent counts all fail with a
 * clear FatalError naming `what` (typically the file path) — never
 * undefined behaviour. Array accessors return pointers that were bounds-
 * and alignment-checked against the image during construction.
 *
 * Structural validation is O(layers), independent of model size, and
 * includes each operand's geometry against its layer's shape; the O(nnz)
 * semantic validation of its indices happens when the operand is
 * borrowed (validateSparseOperand, see ModelArtifact::packedOperands).
 */
class MvqiView
{
  public:
    MvqiView(const std::uint8_t *data, std::int64_t size, std::string what);

    const MvqiHeader &header() const;
    std::int64_t codebookCount() const;
    std::int64_t layerCount() const;
    const MvqiCodebook &codebook(std::int64_t i) const;
    const MvqiLayer &layer(std::int64_t i) const;

    /** Typed pointer to a validated array section. */
    template <typename T>
    const T *
    array(const MvqiArray &a) const
    {
        return reinterpret_cast<const T *>(data_ + a.off);
    }

    const std::uint8_t *data() const { return data_; }
    std::int64_t size() const { return size_; }
    const std::string &what() const { return what_; }

  private:
    void validate();
    void checkArray(const MvqiArray &a, std::int64_t elem_bytes,
                    const char *name) const;

    const std::uint8_t *data_;
    std::int64_t size_;
    std::string what_;
};

} // namespace mvq::core::io

#endif // MVQ_CORE_IO_MVQI_FORMAT_HPP
