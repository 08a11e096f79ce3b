#include "core/io/mvqi_format.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <type_traits>

#include "common/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MVQ_MVQI_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mvq::core::io {

namespace {

/**
 * Append-only image buffer. Every section lands on a kMvqiAlign boundary
 * (zero padding in between), and the buffer itself starts on one, so the
 * finished buffer is servable in place, exactly like a mapped file.
 */
struct ImageBuilder
{
    MvqiBytes buf;

    std::uint64_t
    alignUp()
    {
        while (buf.size() % static_cast<std::size_t>(kMvqiAlign) != 0)
            buf.push_back(0);
        return static_cast<std::uint64_t>(buf.size());
    }

    /** Reserve `bytes` zeroed bytes at an aligned offset (patched later). */
    std::uint64_t
    reserve(std::size_t bytes)
    {
        const std::uint64_t off = alignUp();
        buf.insert(buf.end(), bytes, 0);
        return off;
    }

    template <typename T>
    std::uint64_t
    appendRaw(const T *p, std::int64_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t off = alignUp();
        if (n > 0) // p may be null for an empty array
            buf.insert(buf.end(),
                       reinterpret_cast<const std::uint8_t *>(p),
                       reinterpret_cast<const std::uint8_t *>(p)
                           + static_cast<std::size_t>(n) * sizeof(T));
        return off;
    }

    template <typename T>
    MvqiArray
    append(std::span<T> a)
    {
        return MvqiArray{appendRaw(a.data(),
                                   static_cast<std::int64_t>(a.size())),
                         static_cast<std::int64_t>(a.size())};
    }

    void
    patch(std::uint64_t off, const void *p, std::size_t bytes)
    {
        std::memcpy(buf.data() + off, p, bytes);
    }
};

MvqiOperand
appendOperand(ImageBuilder &b, const SparseRowMatrix &op)
{
    MvqiOperand rec;
    rec.rows = op.rows;
    rec.cols = op.cols;
    rec.row_ptr = b.append(op.row_ptr);
    rec.col_idx = b.append(op.col_idx);
    rec.values = b.append(op.values);
    return rec;
}

/** The conv groups `opts` records for `cl`. */
std::int64_t
recordedGroups(const CompressedLayer &cl, const MvqiWriteOptions &opts)
{
    if (auto it = opts.layer_groups.find(cl.name);
        it != opts.layer_groups.end())
        return it->second;
    return 1;
}

/**
 * An upper bound on buildMvqiImage's output size, so the image is
 * allocated once and no append copies it. Each section may be preceded
 * by up to kMvqiAlign - 1 pad bytes. Every stored mask code keeps N
 * weights, and each kept weight costs 8 bytes (column + value) in the
 * layer's CSR; row pointers cost 8 bytes per row, plus one. Every term
 * comes from the stored arrays or is capped by them, so a corrupt layer
 * (which the pack rejects) cannot inflate it.
 */
std::size_t
imageBytesBound(const CompressedModel &model)
{
    const std::size_t pad = static_cast<std::size_t>(kMvqiAlign) - 1;
    auto section = [&](std::size_t bytes) { return bytes + pad; };
    std::size_t total = section(sizeof(MvqiHeader))
        + section(model.codebooks.size() * sizeof(MvqiCodebook))
        + section(model.layers.size() * sizeof(MvqiLayer));
    for (const Codebook &cb : model.codebooks)
        total += section(static_cast<std::size_t>(cb.codewords.numel())
                         * sizeof(float));
    for (const CompressedLayer &cl : model.layers) {
        const std::int64_t codes =
            static_cast<std::int64_t>(cl.mask_codes.size());
        const std::int64_t m = std::max(cl.cfg.pattern.m, 0);
        const std::int64_t kept = m > 0
            ? codes * std::clamp(cl.cfg.pattern.n, 0, cl.cfg.pattern.m)
            : 0;
        const std::int64_t rows = cl.weight_shape.rank() == 4
            ? std::min(cl.weight_shape.dim(0), codes * m) : 0;
        total += section(cl.assignments.size() * sizeof(std::int32_t))
            + section(cl.mask_codes.size() * sizeof(std::uint32_t))
            + 3 * pad + static_cast<std::size_t>((rows + 1) * 8)
            + static_cast<std::size_t>(kept * 8);
    }
    return total + pad;
}

} // namespace

MvqiBytes
buildMvqiImage(const CompressedModel &model, const MvqiWriteOptions &opts)
{
    const std::size_t n_books = model.codebooks.size();
    const std::size_t n_layers = model.layers.size();

    // A misspelled name would otherwise record the default groups for
    // that layer, and a conv built from the file would read the wrong
    // input channels.
    std::set<std::string> names;
    for (const CompressedLayer &cl : model.layers)
        names.insert(cl.name);
    for (const auto &entry : opts.layer_groups)
        fatalIf(names.count(entry.first) == 0, "layer_groups names layer '",
                entry.first, "', which the model does not have");

    ImageBuilder b;
    b.buf.reserve(imageBytesBound(model));
    b.reserve(sizeof(MvqiHeader));
    const std::uint64_t cb_toc_off = b.reserve(n_books * sizeof(MvqiCodebook));
    const std::uint64_t layer_toc_off =
        b.reserve(n_layers * sizeof(MvqiLayer));

    std::vector<MvqiCodebook> cb_toc(n_books);
    for (std::size_t i = 0; i < n_books; ++i) {
        const Codebook &cb = model.codebooks[i];
        MvqiCodebook &rec = cb_toc[i];
        rec.k = cb.k();
        rec.d = cb.d();
        rec.qbits = cb.qbits;
        rec.scale = cb.scale;
        rec.codewords_off =
            b.appendRaw(cb.codewords.data(), cb.codewords.numel());
    }

    std::vector<MvqiLayer> layer_toc(n_layers);
    for (std::size_t i = 0; i < n_layers; ++i) {
        const CompressedLayer &cl = model.layers[i];
        fatalIf(cl.name.size() >= kMvqiNameBytes, "layer name '", cl.name,
                "' exceeds the MVQI limit of ", kMvqiNameBytes - 1,
                " bytes");
        fatalIf(cl.weight_shape.rank() != 4, "layer ", cl.name,
                " weight shape ", cl.weight_shape.str(), " is not rank 4");
        fatalIf(cl.codebook_id < 0
                    || static_cast<std::size_t>(cl.codebook_id) >= n_books,
                "layer ", cl.name, " references codebook ", cl.codebook_id,
                " of ", n_books);

        const std::int64_t groups = recordedGroups(cl, opts);
        fatalIf(groups < 1 || cl.weight_shape.dim(0) % groups != 0,
                "invalid conv groups ", groups, " for layer ", cl.name,
                " with ", cl.weight_shape.dim(0), " output channels");

        MvqiLayer &rec = layer_toc[i];
        std::memcpy(rec.name, cl.name.c_str(), cl.name.size());
        for (int j = 0; j < 4; ++j)
            rec.shape[j] = cl.weight_shape.dim(j);
        rec.k = cl.cfg.k;
        rec.d = cl.cfg.d;
        rec.n = static_cast<std::int32_t>(cl.cfg.pattern.n);
        rec.m = static_cast<std::int32_t>(cl.cfg.pattern.m);
        rec.grouping = static_cast<std::int32_t>(cl.cfg.grouping);
        rec.codebook_bits = cl.cfg.codebook_bits;
        rec.codebook_id = cl.codebook_id;
        rec.groups = static_cast<std::int32_t>(groups);
        rec.dense_flops = cl.dense_flops;
        rec.ng = cl.ng();
        rec.assignments = b.append(std::span(cl.assignments));
        rec.mask_codes = b.append(std::span(cl.mask_codes));

        // The one and only pack: serving loads borrow these bytes as-is.
        // One layer's operand at a time, so the heap never holds more.
        rec.operand = appendOperand(
            b, cl.packSparseRows(model.codebooks[cl.codebook_id]));
    }

    b.alignUp();

    MvqiHeader h;
    h.magic = kMvqiMagic;
    h.version = kMvqiVersion;
    h.header_bytes = sizeof(MvqiHeader);
    h.flags = model.dense_reconstruct ? 1u : 0u;
    h.n_codebooks = static_cast<std::uint32_t>(n_books);
    h.n_layers = static_cast<std::uint32_t>(n_layers);
    h.codebook_toc_off = cb_toc_off;
    h.layer_toc_off = layer_toc_off;
    h.file_bytes = static_cast<std::uint64_t>(b.buf.size());
    b.patch(0, &h, sizeof(h));
    if (n_books != 0)
        b.patch(cb_toc_off, cb_toc.data(), n_books * sizeof(MvqiCodebook));
    if (n_layers != 0)
        b.patch(layer_toc_off, layer_toc.data(),
                n_layers * sizeof(MvqiLayer));
    return std::move(b.buf);
}

void
writeMvqiFile(const CompressedModel &model, const std::string &path,
              const MvqiWriteOptions &opts)
{
    const MvqiBytes image = buildMvqiImage(model, opts);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatalIf(!out, "cannot open ", path, " for writing");
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    fatalIf(!out, "failed writing MVQI image to ", path);
}

void *
allocateImagePages(std::size_t bytes)
{
#ifdef MVQ_MVQI_HAVE_MMAP
    // Page-aligned, which is kMvqiAlign-aligned. mmap rejects length 0.
    void *p = ::mmap(nullptr, std::max<std::size_t>(bytes, 1),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
#else
    return ::operator new(bytes, std::align_val_t(kMvqiAlign));
#endif
}

void
freeImagePages(void *p, std::size_t bytes) noexcept
{
#ifdef MVQ_MVQI_HAVE_MMAP
    ::munmap(p, std::max<std::size_t>(bytes, 1));
#else
    (void)bytes;
    ::operator delete(p, std::align_val_t(kMvqiAlign));
#endif
}

MvqiImage::MvqiImage(const std::string &path)
{
#ifdef MVQ_MVQI_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    fatalIf(fd < 0, "cannot open model image ", path);
    struct stat st;
    const bool stat_ok = ::fstat(fd, &st) == 0;
    if (!stat_ok || st.st_size <= 0) {
        ::close(fd);
        fatalIf(!stat_ok, "cannot stat model image ", path);
        fatal("model image ", path, " is empty");
    }
    void *p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                     PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    fatalIf(p == MAP_FAILED, "mmap failed for model image ", path);
    data_ = static_cast<const std::uint8_t *>(p);
    size_ = static_cast<std::int64_t>(st.st_size);
    mapped_ = true;
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    fatalIf(!in, "cannot open model image ", path);
    const std::streamoff sz = in.tellg();
    fatalIf(sz <= 0, "model image ", path, " is empty");
    owned_.resize(static_cast<std::size_t>(sz));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(owned_.data()), sz);
    fatalIf(!in, "short read loading model image ", path);
    data_ = owned_.data();
    size_ = static_cast<std::int64_t>(sz);
#endif
}

MvqiImage::MvqiImage(MvqiBytes bytes)
    : owned_(std::move(bytes)), data_(owned_.data()),
      size_(static_cast<std::int64_t>(owned_.size()))
{
}

MvqiImage::~MvqiImage()
{
#ifdef MVQ_MVQI_HAVE_MMAP
    if (mapped_)
        ::munmap(const_cast<std::uint8_t *>(data_),
                 static_cast<std::size_t>(size_));
#endif
}

MvqiView::MvqiView(const std::uint8_t *data, std::int64_t size,
                   std::string what)
    : data_(data), size_(size), what_(std::move(what))
{
    validate();
}

const MvqiHeader &
MvqiView::header() const
{
    return *reinterpret_cast<const MvqiHeader *>(data_);
}

std::int64_t
MvqiView::codebookCount() const
{
    return static_cast<std::int64_t>(header().n_codebooks);
}

std::int64_t
MvqiView::layerCount() const
{
    return static_cast<std::int64_t>(header().n_layers);
}

const MvqiCodebook &
MvqiView::codebook(std::int64_t i) const
{
    panicIf(i < 0 || i >= codebookCount(), "codebook index ", i,
            " out of range [0, ", codebookCount(), ")");
    return reinterpret_cast<const MvqiCodebook *>(
        data_ + header().codebook_toc_off)[i];
}

const MvqiLayer &
MvqiView::layer(std::int64_t i) const
{
    panicIf(i < 0 || i >= layerCount(), "layer index ", i,
            " out of range [0, ", layerCount(), ")");
    return reinterpret_cast<const MvqiLayer *>(
        data_ + header().layer_toc_off)[i];
}

void
MvqiView::checkArray(const MvqiArray &a, std::int64_t elem_bytes,
                     const char *name) const
{
    fatalIf(a.off % static_cast<std::uint64_t>(kMvqiAlign) != 0, what_,
            ": misaligned ", name, " section (offset ", a.off, " is not ",
            kMvqiAlign, "-byte aligned)");
    fatalIf(a.count < 0, what_, ": negative ", name, " element count ",
            a.count);
    fatalIf(a.off > static_cast<std::uint64_t>(size_), what_, ": ", name,
            " section offset ", a.off, " is beyond the end of the ",
            size_, "-byte image");
    const std::uint64_t avail = static_cast<std::uint64_t>(size_) - a.off;
    fatalIf(static_cast<std::uint64_t>(a.count)
                > avail / static_cast<std::uint64_t>(elem_bytes),
            what_, ": ", name, " section (", a.count, " x ", elem_bytes,
            " bytes at offset ", a.off, ") extends past the end of the ",
            size_, "-byte image");
}

void
MvqiView::validate()
{
    panicIf(data_ == nullptr, "MvqiView over a null image");
    panicIf(reinterpret_cast<std::uintptr_t>(data_) % 8 != 0,
            "MVQI image base address is not 8-byte aligned");
    fatalIf(size_ < static_cast<std::int64_t>(sizeof(MvqiHeader)), what_,
            ": truncated MVQI image (", size_, " bytes; the header alone "
            "is ", sizeof(MvqiHeader), ")");

    const MvqiHeader &h = header();
    fatalIf(h.magic != kMvqiMagic, what_, ": bad magic 0x", std::hex,
            h.magic, std::dec, " (not an MVQI image)");
    fatalIf(h.version != kMvqiVersion, what_, ": unsupported MVQI version ",
            h.version, " (this build reads version ", kMvqiVersion, ")");
    fatalIf(h.header_bytes != sizeof(MvqiHeader), what_,
            ": header size mismatch (", h.header_bytes, " vs ",
            sizeof(MvqiHeader), ")");
    fatalIf(h.file_bytes != static_cast<std::uint64_t>(size_), what_,
            ": file size mismatch (header records ", h.file_bytes,
            " bytes, file has ", size_, ")");

    checkArray(MvqiArray{h.codebook_toc_off,
                         static_cast<std::int64_t>(h.n_codebooks)},
               sizeof(MvqiCodebook), "codebook TOC");
    checkArray(MvqiArray{h.layer_toc_off,
                         static_cast<std::int64_t>(h.n_layers)},
               sizeof(MvqiLayer), "layer TOC");

    for (std::int64_t i = 0; i < codebookCount(); ++i) {
        const MvqiCodebook &cb = codebook(i);
        fatalIf(cb.k <= 0 || cb.d <= 0, what_, ": codebook ", i,
                " has invalid dimensions k=", cb.k, " d=", cb.d);
        fatalIf(cb.qbits < 0 || cb.qbits > 32, what_, ": codebook ", i,
                " has invalid qbits ", cb.qbits);
        fatalIf(cb.k > std::numeric_limits<std::int64_t>::max() / cb.d,
                what_, ": codebook ", i, " dimensions overflow");
        checkArray(MvqiArray{cb.codewords_off, cb.k * cb.d}, sizeof(float),
                   "codewords");
    }

    for (std::int64_t i = 0; i < layerCount(); ++i) {
        const MvqiLayer &L = layer(i);
        fatalIf(L.name[kMvqiNameBytes - 1] != '\0', what_, ": layer ", i,
                " name is not NUL-terminated");
        for (int j = 0; j < 4; ++j)
            fatalIf(L.shape[j] <= 0, what_, ": layer ", i,
                    " has invalid shape dimension ", L.shape[j]);
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        fatalIf(L.shape[1] > kMax / L.shape[2]
                    || L.shape[1] * L.shape[2] > kMax / L.shape[3],
                what_, ": layer ", i, " shape overflows");
        fatalIf(L.k <= 0, what_, ": layer ", i, " has invalid k ", L.k);
        fatalIf(L.d <= 0 || L.m <= 0 || L.d % L.m != 0, what_, ": layer ",
                i, " has inconsistent d=", L.d, " M=", L.m);
        fatalIf(L.n < 0 || L.n > L.m, what_, ": layer ", i,
                " has invalid N:M pattern ", L.n, ":", L.m);
        fatalIf(L.grouping < 0 || L.grouping > 2, what_, ": layer ", i,
                " has invalid grouping ", L.grouping);
        fatalIf(L.codebook_bits < 0 || L.codebook_bits > 32, what_,
                ": layer ", i, " has invalid codebook_bits ",
                L.codebook_bits);
        fatalIf(L.codebook_id < 0
                    || static_cast<std::uint32_t>(L.codebook_id)
                        >= h.n_codebooks,
                what_, ": layer ", i, " references codebook ",
                L.codebook_id, " of ", h.n_codebooks);
        fatalIf(L.groups < 1 || L.shape[0] % L.groups != 0, what_,
                ": layer ", i, " has invalid conv groups ", L.groups,
                " for ", L.shape[0], " output channels");
        fatalIf(L.ng < 0, what_, ": layer ", i, " has negative ng");

        checkArray(L.assignments, sizeof(std::int32_t), "assignments");
        fatalIf(L.assignments.count != L.ng, what_, ": layer ", i,
                " assignments count ", L.assignments.count,
                " does not match ng ", L.ng);
        checkArray(L.mask_codes, sizeof(std::uint32_t), "mask codes");
        const std::int64_t codes_per_group = L.d / L.m;
        fatalIf(L.ng > kMax / codes_per_group, what_, ": layer ", i,
                " mask-code count ng*d/M overflows (ng ", L.ng, ", d ", L.d,
                ", M ", L.m, ")");
        fatalIf(L.mask_codes.count != L.ng * codes_per_group, what_,
                ": layer ", i, " mask-code count ", L.mask_codes.count,
                " does not match ng*d/M = ", L.ng * codes_per_group);

        // The operand is the layer's unrolled [K, C/groups*R*S] weight
        // matrix; any other geometry would pass the CSR checks and still
        // be rejected by every conv built over it.
        const MvqiOperand &op = L.operand;
        const std::int64_t unrolled = L.shape[1] * L.shape[2] * L.shape[3];
        fatalIf(op.rows != L.shape[0] || op.cols != unrolled, what_,
                ": layer ", i, " ('", L.name, "') operand is ", op.rows, "x",
                op.cols, ", but its shape [", L.shape[0], ", ", L.shape[1],
                ", ", L.shape[2], ", ", L.shape[3], "] needs ", L.shape[0],
                "x", unrolled);
        checkArray(op.row_ptr, sizeof(std::int64_t), "row_ptr");
        // rows is a positive shape dimension, so rows + 1 could overflow;
        // count - 1 cannot (checkArray bounds count to [0, image size]).
        fatalIf(op.row_ptr.count - 1 != op.rows, what_, ": layer ", i,
                " operand row_ptr count ", op.row_ptr.count,
                " does not match its ", op.rows, " rows plus one");
        checkArray(op.col_idx, sizeof(std::int32_t), "col_idx");
        checkArray(op.values, sizeof(float), "values");
        fatalIf(op.col_idx.count != op.values.count, what_, ": layer ", i,
                " operand col_idx/values count mismatch");
    }
}

} // namespace mvq::core::io
