#include "core/io/model_artifact.hpp"

#include <cstring>
#include <fstream>
#include <iterator>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/serialize.hpp"

namespace mvq::core::io {

namespace {

template <typename T>
OperandArray<T>
borrowArr(const MvqiView &v, const MvqiArray &a)
{
    return OperandArray<T>::borrow(v.array<T>(a), a.count);
}

/** Assemble an operand whose CSR arrays alias the image. */
GroupedSparseMatrix
borrowOperand(const MvqiView &v, const MvqiOperand &op)
{
    GroupedSparseMatrix g;
    g.rows.rows = op.rows;
    g.rows.cols = op.cols;
    g.rows.row_ptr = borrowArr<std::int64_t>(v, op.row_ptr);
    g.rows.col_idx = borrowArr<std::int32_t>(v, op.col_idx);
    g.rows.values = borrowArr<float>(v, op.values);
    return g;
}

/** Keeps the image alive for as long as any borrowed operand handle is
 *  held (the SharedOperands aliasing constructor points into it). */
struct OperandHolder
{
    std::shared_ptr<const MvqiImage> keepalive;
    std::vector<GroupedSparseMatrix> ops;
};

/** The file's leading little-endian 32-bit magic (both formats have one). */
std::uint32_t
readMagic(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open model file ", path);
    std::uint8_t m[4] = {};
    in.read(reinterpret_cast<char *>(m), 4);
    fatalIf(!in, path, ": too short to be a compressed-model file");
    return static_cast<std::uint32_t>(m[0])
        | static_cast<std::uint32_t>(m[1]) << 8
        | static_cast<std::uint32_t>(m[2]) << 16
        | static_cast<std::uint32_t>(m[3]) << 24;
}

} // namespace

std::string
artifactFormatName(ArtifactFormat f)
{
    switch (f) {
      case ArtifactFormat::Stream:
        return "stream";
      case ArtifactFormat::Mvqi:
        return "mvqi";
    }
    return "unknown";
}

ModelArtifact::ModelArtifact(std::string path, ArtifactFormat format,
                             std::int64_t size_bytes,
                             std::shared_ptr<const MvqiImage> image)
    : path_(std::move(path)), format_(format), size_bytes_(size_bytes),
      image_(std::move(image)), view_(image_->data(), image_->size(), path_)
{
}

std::int64_t
ModelArtifact::layerCount() const
{
    return view_.layerCount();
}

std::string
ModelArtifact::layerName(std::int64_t i) const
{
    return std::string(view_.layer(i).name);
}

Shape
ModelArtifact::layerShape(std::int64_t i) const
{
    const MvqiLayer &L = view_.layer(i);
    return Shape({L.shape[0], L.shape[1], L.shape[2], L.shape[3]});
}

std::int64_t
ModelArtifact::bakedGroups(std::int64_t i) const
{
    return view_.layer(i).groups;
}

const CompressedModel &
ModelArtifact::model() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return modelLocked();
}

const CompressedModel &
ModelArtifact::modelLocked() const
{
    if (model_)
        return *model_;

    // Materialize by copying out of the image — only convert/inspect
    // paths come here; serving uses packedOperands and never copies.
    CompressedModel m;
    m.dense_reconstruct = (view_.header().flags & 1u) != 0;
    for (std::int64_t i = 0; i < view_.codebookCount(); ++i) {
        const MvqiCodebook &rec = view_.codebook(i);
        Codebook cb;
        cb.qbits = static_cast<int>(rec.qbits);
        cb.scale = rec.scale;
        cb.codewords = Tensor(Shape({rec.k, rec.d}));
        std::memcpy(cb.codewords.data(),
                    view_.array<float>(
                        MvqiArray{rec.codewords_off, rec.k * rec.d}),
                    static_cast<std::size_t>(rec.k * rec.d)
                        * sizeof(float));
        m.codebooks.push_back(std::move(cb));
    }
    for (std::int64_t i = 0; i < view_.layerCount(); ++i) {
        const MvqiLayer &L = view_.layer(i);
        CompressedLayer cl;
        cl.name = std::string(L.name);
        cl.weight_shape =
            Shape({L.shape[0], L.shape[1], L.shape[2], L.shape[3]});
        cl.cfg.k = L.k;
        cl.cfg.d = L.d;
        cl.cfg.pattern.n = static_cast<int>(L.n);
        cl.cfg.pattern.m = static_cast<int>(L.m);
        cl.cfg.grouping = groupingFromInt(static_cast<int>(L.grouping));
        cl.cfg.codebook_bits = static_cast<int>(L.codebook_bits);
        cl.codebook_id = static_cast<int>(L.codebook_id);
        cl.dense_flops = L.dense_flops;
        const std::int32_t *ap = view_.array<std::int32_t>(L.assignments);
        cl.assignments.assign(ap, ap + L.assignments.count);
        const std::uint32_t *mp = view_.array<std::uint32_t>(L.mask_codes);
        cl.mask_codes.assign(mp, mp + L.mask_codes.count);
        m.layers.push_back(std::move(cl));
    }
    model_ = std::move(m);
    return *model_;
}

SharedOperands
ModelArtifact::packedOperands(std::int64_t i, std::int64_t groups) const
{
    panicIf(i < 0 || i >= layerCount(), "layer index ", i,
            " out of range [0, ", layerCount(), ")");
    fault::checkpoint(fault::kOperandBorrow,
                      "borrowing packed operands from the model image");
    const std::int64_t baked = bakedGroups(i);
    const std::int64_t g = groups == 0 ? baked : groups;
    const auto key = std::make_pair(i, g);
    // One lock for the whole lookup-or-build: a miss holds it across the
    // O(nnz) validation (or repack), so N threads first-touching the same
    // (layer, groups) build it once and the rest hit the cache.
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = cache_.find(key); it != cache_.end())
        return it->second;

    SharedOperands shared;
    if (g == baked) {
        // Zero-copy path: borrow every operand's CSR from the image, then
        // run the O(nnz) semantic validation — the line between a corrupt
        // image failing loudly and the kernels reading out of bounds.
        // Structural bounds and geometry were already checked by MvqiView.
        auto holder = std::make_shared<OperandHolder>();
        holder->keepalive = image_;
        holder->ops.reserve(static_cast<std::size_t>(g));
        const MvqiOperand *recs = view_.operands(i);
        for (std::int64_t grp = 0; grp < g; ++grp) {
            GroupedSparseMatrix op = borrowOperand(view_, recs[grp]);
            try {
                validateSparseOperand(op.rows);
            } catch (const PanicError &e) {
                // Invariant violations in *our* data are bugs (panic);
                // in a file they are the file's fault — rewrap.
                fatal(path_, ": corrupt MVQI operand (layer '",
                      layerName(i), "', group ", grp, "): ", e.what());
            }
            holder->ops.push_back(std::move(op));
        }
        shared = SharedOperands(holder, &holder->ops);
    } else {
        // Group-count mismatch: correct but not zero-copy. Bake the
        // right groups at write time to stay on the borrowed path.
        const CompressedModel &m = modelLocked();
        const CompressedLayer &cl = m.layers[static_cast<std::size_t>(i)];
        shared = std::make_shared<const std::vector<GroupedSparseMatrix>>(
            cl.packGroupedRows(
                m.codebooks[static_cast<std::size_t>(cl.codebook_id)],
                g));
    }
    cache_[key] = shared;
    return shared;
}

std::unique_ptr<ModelArtifact>
openArtifact(const std::string &path)
{
    // The fault site sits in front of the OS calls so tests can script
    // open failures without touching the filesystem.
    fault::checkpoint(fault::kArtifactOpen, "opening model file");
    const std::uint32_t magic = readMagic(path);
    if (magic == kMvqiMagic) {
        auto image = std::make_shared<const MvqiImage>(path);
        const std::int64_t size = image->size();
        return std::unique_ptr<ModelArtifact>(new ModelArtifact(
            path, ArtifactFormat::Mvqi, size, std::move(image)));
    }
    if (magic == kStreamMagic) {
        std::ifstream in(path, std::ios::binary);
        fatalIf(!in, "cannot open model file ", path);
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        // The decoded model lives only as long as the build: from here on
        // the stream is served from its image like any mapped file.
        std::shared_ptr<const MvqiImage> image;
        try {
            image = std::make_shared<const MvqiImage>(
                buildMvqiImage(deserializeModel(bytes)));
        } catch (const FatalError &e) {
            fatal(path, ": ", e.what());
        }
        return std::unique_ptr<ModelArtifact>(new ModelArtifact(
            path, ArtifactFormat::Stream,
            static_cast<std::int64_t>(bytes.size()), std::move(image)));
    }
    fatal(path, ": unknown model file magic 0x", std::hex, magic,
          std::dec, " (neither MVQ stream nor MVQI image)");
}

void
saveArtifact(const CompressedModel &model, const std::string &path,
             ArtifactFormat format, const MvqiWriteOptions &mvqi_opts)
{
    switch (format) {
      case ArtifactFormat::Stream: {
        const std::vector<std::uint8_t> bytes = serializeModel(model);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        fatalIf(!out, "cannot open ", path, " for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        fatalIf(!out, "short write to ", path);
        return;
      }
      case ArtifactFormat::Mvqi:
        writeMvqiFile(model, path, mvqi_opts);
        return;
    }
    panic("unhandled artifact format");
}

} // namespace mvq::core::io
