#include "core/io/model_artifact.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/serialize.hpp"

namespace mvq::core::io {

namespace {

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
      image_(std::move(image)), view_(image_->data(), image_->size(), path_),
      cache_(static_cast<std::size_t>(view_.layerCount()))
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
ModelArtifact::layerGroups(std::int64_t i) const
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
        const auto cw =
            view_.array<float>(MvqiArray{rec.codewords_off, rec.k * rec.d});
        std::copy(cw.begin(), cw.end(), cb.codewords.data());
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
        const auto ap = view_.array<std::int32_t>(L.assignments);
        cl.assignments.assign(ap.begin(), ap.end());
        const auto mp = view_.array<std::uint32_t>(L.mask_codes);
        cl.mask_codes.assign(mp.begin(), mp.end());
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
    const std::int64_t out_c = view_.layer(i).shape[0];
    fatalIf(groups < 0 || (groups > 0 && out_c % groups != 0), path_,
            ": conv groups ", groups, " do not divide the ", out_c,
            " output channels of layer '", layerName(i), "'");
    fault::checkpoint(fault::kOperandBorrow,
                      "borrowing packed operands from the model image");
    // One lock for the whole lookup-or-build: a miss holds it across the
    // O(nnz) validation, so N threads first-touching the same layer build
    // it once and the rest hit the cache.
    std::lock_guard<std::mutex> lk(mu_);
    SharedOperands &cached = cache_[static_cast<std::size_t>(i)];
    if (cached)
        return cached;

    // Zero-copy: borrow the layer's CSR from the image, which the operand
    // keeps alive. Building it runs the O(nnz) semantic validation — the
    // line between a corrupt image failing loudly and the kernels reading
    // out of bounds. Structural bounds and geometry were already checked
    // by MvqiView.
    const MvqiOperand &rec = view_.layer(i).operand;
    try {
        cached = std::make_shared<const std::vector<GroupedSparseMatrix>>(
            1, GroupedSparseMatrix{
                   .rows = SparseRowMatrix::borrow(
                       rec.rows, rec.cols,
                       view_.array<std::int64_t>(rec.row_ptr),
                       view_.array<std::int32_t>(rec.col_idx),
                       view_.array<float>(rec.values), image_)});
    } catch (const PanicError &e) {
        // Invariant violations in *our* data are bugs (panic); in a file
        // they are the file's fault — rewrap.
        fatal(path_, ": corrupt MVQI operand (layer '", layerName(i),
              "'): ", e.what());
    }
    return cached;
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
