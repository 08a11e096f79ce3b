/**
 * @file
 * ModelArtifact — the one class every consumer of a compressed-model file
 * goes through (examples, the accelerator sim's weight loader, the
 * serving-oriented conv layers). Whatever the file's format, an open
 * artifact is a structurally validated MVQI image (core/io/mvqi_format):
 *
 *  - a `.mvqi` file is mmap'd read-only, so N processes opening it share
 *    its pages through the page cache;
 *  - a `.mvq` bit-packed stream (core/serialize) is decoded and built into
 *    an MVQI image in 64-byte-aligned memory (every layer at groups 1: the
 *    stream stores no conv geometry), and the decoded model is dropped.
 *
 * From there every artifact takes one path: packedOperands borrows each
 * pre-packed operand's CSR sections straight out of the image
 * (validateSparseOperand is the only O(nnz) work, and it reads — never
 * copies — the image), and model() is materialized from the image on
 * first call. openArtifact() sniffs the file magic, so callers are
 * format-agnostic, and converting between formats is
 * saveArtifact(artifact->model()).
 */

#ifndef MVQ_CORE_IO_MODEL_ARTIFACT_HPP
#define MVQ_CORE_IO_MODEL_ARTIFACT_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compressed_layer.hpp"
#include "core/io/mvqi_format.hpp"

namespace mvq::core::io {

/** The two on-disk representations of a compressed model. */
enum class ArtifactFormat
{
    Stream, //!< bit-packed stream (core/serialize), magic "MVQ1"
    Mvqi,   //!< flat mmap-able image (core/io/mvqi_format), magic "MVQI"
};

/** Human-readable format name ("stream" / "mvqi"). */
std::string artifactFormatName(ArtifactFormat f);

/**
 * Shared handle to one layer's packed gemm operands (one CSR per conv
 * group, held as GroupedSparseMatrix::rows). The shared_ptr's control block
 * keeps whatever owns the underlying bytes alive — for a borrowed operand
 * that is the image itself — so holders may outlive the artifact that
 * produced them.
 */
using SharedOperands = std::shared_ptr<const std::vector<GroupedSparseMatrix>>;

/** A compressed-model file opened for reading (see openArtifact). */
class ModelArtifact
{
  public:
    /** The format of the file the artifact was opened from. */
    ArtifactFormat format() const { return format_; }
    const std::string &path() const { return path_; }
    /** Size of that file on disk. */
    std::int64_t sizeBytes() const { return size_bytes_; }
    /** True when the image is an mmap of the file (false when it was
     *  built or read into memory). */
    bool mapped() const { return image_->mapped(); }
    /** The validated structural view of the image (inspection tooling). */
    const MvqiView &view() const { return view_; }

    /**
     * The fully materialized model, copied out of the image on first call
     * and cached — serving paths that only need packedOperands never pay
     * for it.
     */
    const CompressedModel &model() const;

    std::int64_t layerCount() const;
    std::string layerName(std::int64_t i) const;
    /** Original 4-D kernel shape of layer i. */
    Shape layerShape(std::int64_t i) const;

    /** Conv groups layer i's operands are pre-packed for (>= 1; always 1
     *  for an artifact opened from a stream file). */
    std::int64_t bakedGroups(std::int64_t i) const;

    /**
     * Layer i's packed sparse operands for a `groups`-way convolution.
     * `groups == 0` means "the artifact's baked groups". Results are
     * cached per (layer, groups), so N conv instances built from one
     * artifact share one operand set.
     *
     * The baked group count is served as borrowed views over the image
     * (zero-copy; the returned handle keeps the image alive). Any other
     * count falls back to materializing + repacking, which is correct but
     * defeats the zero-copy point — bake the right groups at write time
     * (MvqiWriteOptions::layer_groups).
     */
    SharedOperands packedOperands(std::int64_t i,
                                  std::int64_t groups = 0) const;

  private:
    friend std::unique_ptr<ModelArtifact> openArtifact(const std::string &);

    /** Structurally validate `image` (fatal on corruption). */
    ModelArtifact(std::string path, ArtifactFormat format,
                  std::int64_t size_bytes,
                  std::shared_ptr<const MvqiImage> image);

    /** model_ builder + cache lookup body; mu_ must be held. */
    const CompressedModel &modelLocked() const;

    std::string path_;
    ArtifactFormat format_;
    std::int64_t size_bytes_;
    std::shared_ptr<const MvqiImage> image_;
    MvqiView view_;
    /** Serializes lazy materialization and the operand cache: model()
     *  and packedOperands() are called concurrently by serving threads
     *  sharing one artifact (see tests/concurrency_test.cpp). */
    mutable std::mutex mu_;
    /** Materialized model, built on first model() call only. */
    mutable std::optional<CompressedModel> model_;
    mutable std::map<std::pair<std::int64_t, std::int64_t>, SharedOperands>
        cache_;
};

/**
 * Open a compressed-model file, sniffing the magic to pick the loader.
 * Fatal on unreadable files, unknown magic, or corruption — and on a
 * stream whose model does not fit an MVQI image (e.g. a layer name over
 * MVQI's 63-byte limit).
 */
std::unique_ptr<ModelArtifact> openArtifact(const std::string &path);

/**
 * Write `model` to `path` in the requested format. `mvqi_opts` applies
 * to ArtifactFormat::Mvqi only (conv groups to bake per layer).
 */
void saveArtifact(const CompressedModel &model, const std::string &path,
                  ArtifactFormat format,
                  const MvqiWriteOptions &mvqi_opts = {});

} // namespace mvq::core::io

#endif // MVQ_CORE_IO_MODEL_ARTIFACT_HPP
