#include "sim/weight_loader.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace mvq::sim {

DecodedWeights
decodeCompressedLayer(const AccelConfig &cfg,
                      const core::CompressedLayer &layer,
                      const core::Codebook &codebook, Counters &counters)
{
    const std::int64_t d = layer.cfg.d;
    const std::int64_t ng = layer.ng();

    // The hardware reads one (index, mask-code) tuple per subvector and
    // one CRF word per tuple.
    counters.crf_reads += ng;
    counters.l2_read_bytes += streamBits(cfg, ng * d) / 8;

    // LUT mask decode + AND-gate reconstruction, through the checked
    // path CompressedLayer::reconstruct takes: an out-of-range mask code
    // or assignment is a FatalError, never a read past the LUT or the
    // codebook.
    DecodedWeights out;
    out.grouped_mask = layer.decodeMask();
    out.weights = core::ungroupWeights(
        core::reconstructGrouped(codebook.codewords, layer.assignments,
                                 out.grouped_mask),
        layer.weight_shape, d, layer.cfg.grouping);
    out.d = d;
    return out;
}

DecodedWeights
decodeCompressedLayer(const AccelConfig &cfg,
                      const core::io::ModelArtifact &artifact,
                      std::int64_t layer_idx, Counters &counters)
{
    fatalIf(layer_idx < 0 || layer_idx >= artifact.layerCount(),
            artifact.path(), ": layer index ", layer_idx,
            " out of range [0, ", artifact.layerCount(), ")");
    const core::CompressedModel &m = artifact.model();
    const core::CompressedLayer &layer =
        m.layers[static_cast<std::size_t>(layer_idx)];
    return decodeCompressedLayer(
        cfg, layer,
        m.codebooks[static_cast<std::size_t>(layer.codebook_id)],
        counters);
}

DecodedWeights
wrapDenseWeights(const Tensor &weights4, std::int64_t d)
{
    DecodedWeights out;
    out.weights = weights4;
    out.grouped_mask.assign(
        static_cast<std::size_t>(weights4.numel()), 1);
    out.d = d;
    return out;
}

std::int64_t
streamBits(const AccelConfig &cfg, std::int64_t weight_count)
{
    return static_cast<std::int64_t>(
        std::ceil(cfg.loadedBitsPerWeight()
                  * static_cast<double>(weight_count)));
}

std::int64_t
loadCycles(const AccelConfig &cfg, std::int64_t weight_count)
{
    return ceilDiv(streamBits(cfg, weight_count), cfg.dma_bits);
}

} // namespace mvq::sim
