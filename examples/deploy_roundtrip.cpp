/**
 * @file
 * Deployment example: compress a trained classifier, write it through the
 * unified core::io::ModelArtifact API — once as the bit-packed stream the
 * accelerator's weight loader consumes, once as the mmap-able MVQI image
 * serving processes share — reload both, and validate the reloaded model
 * in software (accuracy), through the functional systolic array
 * (bit-near-exact ofmap), and on the sparse CPU path, where the operands
 * borrowed from the mapped image must be bit-identical to the ones the
 * stream artifact packed into its in-memory image at open.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/io/model_artifact.hpp"
#include "core/pipeline.hpp"
#include "models/mini_models.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/trainer.hpp"
#include "sim/systolic_array.hpp"
#include "tensor/ops.hpp"

int
main()
{
    using namespace mvq;

    // Train and compress.
    nn::ClassificationConfig dc;
    dc.classes = 10;
    dc.size = 12;
    dc.train_count = 320;
    dc.test_count = 160;
    nn::ClassificationDataset data(dc);

    models::MiniConfig mc;
    mc.classes = dc.classes;
    mc.width = 16;
    auto net = models::miniResNet18(mc);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::trainClassifier(*net, data, tc);

    core::PipelineConfig cfg;
    cfg.layer.k = 64;
    cfg.layer.d = 16;
    cfg.layer.pattern = core::NmPattern{4, 16};
    cfg.sparse.train.epochs = 1;
    cfg.finetune.epochs = 1;
    core::PipelineResult res =
        core::mvqCompressClassifier(*net, data, cfg);

    // Serialize -> file -> reload through the artifact API, in both
    // formats. openArtifact sniffs the magic, so the consumer code below
    // is format-agnostic.
    const std::string stream_path = "/tmp/mvq_deploy_demo.mvq";
    const std::string image_path = "/tmp/mvq_deploy_demo.mvqi";
    core::io::saveArtifact(res.compressed, stream_path,
                           core::io::ArtifactFormat::Stream);
    core::io::saveArtifact(res.compressed, image_path,
                           core::io::ArtifactFormat::Mvqi);
    const auto stream_art = core::io::openArtifact(stream_path);
    const auto image_art = core::io::openArtifact(image_path);
    core::CompressedModel loaded = stream_art->model();
    std::cout << "stream file: " << stream_art->sizeBytes()
              << " bytes for " << res.compressed.storage().weight_count
              << " weights (" << res.compression_ratio
              << "x vs fp32; Eq. 7 payload "
              << res.compressed.storage().totalBits() / 8
              << " B); mvqi image: " << image_art->sizeBytes()
              << " bytes, pre-packed for zero-copy load\n";

    // Software check: the reloaded model reproduces the accuracy.
    loaded.applyTo(*net);
    std::cout << "accuracy after reload: "
              << nn::evalClassifier(*net, data, data.testSet())
              << " (pipeline reported " << res.acc_final << ")\n";

    // Hardware check: run the first compressed layer through the array,
    // with the sim's loader consuming the artifact directly.
    const auto acfg = sim::makeHwSetting(sim::HwSetting::EWS_CMS, 16);
    sim::Counters counters;
    const sim::DecodedWeights dec =
        sim::decodeCompressedLayer(acfg, *stream_art, 0, counters);

    const Shape shape = stream_art->layerShape(0);
    Rng rng(77);
    Tensor ifmap(Shape({shape.dim(1), 8, 8}));
    ifmap.fillNormal(rng, 0.0f, 1.0f);
    const sim::LayerRun run =
        sim::SystolicArray(acfg).runConv(ifmap, dec, 1, 1);

    // Reference from the in-memory (pre-serialization) reconstruction.
    Tensor ref_w = res.compressed.reconstructLayer(0);
    Tensor ifmap4 = ifmap.reshaped(Shape({1, shape.dim(1), 8, 8}));
    ConvGeom g{shape.dim(1), 8, 8, shape.dim(2), shape.dim(3), 1, 1};
    Tensor cols = im2col(ifmap4, 0, g);
    Tensor wmat = ref_w.reshaped(Shape({shape.dim(0),
                                        ref_w.numel() / shape.dim(0)}));
    Tensor ref = matmul(wmat, cols).reshaped(run.ofmap.shape());
    std::cout << "array-vs-software max |diff| through the file round "
                 "trip: " << maxAbsDiff(run.ofmap, ref) << "\n";

    // Sparse CPU inference, once per file. The stream artifact packed
    // its operands into an in-memory image at open; the MVQI artifact
    // borrows its operand pointers straight from the mapped file. Same
    // input, same ISA => the outputs must agree to the bit.
    const nn::CompressedConv2d stream_conv(
        stream_art->layerName(0), stream_art->layerShape(0),
        stream_art->packedOperands(0), 1, 1);
    const nn::CompressedConv2d mapped_conv(
        image_art->layerName(0), image_art->layerShape(0),
        image_art->packedOperands(0), 1, 1);
    const Tensor sparse_out = stream_conv.forward(ifmap4);
    const Tensor mapped_out = mapped_conv.forward(ifmap4);
    const bool identical =
        sparse_out.shape() == mapped_out.shape()
        && std::memcmp(sparse_out.data(), mapped_out.data(),
                       static_cast<std::size_t>(sparse_out.numel())
                           * sizeof(float)) == 0;
    std::cout << "sparse-path-vs-array max |diff|: "
              << maxAbsDiff(sparse_out.reshaped(run.ofmap.shape()),
                            run.ofmap)
              << " (operand density " << stream_conv.density() << ", "
              << stream_conv.flopsFor(ifmap4) << " sparse MACs vs "
              << stream_conv.flopsFor(ifmap4)
                     * loaded.layers[0].cfg.pattern.m
                     / loaded.layers[0].cfg.pattern.n
              << " dense)\n";
    std::cout << "mmap-vs-stream forward memcmp: "
              << (identical ? "identical" : "MISMATCH") << "\n";

    std::remove(stream_path.c_str());
    std::remove(image_path.c_str());
    return identical ? 0 : 1;
}
