#include "nn/compressed_conv2d.hpp"

#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace mvq::nn {

namespace {

/** The pack stage: decode the mask codes once into the layer's CSR. */
std::shared_ptr<const std::vector<GroupedSparseMatrix>>
packOperand(const core::CompressedLayer &layer, const core::Codebook &cb)
{
    return std::make_shared<const std::vector<GroupedSparseMatrix>>(
        1, GroupedSparseMatrix{.rows = layer.packSparseRows(cb)});
}

} // namespace

CompressedConv2d::CompressedConv2d(const core::CompressedLayer &layer,
                                   const core::Codebook &codebook,
                                   std::int64_t stride, std::int64_t pad,
                                   std::int64_t groups)
    : CompressedConv2d(layer.name, layer.weight_shape,
                       packOperand(layer, codebook), stride, pad, groups)
{
}

CompressedConv2d::CompressedConv2d(
    std::string name, const Shape &weight_shape,
    std::shared_ptr<const std::vector<GroupedSparseMatrix>> operands,
    std::int64_t stride, std::int64_t pad, std::int64_t groups)
    : name_(std::move(name)), weight_shape_(weight_shape), stride_(stride),
      pad_(pad), groups_(groups), operands_(std::move(operands))
{
    fatalIf(stride_ <= 0, name_, ": stride must be positive");
    fatalIf(pad_ < 0, name_, ": negative padding");
    fatalIf(groups_ <= 0, name_, ": groups must be positive");
    fatalIf(weight_shape_.rank() != 4, name_,
            ": expected a 4-D kernel shape, got ", weight_shape_.str());
    fatalIf(weight_shape_.dim(0) % groups_ != 0,
            name_, ": out channels not divisible by groups");
    fatalIf(operands_ == nullptr || operands_->size() != 1, name_,
            ": expected one packed operand, got ",
            operands_ ? operands_->size() : 0);
    const std::int64_t unrolled =
        weight_shape_.dim(1) * weight_shape_.dim(2) * weight_shape_.dim(3);
    fatalIf(operand().rows != weight_shape_.dim(0)
                || operand().cols != unrolled,
            name_, ": injected operand geometry ", operand().rows, "x",
            operand().cols, " does not match the kernel shape ",
            weight_shape_.str());
}

std::int64_t
CompressedConv2d::flopsFor(const Tensor &x) const
{
    fatalIf(x.rank() != 4, name_, ": expected NCHW input");
    const ConvGeom g{weight_shape_.dim(1), x.dim(2), x.dim(3),
                     weight_shape_.dim(2), weight_shape_.dim(3), stride_,
                     pad_};
    return x.dim(0) * operand().nnz() * g.outH() * g.outW();
}

double
CompressedConv2d::density() const
{
    const std::int64_t total = weight_shape_.numel();
    return total != 0
        ? static_cast<double>(operand().nnz()) / static_cast<double>(total)
        : 0.0;
}

Tensor
CompressedConv2d::forward(const Tensor &x) const
{
    fatalIf(x.rank() != 4, name_, ": expected NCHW input");
    const std::int64_t cg = weight_shape_.dim(1);
    fatalIf(x.dim(1) != cg * groups_, name_, ": input channels ", x.dim(1),
            " != ", cg * groups_);

    const std::int64_t batch = x.dim(0);
    const std::int64_t out_c = weight_shape_.dim(0);
    ConvGeom g{cg, x.dim(2), x.dim(3), weight_shape_.dim(2),
               weight_shape_.dim(3), stride_, pad_};
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    fatalIf(oh <= 0 || ow <= 0, name_, ": empty output feature map");

    Tensor out(Shape({batch, out_c, oh, ow}));

    // Each image fills a disjoint slab of out, and one sparse gemm over
    // every group writes into it directly. When the images cannot fill
    // the pool, run them serially so the inner gemm gets all the threads.
    //
    // gemmSparseAIm2col reads each image's padded input in place, never
    // materializing the cols tensor (bit-identical to the per-group
    // im2col + gemmSparseARaw compositions). Serially, each gemm spreads
    // its row-block x tile-range tasks over the pool; nested, it runs
    // them inline.
    auto run_image = [&](std::int64_t n) {
        gemmSparseAIm2col(operand(),
                          Im2colB{x.data() + n * x.dim(1) * g.in_h * g.in_w,
                                  g},
                          out.data() + n * out_c * oh * ow, oh * ow, groups_);
    };
    if (batch < numThreads()) {
        for (std::int64_t n = 0; n < batch; ++n)
            run_image(n);
    } else {
        parallelFor(0, batch, 1, [&](std::int64_t nb, std::int64_t ne) {
            for (std::int64_t n = nb; n < ne; ++n)
                run_image(n);
        });
    }

    return out;
}

} // namespace mvq::nn
