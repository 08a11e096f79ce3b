#include "nn/compressed_conv2d.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace mvq::nn {

CompressedConv2d::CompressedConv2d(const core::CompressedLayer &layer,
                                   const core::Codebook &codebook,
                                   std::int64_t stride, std::int64_t pad,
                                   std::int64_t groups)
    : name_(layer.name), weight_shape_(layer.weight_shape), stride_(stride),
      pad_(pad), groups_(groups)
{
    fatalIf(stride_ <= 0, name_, ": stride must be positive");
    fatalIf(pad_ < 0, name_, ": negative padding");
    fatalIf(groups_ <= 0, name_, ": groups must be positive");
    fatalIf(weight_shape_.dim(0) % groups_ != 0,
            name_, ": out channels not divisible by groups");

    // The pack stage: decode the mask codes once and pack each group's
    // row range straight into its own CSR — no full-operand pack followed
    // by per-group slice copies.
    group_rows_ = std::make_shared<const std::vector<GroupedSparseMatrix>>(
        layer.packGroupedRows(codebook, groups_));
    for (const auto &sp : *group_rows_)
        nnz_ += sp.rows.nnz();
}

CompressedConv2d::CompressedConv2d(
    std::string name, const Shape &weight_shape,
    std::shared_ptr<const std::vector<GroupedSparseMatrix>> operands,
    std::int64_t stride, std::int64_t pad)
    : name_(std::move(name)), weight_shape_(weight_shape), stride_(stride),
      pad_(pad), groups_(0), group_rows_(std::move(operands))
{
    fatalIf(stride_ <= 0, name_, ": stride must be positive");
    fatalIf(pad_ < 0, name_, ": negative padding");
    fatalIf(weight_shape_.rank() != 4, name_,
            ": expected a 4-D kernel shape, got ", weight_shape_.str());
    fatalIf(group_rows_ == nullptr || group_rows_->empty(), name_,
            ": no packed operands injected");
    groups_ = static_cast<std::int64_t>(group_rows_->size());
    fatalIf(weight_shape_.dim(0) % groups_ != 0,
            name_, ": out channels not divisible by groups");
    const std::int64_t kg = weight_shape_.dim(0) / groups_;
    const std::int64_t unrolled =
        weight_shape_.dim(1) * weight_shape_.dim(2) * weight_shape_.dim(3);
    for (const auto &sp : *group_rows_) {
        fatalIf(sp.rows.rows != kg || sp.rows.cols != unrolled, name_,
                ": injected operand geometry ", sp.rows.rows, "x",
                sp.rows.cols, " does not match the kernel shape ",
                weight_shape_.str(), " with ", groups_, " groups");
        nnz_ += sp.rows.nnz();
    }
}

std::int64_t
CompressedConv2d::flopsFor(const Tensor &x) const
{
    fatalIf(x.rank() != 4, name_, ": expected NCHW input");
    const ConvGeom g{weight_shape_.dim(1), x.dim(2), x.dim(3),
                     weight_shape_.dim(2), weight_shape_.dim(3), stride_,
                     pad_};
    return x.dim(0) * nnz_ * g.outH() * g.outW();
}

double
CompressedConv2d::density() const
{
    const std::int64_t total = weight_shape_.numel();
    return total != 0
        ? static_cast<double>(nnz_) / static_cast<double>(total)
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
    const std::int64_t kg = out_c / groups_;
    ConvGeom g{cg, x.dim(2), x.dim(3), weight_shape_.dim(2),
               weight_shape_.dim(3), stride_, pad_};
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    fatalIf(oh <= 0 || ow <= 0, name_, ": empty output feature map");

    Tensor out(Shape({batch, out_c, oh, ow}));

    // Same schedule as Conv2d::forward: each (batch, group) pair fills a
    // disjoint slab of out, and the sparse gemm writes into that slab
    // directly (the kg output channels are contiguous in NCHW). When the
    // pairs cannot fill the pool, run them serially so the inner gemm
    // gets all the threads.
    //
    // gemmSparseAIm2col reads each pair's padded input in place, never
    // materializing the cols tensor (bit-identical to im2col +
    // gemmSparseARaw). Serially, each gemm spreads its row-block x
    // tile-range tasks over the pool; nested, it runs them inline.
    const std::int64_t work = batch * groups_;
    auto run_pair = [&](std::int64_t w) {
        const std::int64_t n = w / groups_;
        const std::int64_t grp = w % groups_;
        float *po = out.data() + ((n * out_c + grp * kg) * oh * ow);
        const float *slab =
            x.data() + (n * cg * groups_ + grp * cg) * g.in_h * g.in_w;
        gemmSparseAIm2col(groupOperand(grp), Im2colB{slab, g}, po, oh * ow);
    };
    if (work < numThreads()) {
        for (std::int64_t w = 0; w < work; ++w)
            run_pair(w);
    } else {
        parallelFor(0, work, 1, [&](std::int64_t wb, std::int64_t we) {
            for (std::int64_t w = wb; w < we; ++w)
                run_pair(w);
        });
    }

    return out;
}

} // namespace mvq::nn
