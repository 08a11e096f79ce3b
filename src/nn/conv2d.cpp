#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace mvq::nn {

// Group grp of the [K, C/groups, R, S] weight tensor is a contiguous
// [kg, wcols] slab (kg = K/groups rows of wcols = (C/groups)*R*S), and a
// (batch, group) block of an NCHW activation covers kg contiguous
// channel planes — so both sides of every conv gemm are plain pointer
// views and the raw-pointer gemm entry points write results in place.
// The seed packed per-group weight copies and memcpy'd each gemm result
// into the output slab; both copies are gone.

Conv2d::Conv2d(std::string name, const Conv2dConfig &cfg, Rng &rng)
    : name_(std::move(name)), cfg_(cfg)
{
    fatalIf(cfg_.in_channels % cfg_.groups != 0,
            name_, ": in_channels not divisible by groups");
    fatalIf(cfg_.out_channels % cfg_.groups != 0,
            name_, ": out_channels not divisible by groups");

    const std::int64_t cg = cfg_.in_channels / cfg_.groups;
    Tensor w(Shape({cfg_.out_channels, cg, cfg_.kernel, cfg_.kernel}));
    // Kaiming-uniform with fan-in = cg * k * k.
    const float fan_in =
        static_cast<float>(cg * cfg_.kernel * cfg_.kernel);
    const float bound = std::sqrt(6.0f / fan_in);
    w.fillUniform(rng, -bound, bound);
    weight_ = Parameter(name_ + ".weight", std::move(w));

    if (cfg_.bias)
        bias_ = Parameter(name_ + ".bias", Tensor(Shape({cfg_.out_channels})));
}

Tensor
Conv2d::forward(const Tensor &x, bool train)
{
    fatalIf(x.rank() != 4, name_, ": expected NCHW input");
    fatalIf(x.dim(1) != cfg_.in_channels,
            name_, ": input channels ", x.dim(1), " != ", cfg_.in_channels);

    const std::int64_t batch = x.dim(0);
    const std::int64_t cg = cfg_.in_channels / cfg_.groups;
    const std::int64_t kg = cfg_.out_channels / cfg_.groups;
    ConvGeom g{cg, x.dim(2), x.dim(3), cfg_.kernel, cfg_.kernel,
               cfg_.stride, cfg_.pad};
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    fatalIf(oh <= 0 || ow <= 0, name_, ": empty output feature map");

    Tensor out(Shape({batch, cfg_.out_channels, oh, ow}));

    const std::int64_t wcols = cg * cfg_.kernel * cfg_.kernel;
    const float *pw = weight_.value.data();

    // Each (batch, group) pair fills a disjoint slab of out. When there
    // are fewer pairs than threads, run the outer loop serially so the
    // inner gemm can use the whole pool instead of being forced inline;
    // either way each pair's result is bit-identical.
    //
    // The gemm takes the (batch, group) input slab as a geometry-described
    // B operand and reads its zero-padded input in place, so the cols
    // tensor is never materialized (bit-identical to im2col + gemmRaw,
    // see gemmIm2colRaw).
    const std::int64_t work = batch * cfg_.groups;
    auto run_pair = [&](std::int64_t w) {
        const std::int64_t n = w / cfg_.groups;
        const std::int64_t grp = w % cfg_.groups;
        // out slab = W_grp * cols, written in place.
        float *po = out.data()
            + ((n * cfg_.out_channels + grp * kg) * oh * ow);
        const float *slab = x.data()
            + (n * cfg_.in_channels + grp * cg) * g.in_h * g.in_w;
        gemmIm2colRaw(kg, pw + grp * kg * wcols, wcols, Im2colB{slab, g},
                      po, oh * ow);
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

    if (cfg_.bias) {
        parallelFor(0, batch * cfg_.out_channels, 8,
                    [&](std::int64_t kb, std::int64_t ke) {
            for (std::int64_t nk = kb; nk < ke; ++nk) {
                const float b = bias_.value[nk % cfg_.out_channels];
                float *po = out.data() + nk * oh * ow;
                for (std::int64_t i = 0; i < oh * ow; ++i)
                    po[i] += b;
            }
        });
    }

    flops_ = batch * cfg_.out_channels * oh * ow * wcols;
    if (train)
        cachedInput = x;
    return out;
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    const Tensor &x = cachedInput;
    fatalIf(x.numel() == 0, name_, ": backward without forward");

    const std::int64_t batch = x.dim(0);
    const std::int64_t cg = cfg_.in_channels / cfg_.groups;
    const std::int64_t kg = cfg_.out_channels / cfg_.groups;
    ConvGeom g{cg, x.dim(2), x.dim(3), cfg_.kernel, cfg_.kernel,
               cfg_.stride, cfg_.pad};
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    const std::int64_t wcols = cg * cfg_.kernel * cfg_.kernel;

    Tensor grad_in(x.shape());

    const float *pw = weight_.value.data();

    // The (batch, group) pairs write disjoint slabs of grad_in, but all
    // accumulate into the shared weight gradient, so each chunk collects
    // its own partial dW; the partials fold together in chunk order below,
    // keeping the sum identical for any thread count. The chunk count is
    // capped at a fixed constant (not the thread count, which would break
    // determinism) so transient memory stays at <= 16 weight-grad copies
    // however large the batch is.
    const std::int64_t work = batch * cfg_.groups;
    const std::int64_t grain = std::max<std::int64_t>(1, (work + 15) / 16);
    const std::int64_t nchunks = chunkCount(0, work, grain);
    std::vector<Tensor> wgrad_partial(static_cast<std::size_t>(nchunks));
    auto run_chunk = [&](std::int64_t chunk, std::int64_t wb,
                         std::int64_t we) {
        Tensor dw(weight_.grad.shape());
        Tensor gcols(Shape({wcols, oh * ow}));
        for (std::int64_t w = wb; w < we; ++w) {
            const std::int64_t n = w / cfg_.groups;
            const std::int64_t grp = w % cfg_.groups;
            Tensor cols = im2col(x, n, g, grp * cg);

            // Gradient slab for this group, viewed as [kg, oh*ow].
            const float *pg = grad_out.data()
                + ((n * cfg_.out_channels + grp * kg) * oh * ow);

            // dW slab += G * cols^T, accumulated in place.
            gemmRaw(kg, wcols, oh * ow, pg, oh * ow, false, cols.data(),
                    oh * ow, true, dw.data() + grp * kg * wcols, wcols,
                    /*accumulate=*/true);

            // dCols = W_grp^T * G, scatter back to input gradient.
            gemmRaw(wcols, oh * ow, kg, pw + grp * kg * wcols, wcols, true,
                    pg, oh * ow, false, gcols.data(), oh * ow);
            col2im(gcols, grad_in, n, g, grp * cg);
        }
        wgrad_partial[static_cast<std::size_t>(chunk)] = std::move(dw);
    };
    // Same small-batch rule as forward: hand the pool to the inner
    // kernels when the outer loop cannot fill it. The chunk partition is
    // identical either way, so the fold below is unchanged.
    if (work < numThreads()) {
        for (std::int64_t chunk = 0; chunk < nchunks; ++chunk)
            run_chunk(chunk, chunk * grain,
                      std::min(work, (chunk + 1) * grain));
    } else {
        parallelForChunks(0, work, grain, run_chunk);
    }
    for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
        const Tensor &dw = wgrad_partial[static_cast<std::size_t>(chunk)];
        float *pwg = weight_.grad.data();
        for (std::int64_t i = 0; i < weight_.grad.numel(); ++i)
            pwg[i] += dw[i];
    }

    if (cfg_.bias) {
        // Serial over channels: batch-major accumulation keeps the order
        // the seed used, and the work is tiny.
        for (std::int64_t n = 0; n < batch; ++n) {
            for (std::int64_t k = 0; k < cfg_.out_channels; ++k) {
                const float *pg = grad_out.data()
                    + (n * cfg_.out_channels + k) * oh * ow;
                float s = 0.0f;
                for (std::int64_t i = 0; i < oh * ow; ++i)
                    s += pg[i];
                bias_.grad[k] += s;
            }
        }
    }

    return grad_in;
}

std::vector<Parameter *>
Conv2d::parameters()
{
    std::vector<Parameter *> ps{&weight_};
    if (cfg_.bias)
        ps.push_back(&bias_);
    return ps;
}

void
Conv2d::setWeight(const Tensor &w)
{
    fatalIf(w.shape() != weight_.value.shape(),
            name_, ": setWeight shape mismatch ", w.shape().str());
    weight_.value = w;
}

} // namespace mvq::nn
