#include "nets.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/mask_codec.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace mvq;

namespace {

/** Standard deviation of a uniform integer level in [-127, 127]. */
const double kLevelStd = std::sqrt((255.0 * 255.0 - 1.0) / 12.0);

/** Elements per chunk of the parallel elementwise glue ops. */
constexpr std::int64_t kGlueGrain = 1 << 15;

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void
reluInPlace(Tensor &t)
{
    trace::Span s("glue", "relu");
    float *p = t.data();
    parallelFor(0, t.numel(), kGlueGrain,
                [p](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i)
                        p[i] = p[i] > 0.0f ? p[i] : 0.0f;
                });
}

void
addInPlaceGlue(Tensor &a, const Tensor &b)
{
    trace::Span s("glue", "add");
    fatalIf(a.shape() != b.shape(), "residual add: branch shapes differ: ",
            a.shape().str(), " vs ", b.shape().str());
    float *pa = a.data();
    const float *pb = b.data();
    parallelFor(0, a.numel(), kGlueGrain,
                [pa, pb](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        pa[i] += pb[i];
                });
}

/** The ResNet stem's 3x3 stride-2 pad-1 max-pool. */
Tensor
maxPool3x3s2(const Tensor &x)
{
    trace::Span s("glue", "maxpool");
    const std::int64_t h = x.dim(2);
    const std::int64_t w = x.dim(3);
    const std::int64_t oh = (h + 2 - 3) / 2 + 1;
    const std::int64_t ow = (w + 2 - 3) / 2 + 1;
    Tensor out(Shape({x.dim(0), x.dim(1), oh, ow}));
    const float *src = x.data();
    float *dst = out.data();
    parallelFor(0, x.dim(0) * x.dim(1), 1,
                [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t pl = b; pl < e; ++pl) {
                        const float *in = src + pl * h * w;
                        float *o = dst + pl * oh * ow;
                        for (std::int64_t y = 0; y < oh; ++y)
                            for (std::int64_t xx = 0; xx < ow; ++xx) {
                                float best =
                                    -std::numeric_limits<float>::infinity();
                                for (std::int64_t ky = 0; ky < 3; ++ky) {
                                    const std::int64_t iy = y * 2 - 1 + ky;
                                    if (iy < 0 || iy >= h)
                                        continue;
                                    for (std::int64_t kx = 0; kx < 3; ++kx) {
                                        const std::int64_t ix =
                                            xx * 2 - 1 + kx;
                                        if (ix >= 0 && ix < w
                                            && in[iy * w + ix] > best)
                                            best = in[iy * w + ix];
                                    }
                                }
                                o[y * ow + xx] = best;
                            }
                    }
                });
    return out;
}

nn::Conv2dConfig
denseConfig(const models::ConvLayerSpec &c)
{
    nn::Conv2dConfig cfg;
    cfg.in_channels = c.in_c;
    cfg.out_channels = c.out_c;
    cfg.kernel = c.kernel;
    cfg.stride = c.stride;
    cfg.pad = c.pad;
    cfg.groups = c.groups;
    return cfg;
}

} // namespace

NetSpec
resnet18Net()
{
    return {"resnet18", models::resnet18Spec().convs, 3, 224};
}

NetSpec
scaledNet(const NetSpec &net, std::int64_t channel_div, std::int64_t in_hw)
{
    NetSpec out = net;
    out.in_hw = in_hw;
    for (models::ConvLayerSpec &c : out.convs) {
        fatalIf(c.out_c % channel_div != 0
                    || (c.in_h * in_hw) % net.in_hw != 0,
                "scaledNet: ", c.name, " does not scale by ", channel_div,
                " / ", in_hw);
        c.out_c /= channel_div;
        if (c.in_c != net.in_c)
            c.in_c /= channel_div;
        c.in_h = c.in_h * in_hw / net.in_hw;
        c.in_w = c.in_h;
    }
    return out;
}

const char *
convClass(const std::string &name)
{
    static const char *const kStages[] = {"stage1", "stage2", "stage3",
                                          "stage4"};
    if (name == "conv1")
        return "stem";
    if (name.rfind("layer", 0) == 0 && name.size() > 5) {
        if (endsWith(name, ".down"))
            return "down";
        const int stage = name[5] - '1';
        if (stage >= 0 && stage < 4)
            return kStages[stage];
    }
    fatal("no layer class for conv '", name, "'");
}

const std::vector<std::string> &
convClasses()
{
    static const std::vector<std::string> kClasses = {
        "stem", "stage1", "stage2", "stage3", "stage4", "down"};
    return kClasses;
}

core::CompressedModel
synthesizeModel(const NetSpec &net, std::uint64_t seed)
{
    using namespace core;
    CompressedModel model;
    Rng rng(seed);
    const NmPattern pattern{kPatternN, kPatternM};
    const MaskCodec codec(pattern);
    for (std::size_t i = 0; i < net.convs.size(); ++i) {
        const models::ConvLayerSpec &c = net.convs[i];
        Rng lr(rng.fork());

        const double kept_fan_in =
            static_cast<double>(c.in_c / c.groups * c.kernel * c.kernel)
            * kPatternN / kPatternM;
        Codebook cb;
        cb.qbits = 8;
        cb.scale = static_cast<float>(std::sqrt(1.0 / kept_fan_in) / kLevelStd);
        cb.codewords = Tensor(Shape({kCodewords, kSubvector}));
        for (std::int64_t j = 0; j < cb.codewords.numel(); ++j)
            cb.codewords[j] =
                static_cast<float>(lr.intIn(-127, 127)) * cb.scale;
        model.codebooks.push_back(std::move(cb));

        CompressedLayer l;
        l.name = c.name;
        l.weight_shape =
            Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel});
        l.cfg.k = kCodewords;
        l.cfg.d = kSubvector;
        l.cfg.pattern = pattern;
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = static_cast<int>(i);
        l.dense_flops = 2 * c.macs();
        const std::int64_t ng = l.weight_shape.numel() / kSubvector;
        l.assignments.resize(static_cast<std::size_t>(ng));
        for (auto &a : l.assignments)
            a = static_cast<std::int32_t>(lr.intIn(0, kCodewords - 1));
        l.mask_codes.resize(
            static_cast<std::size_t>(ng * (kSubvector / kPatternM)));
        for (auto &m : l.mask_codes)
            m = static_cast<std::uint32_t>(lr.intIn(
                0, static_cast<std::int64_t>(codec.codeCount()) - 1));
        model.layers.push_back(std::move(l));
    }
    return model;
}

core::io::MvqiWriteOptions
bakedGroups(const NetSpec &net)
{
    core::io::MvqiWriteOptions opts;
    for (const models::ConvLayerSpec &c : net.convs)
        opts.layer_groups[c.name] = c.groups;
    return opts;
}

std::vector<Tensor>
makeImages(const NetSpec &net, std::uint64_t seed, int count)
{
    Rng rng(seed ^ 0x1f3a5c7e9b2d4f60ULL);
    std::vector<Tensor> images;
    for (int i = 0; i < count; ++i) {
        Tensor img(Shape({net.in_c, net.in_hw, net.in_hw}));
        img.fillNormal(rng, 0.0f, 1.0f);
        images.push_back(std::move(img));
    }
    return images;
}

Tensor
stackImages(const std::vector<Tensor> &images)
{
    const Tensor &first = images.front();
    Tensor out(Shape({static_cast<std::int64_t>(images.size()),
                      first.dim(0), first.dim(1), first.dim(2)}));
    for (std::size_t i = 0; i < images.size(); ++i)
        std::memcpy(out.data() + static_cast<std::int64_t>(i) * first.numel(),
                    images[i].data(),
                    static_cast<std::size_t>(first.numel()) * sizeof(float));
    return out;
}

ServedNet::ServedNet(const NetSpec &net, const core::io::ModelArtifact &art)
{
    const auto n = static_cast<std::int64_t>(net.convs.size());
    fatalIf(art.layerCount() != n, "artifact ", art.path(), " has ",
            art.layerCount(), " layers, ", net.name, " has ", n);
    for (std::int64_t i = 0; i < n; ++i) {
        const models::ConvLayerSpec &c = net.convs[static_cast<std::size_t>(i)];
        fatalIf(art.layerName(i) != c.name, "artifact layer ", i, " is '",
                art.layerName(i), "', expected '", c.name, "'");
        cls_.push_back(convClass(c.name));
        core::io::SharedOperands ops;
        {
            trace::Span s("io", "packedOperands");
            ops = art.packedOperands(i, c.groups);
        }
        convs_.emplace_back(c.name, art.layerShape(i), std::move(ops),
                            c.stride, c.pad);
    }
    for (std::size_t i = 1; i < net.convs.size(); ++i) {
        const std::string &name = net.convs[i].name;
        if (endsWith(name, ".conv1")) {
            blocks_.push_back(Block{i, 0, -1});
            continue;
        }
        fatalIf(blocks_.empty(), "conv '", name, "' precedes any block");
        if (endsWith(name, ".conv2"))
            blocks_.back().conv2 = i;
        else if (endsWith(name, ".down"))
            blocks_.back().down = static_cast<std::ptrdiff_t>(i);
        else
            fatal("conv '", name, "' is not part of a residual block");
    }
    for (const Block &b : blocks_)
        fatalIf(b.conv2 == 0, "block at conv ", b.conv1, " has no conv2");
}

std::int64_t
ServedNet::layerCount() const
{
    return static_cast<std::int64_t>(cls_.size());
}

const nn::CompressedConv2d &
ServedNet::layer(std::int64_t i) const
{
    return convs_[static_cast<std::size_t>(i)];
}

Tensor
ServedNet::conv(std::size_t i, const Tensor &x) const
{
    const nn::CompressedConv2d &l = layer(static_cast<std::int64_t>(i));
    trace::Span s(cls_[i], l.name());
    return l.forward(x);
}

Tensor
ServedNet::forward(const Tensor &x) const
{
    Tensor y = conv(0, x);
    reluInPlace(y);
    y = maxPool3x3s2(y);
    for (const Block &b : blocks_) {
        Tensor h = conv(b.conv1, y);
        reluInPlace(h);
        Tensor out = conv(b.conv2, h);
        if (b.down >= 0)
            addInPlaceGlue(out, conv(static_cast<std::size_t>(b.down), y));
        else
            addInPlaceGlue(out, y);
        reluInPlace(out);
        y = std::move(out);
    }
    return y;
}

std::unique_ptr<nn::Sequential>
denseOracle(const NetSpec &net, const core::CompressedModel &model)
{
    Rng rng(1); // initial kernels are overwritten by applyTo
    auto seq = std::make_unique<nn::Sequential>(net.name + "_dense");
    const auto &convs = net.convs;
    seq->add<nn::Conv2d>(convs[0].name, denseConfig(convs[0]), rng);
    seq->add<nn::ReLU>("stem.relu");
    seq->add<nn::MaxPool2d>("stem.maxpool", 3, 2, 1);
    for (std::size_t i = 1; i < convs.size();) {
        const std::string prefix =
            convs[i].name.substr(0, convs[i].name.rfind('.'));
        auto main = std::make_unique<nn::Sequential>(prefix + ".main");
        main->add<nn::Conv2d>(convs[i].name, denseConfig(convs[i]), rng);
        main->add<nn::ReLU>(prefix + ".relu");
        main->add<nn::Conv2d>(convs[i + 1].name, denseConfig(convs[i + 1]),
                              rng);
        i += 2;
        std::unique_ptr<nn::Sequential> skip;
        if (i < convs.size() && endsWith(convs[i].name, ".down")) {
            skip = std::make_unique<nn::Sequential>(prefix + ".skip");
            skip->add<nn::Conv2d>(convs[i].name, denseConfig(convs[i]), rng);
            ++i;
        }
        seq->add<nn::Residual>(prefix, std::move(main), std::move(skip),
                               true);
    }
    model.applyTo(*seq);
    return seq;
}

double
denseConvMs(const models::ConvLayerSpec &c, const Tensor &weight,
            std::int64_t batch, int reps)
{
    Rng rng(2);
    nn::Conv2d conv(c.name, denseConfig(c), rng);
    conv.setWeight(weight);
    Tensor x(Shape({batch, c.in_c, c.in_h, c.in_w}));
    x.fillNormal(rng, 0.0f, 1.0f);
    conv.forward(x, false);
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const double t0 = trace::nowMs();
        conv.forward(x, false);
        ms.push_back(trace::nowMs() - t0);
    }
    return percentile(ms, 0.5);
}

double
relError(const float *a, const float *b, std::int64_t n)
{
    double diff = 0.0;
    double scale = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        diff = std::max(diff, std::fabs(static_cast<double>(a[i]) - b[i]));
        scale = std::max(scale, std::fabs(static_cast<double>(b[i])));
    }
    return scale > 0.0 ? diff / scale : diff;
}

bool
allFinite(const Tensor &t)
{
    for (std::int64_t i = 0; i < t.numel(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

double
rms(const Tensor &t)
{
    return t.numel() > 0
        ? std::sqrt(t.sumSquares() / static_cast<double>(t.numel()))
        : 0.0;
}

} // namespace perfbench
