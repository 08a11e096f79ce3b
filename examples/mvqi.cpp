/**
 * @file
 * `mvqi` — conversion / inspection CLI for compressed-model artifacts.
 *
 *   mvqi info <file>                     describe an artifact (either
 *                                        format; layer + codebook table)
 *   mvqi convert <in> <out> [options]    re-encode between the bit-packed
 *                                        stream and the MVQI image
 *   mvqi verify <file>                   load + fully validate every
 *                                        layer's packed operands
 *
 * convert options:
 *   --to stream|mvqi          target format (default: by <out> extension,
 *                             ".mvqi" => mvqi, anything else => stream)
 *   --layer-groups name=N     conv groups an MVQI output records for that
 *                             layer (repeatable; the name must be a layer
 *                             of the model; N a whole number >= 1)
 * Every other layer keeps the groups its input records (1 for a stream,
 * which stores no conv geometry).
 *
 * Exit status: 0 on success, 1 on usage errors, 2 on a FatalError (a bad
 * option value, corrupt input), whose message goes to stderr.
 */

#include <charconv>
#include <iostream>
#include <string>
#include <system_error>

#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"

namespace {

using namespace mvq;
using namespace mvq::core::io;

int
usage()
{
    std::cerr << "usage:\n"
                 "  mvqi info <file>\n"
                 "  mvqi convert <in> <out> [--to stream|mvqi] "
                 "[--layer-groups name=N]...\n"
                 "  mvqi verify <file>\n";
    return 1;
}

/** A conv group count: a whole decimal number >= 1, nothing after it. */
std::int64_t
parseGroups(const std::string &flag, const std::string &v)
{
    std::int64_t n = 0;
    const char *end = v.data() + v.size();
    const auto [stop, ec] = std::from_chars(v.data(), end, n);
    fatalIf(ec != std::errc() || stop != end || n < 1, flag,
            " expects a whole number >= 1, got '", v, "'");
    return n;
}

void
describeLayer(const ModelArtifact &art, std::int64_t i)
{
    const core::CompressedLayer &cl =
        art.model().layers[static_cast<std::size_t>(i)];
    std::cout << "  layer " << i << ": '" << cl.name << "' "
              << cl.weight_shape.str() << "  k=" << cl.cfg.k
              << " d=" << cl.cfg.d << " " << cl.cfg.pattern.n << ":"
              << cl.cfg.pattern.m << " ("
              << core::groupingName(cl.cfg.grouping) << ", codebook "
              << cl.codebook_id << ", ng=" << cl.ng() << ")"
              << "  [pre-packed, groups=" << art.layerGroups(i) << "]\n";
}

int
cmdInfo(const std::string &path)
{
    const auto art = openArtifact(path);
    std::cout << path << ": " << artifactFormatName(art->format())
              << " artifact, " << art->sizeBytes() << " bytes, "
              << art->layerCount() << " layers\n";
    const core::CompressedModel &m = art->model();
    std::cout << "  storage: " << m.storage().totalBits() / 8
              << " B payload, " << m.compressionRatio()
              << "x vs fp32, dense_reconstruct="
              << (m.dense_reconstruct ? "yes" : "no") << "\n";
    for (std::size_t b = 0; b < m.codebooks.size(); ++b) {
        const core::Codebook &cb = m.codebooks[b];
        std::cout << "  codebook " << b << ": k=" << cb.k() << " d="
                  << cb.d() << " qbits=" << cb.qbits << " scale="
                  << cb.scale << "\n";
    }
    for (std::int64_t i = 0; i < art->layerCount(); ++i)
        describeLayer(*art, i);
    std::cout << "  backing: MVQI v" << art->view().header().version
              << " image, "
              << (art->mapped() ? "mmap" : "built in memory") << "\n";
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string in = argv[2];
    const std::string out = argv[3];
    bool to_set = false;
    ArtifactFormat to = ArtifactFormat::Stream;
    MvqiWriteOptions opts;
    for (int a = 4; a < argc; ++a) {
        const std::string arg = argv[a];
        const auto next = [&]() -> std::string {
            fatalIf(a + 1 >= argc, "missing value after ", arg);
            return argv[++a];
        };
        if (arg == "--to") {
            const std::string v = next();
            fatalIf(v != "stream" && v != "mvqi",
                    "--to expects 'stream' or 'mvqi', got ", v);
            to = v == "mvqi" ? ArtifactFormat::Mvqi
                             : ArtifactFormat::Stream;
            to_set = true;
        } else if (arg == "--layer-groups") {
            const std::string v = next();
            const auto eq = v.find('=');
            fatalIf(eq == std::string::npos,
                    "--layer-groups expects name=N, got ", v);
            opts.layer_groups[v.substr(0, eq)] =
                parseGroups(arg, v.substr(eq + 1));
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        }
    }
    if (!to_set && out.size() >= 5
        && out.compare(out.size() - 5, 5, ".mvqi") == 0)
        to = ArtifactFormat::Mvqi;

    const auto art = openArtifact(in);
    // A layer no --layer-groups names keeps the groups its input records.
    for (std::int64_t i = 0; i < art->layerCount(); ++i)
        opts.layer_groups.emplace(art->layerName(i), art->layerGroups(i));
    saveArtifact(art->model(), out, to, opts);
    std::cout << in << " (" << artifactFormatName(art->format()) << ", "
              << art->sizeBytes() << " B) -> " << out << " ("
              << artifactFormatName(to) << ", "
              << openArtifact(out)->sizeBytes() << " B)\n";
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const auto art = openArtifact(path);
    std::int64_t nnz = 0;
    for (std::int64_t i = 0; i < art->layerCount(); ++i) {
        // openArtifact checked every operand's geometry against its
        // layer; packedOperands runs the full O(nnz) semantic validation
        // (validateSparseOperand over the borrowed CSR).
        nnz += art->packedOperands(i)->front().rows.nnz();
    }
    std::cout << path << ": OK ("
              << artifactFormatName(art->format()) << ", "
              << art->layerCount() << " layers, " << nnz
              << " packed nonzeros validated)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "info")
            return cmdInfo(argv[2]);
        if (cmd == "convert")
            return cmdConvert(argc, argv);
        if (cmd == "verify")
            return cmdVerify(argv[2]);
    } catch (const mvq::FatalError &e) {
        std::cerr << "mvqi: " << e.what() << "\n";
        return 2;
    }
    return usage();
}
