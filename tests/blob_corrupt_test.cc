/**
 * @file
 * Corrupt-blob suite: deterministically mutated .rnnb bytes —
 * truncations, bit flips, header/section-table patches, meta-stream
 * count inflations (50+ seeded mutations) — must each either load
 * cleanly or be rejected with one clean fatal() line (exit 1); never
 * abort, segfault, or trip a sanitizer. Runs under the `asan` preset
 * in CI alongside the text-format corrupt-model suite.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <vector>

#include "blob/blob.hh"
#include "blob/format.hh"
#include "composer/composer.hh"
#include "nn/recurrent.hh"
#include "nn/synthetic.hh"
#include "nn/trainer.hh"
#include "rna/chip.hh"

namespace rapidnn::blob {
namespace {

/** Blob bytes of a small trained MLP reinterpretation. */
const std::vector<uint8_t> &
mlpCorpus()
{
    static const std::vector<uint8_t> bytes = [] {
        nn::Dataset data = nn::makeVectorTask(
            {"blob-corrupt", 8, 3, 120, 0.35, 1.0, 911});
        Rng rng(912);
        nn::Network net = nn::buildMlp({.inputs = 8, .hidden = {6},
                                        .outputs = 3}, rng);
        nn::Trainer({.epochs = 2, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, data);
        composer::Composer comp({});
        composer::ReinterpretedModel model =
            comp.reinterpret(net, data);
        model.setCanonicalInputShape(data.featureShape());
        return buildBlob(model);
    }();
    return bytes;
}

/** Blob bytes of a small trained CNN reinterpretation. */
const std::vector<uint8_t> &
convCorpus()
{
    static const std::vector<uint8_t> bytes = [] {
        nn::ImageTaskSpec spec;
        spec.name = "blob-corrupt-conv";
        spec.side = 6;
        spec.classes = 3;
        spec.samples = 90;
        spec.seed = 915;
        nn::Dataset data = nn::makeImageTask(spec);
        Rng rng(916);
        nn::CnnSpec cnn;
        cnn.channels = 3;
        cnn.height = cnn.width = 6;
        cnn.convChannels = {4};
        cnn.denseWidths = {8};
        cnn.outputs = 3;
        nn::Network net = nn::buildCnn(cnn, rng);
        nn::Trainer({.epochs = 2, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, data);
        composer::Composer comp({});
        composer::ReinterpretedModel model =
            comp.reinterpret(net, data);
        model.setCanonicalInputShape(data.featureShape());
        return buildBlob(model);
    }();
    return bytes;
}

/** Blob bytes of a tiny recurrent reinterpretation. */
const std::vector<uint8_t> &
recurrentCorpus()
{
    static const std::vector<uint8_t> bytes = [] {
        nn::SequenceTaskSpec spec;
        spec.name = "blob-corrupt-seq";
        spec.features = 4;
        spec.steps = 3;
        spec.classes = 3;
        spec.samples = 90;
        spec.seed = 913;
        nn::Dataset data = nn::makeSequenceTask(spec);
        Rng rng(914);
        nn::Network net;
        net.add(std::make_unique<nn::ElmanLayer>(
            4, 5, 3, nn::ActKind::Tanh, rng));
        net.add(std::make_unique<nn::DenseLayer>(5, 3, rng));
        nn::Trainer({.epochs = 2, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, data);
        composer::Composer comp({});
        composer::ReinterpretedModel model =
            comp.reinterpret(net, data);
        model.setCanonicalInputShape(data.featureShape());
        return buildBlob(model);
    }();
    return bytes;
}

/**
 * Attempt a load and exit: 0 on clean success, 1 via fatal() on clean
 * rejection. Runs only inside a death-test child.
 */
[[noreturn]] void
loadAndExit(std::vector<uint8_t> bytes)
{
    {
        auto blob = ModelBlob::fromBytes(std::move(bytes));
        // Touch the loaded structure the way a deployment would.
        volatile size_t sink = blob->model().memoryBytes() +
            blob->model().describe().size();
        (void)sink;
    }
    std::exit(0);
}

/** Child exited (no signal) with 0 (loaded) or 1 (rejected). */
bool
exitedCleanly(int status)
{
    return WIFEXITED(status) &&
           (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

/** Child exited with 1: the load was rejected by fatal(). */
bool
exitedRejected(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) == 1;
}

class CorruptBlob : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Same discipline as the text-format corrupt suite: fatal()
        // exits without unwinding (leak checking is meaningless) and
        // sanitizer findings must abort so they can never masquerade
        // as a clean exit(1).
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
        setenv("ASAN_OPTIONS", "detect_leaks=0:abort_on_error=1", 1);
        setenv("UBSAN_OPTIONS", "abort_on_error=1", 1);
    }
};

TEST_F(CorruptBlob, IntactCorporaLoadInProcess)
{
    auto mlp = ModelBlob::fromBytes(mlpCorpus());
    EXPECT_FALSE(mlp->model().layers().empty());
    auto rec = ModelBlob::fromBytes(recurrentCorpus());
    EXPECT_EQ(rec->model().layers()[0].kind,
              composer::RLayerKind::Recurrent);
}

TEST_F(CorruptBlob, TruncationsRejectCleanly)
{
    const std::vector<uint8_t> &bytes = mlpCorpus();
    ASSERT_GT(bytes.size(), size_t(kHeaderBytes));
    for (uint64_t seed = 0; seed < 14; ++seed) {
        // Every truncation breaks the header's fileBytes claim (or,
        // cut inside the header, the header itself).
        const size_t cut = (seed * 2654435761ULL) % (bytes.size() - 1);
        std::vector<uint8_t> mutated(bytes.begin(),
                                     bytes.begin() + cut);
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << "truncate at " << cut;
    }
}

TEST_F(CorruptBlob, BitFlipsNeverCrash)
{
    const std::vector<uint8_t> &bytes = mlpCorpus();
    for (uint64_t seed = 0; seed < 14; ++seed) {
        uint64_t x = 0x9e3779b97f4a7c15ULL * (seed + 1)
            + 0xbf58476d1ce4e5b9ULL;
        const auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        std::vector<uint8_t> mutated = bytes;
        const size_t byte = next() % mutated.size();
        const int bit = static_cast<int>(next() % 8);
        mutated[byte] = static_cast<uint8_t>(
            mutated[byte] ^ (1u << bit));
        // A flip inside a double payload may load fine (exit 0); a
        // flip in the structure must reject (exit 1). Either way, no
        // crash and no sanitizer report.
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedCleanly, "")
            << "flip byte " << byte << " bit " << bit;
    }
}

TEST_F(CorruptBlob, HeaderPatchesRejectCleanly)
{
    const std::vector<uint8_t> &bytes = mlpCorpus();
    struct Patch
    {
        const char *what;
        size_t offset;
        uint64_t value;
        int width; //!< 4 or 8
    };
    const Patch patches[] = {
        {"bad magic", 0, 0xdeadbeef, 4},
        {"future version", 4, kBlobVersion + 7, 4},
        {"unknown flags", 8, 0x80, 4},
        {"wrong header size", 12, 128, 4},
        {"inflated fileBytes", 16, uint64_t(1) << 40, 8},
        {"shrunk fileBytes", 16, 32, 8},
        {"zero sections", 24, 0, 8},
        {"absurd section count", 24, uint64_t(1) << 32, 8},
        {"shifted section table", 32, 128, 8},
        {"meta index out of range", 40, uint64_t(1) << 19, 8},
    };
    for (const Patch &p : patches) {
        std::vector<uint8_t> mutated = bytes;
        if (p.width == 4)
            putU32(mutated.data() + p.offset,
                   static_cast<uint32_t>(p.value));
        else
            putU64(mutated.data() + p.offset, p.value);
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << p.what;
    }
}

TEST_F(CorruptBlob, SectionTablePatchesRejectCleanly)
{
    const std::vector<uint8_t> &bytes = mlpCorpus();
    const uint64_t sectionCount = getU64(bytes.data() + 24);
    ASSERT_GE(sectionCount, 4u);
    // Patch fields of section entries 1.. (0 is the meta stream):
    // kind, alignment, offset past EOF, size past EOF, unaligned
    // offset, offset into the header.
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const uint64_t idx = 1 + (seed * 7919) % (sectionCount - 1);
        const size_t entry = kHeaderBytes + idx * kSectionEntryBytes;
        std::vector<uint8_t> mutated = bytes;
        switch (seed % 6) {
          case 0: // unknown kind
            putU32(mutated.data() + entry, 99);
            break;
          case 1: // non-power-of-two alignment
            putU32(mutated.data() + entry + 4, 24);
            break;
          case 2: // offset past end of file
            putU64(mutated.data() + entry + 8, bytes.size() + 64);
            break;
          case 3: // size overruns the file
            putU64(mutated.data() + entry + 16,
                   uint64_t(bytes.size()));
            break;
          case 4: // misaligned offset
            putU64(mutated.data() + entry + 8,
                   getU64(bytes.data() + entry + 8) + 1);
            break;
          case 5: // offset inside the header/table region
            putU64(mutated.data() + entry + 8, 0);
            break;
        }
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << "section " << idx << " variant " << seed % 6;
    }
}

TEST_F(CorruptBlob, MetaInflationsRejectCleanly)
{
    // Overwrite meta-stream words with a huge value: every word is a
    // bounded count, flag, kind, dimension, section reference or
    // sentinel, so each patch must be rejected at its bound — never
    // by sizing an allocation or indexing from it.
    const std::vector<uint8_t> &bytes = mlpCorpus();
    const uint64_t metaOffset = getU64(
        bytes.data() + kHeaderBytes + 8);
    const uint64_t metaSize = getU64(
        bytes.data() + kHeaderBytes + 16);
    const uint64_t words = metaSize / 8;
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const uint64_t word = (seed * 6364136223846793005ULL) % words;
        std::vector<uint8_t> mutated = bytes;
        putU64(mutated.data() + metaOffset + word * 8,
               uint64_t(0x7fffffffffffffff));
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << "meta word " << word;
    }
}

TEST_F(CorruptBlob, RecurrentMetaInflationsRejectCleanly)
{
    const std::vector<uint8_t> &bytes = recurrentCorpus();
    const uint64_t metaOffset = getU64(
        bytes.data() + kHeaderBytes + 8);
    const uint64_t metaSize = getU64(
        bytes.data() + kHeaderBytes + 16);
    const uint64_t words = metaSize / 8;
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 0; seed < 6; ++seed) {
        // Walk from the back, where the recurrent state block lives.
        const uint64_t word =
            words - 1 - (seed * 2654435761ULL) % (words / 2);
        std::vector<uint8_t> mutated = bytes;
        putU64(mutated.data() + metaOffset + word * 8,
               uint64_t(0x7fffffffffffffff));
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << "meta word " << word;
    }
}

TEST_F(CorruptBlob, ConvWindowSpanInflationRejects)
{
    // Collapse a conv plan's window offsets: zero every interior
    // start[] value, keeping start[0]==0, monotonicity and
    // back()==weightIdx.size() intact, with every index still in
    // range. Only the per-window span bound (a window may not exceed
    // the layer fan-in) stands between this blob and the serve path
    // gathering a whole index map into fan-in-sized buffers.
    const std::vector<uint8_t> &bytes = convCorpus();
    const uint64_t sectionCount = getU64(bytes.data() + 24);
    std::map<uint64_t, uint64_t> u32Counts; // section idx -> elements
    for (uint64_t i = 0; i < sectionCount; ++i) {
        const uint8_t *e =
            bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
        if (getU32(e) == uint32_t(SectionKind::U32))
            u32Counts[i] = getU64(e + 16) / 4;
    }
    // A window-offset section is U32, starts at 0, is non-decreasing,
    // and its last value is the element count of an index-map section.
    std::vector<uint8_t> mutated = bytes;
    size_t patched = 0;
    for (const auto &[idx, count] : u32Counts) {
        if (count < 3)
            continue;
        const uint8_t *e =
            bytes.data() + kHeaderBytes + idx * kSectionEntryBytes;
        const uint64_t off = getU64(e + 8);
        bool monotone = getU32(bytes.data() + off) == 0;
        for (uint64_t w = 1; monotone && w < count; ++w)
            monotone = getU32(bytes.data() + off + (w - 1) * 4) <=
                       getU32(bytes.data() + off + w * 4);
        const uint32_t last =
            getU32(bytes.data() + off + (count - 1) * 4);
        bool pointsAtMap = false;
        for (const auto &[j, c] : u32Counts)
            pointsAtMap = pointsAtMap || (j != idx && c == last);
        if (!monotone || last == 0 || !pointsAtMap)
            continue;
        for (uint64_t w = 1; w + 1 < count; ++w)
            putU32(mutated.data() + off + w * 4, 0);
        ++patched;
    }
    ASSERT_GT(patched, 0u) << "no conv-plan offset section found";
    EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                "fatal: .*exceeds fan-in");
}

TEST_F(CorruptBlob, DenseRowPaddingMismatchRejectsAtConfigure)
{
    // Packed dense rows (format v3) pad each input's row to a multiple
    // of 8 neurons with code 0. The loader pins only their size; the
    // chip's layer context pins every code, padding included, before
    // the dense tally reads them. The MLP corpus's dense layers have 6
    // and 3 neurons, so code 6 of each row is padding; U8 sections in
    // this corpus are exactly its two dense row tables.
    const std::vector<uint8_t> &bytes = mlpCorpus();
    const uint64_t sectionCount = getU64(bytes.data() + 24);
    std::vector<uint8_t> mutated = bytes;
    size_t patched = 0;
    for (uint64_t i = 0; i < sectionCount; ++i) {
        const uint8_t *e =
            bytes.data() + kHeaderBytes + i * kSectionEntryBytes;
        if (getU32(e) != uint32_t(SectionKind::U8))
            continue;
        mutated[getU64(e + 8) + 6] = 1;
        ++patched;
    }
    ASSERT_EQ(patched, 2u);
    EXPECT_EXIT(
        {
            auto blob = ModelBlob::fromBytes(std::move(mutated));
            rna::ChipConfig config;
            config.simd = simd::Variant::Scalar;
            rna::Chip chip(config);
            chip.configure(blob->model());
            std::exit(0);
        },
        exitedRejected, "fatal: .*dense packed rows mismatch");
}

TEST_F(CorruptBlob, TrailingBytesRejectCleanly)
{
    // Appending data without updating the header breaks the exact
    // fileBytes match.
    std::vector<uint8_t> mutated = mlpCorpus();
    mutated.insert(mutated.end(), 64, uint8_t(0));
    EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                "fatal: ");
}

TEST_F(CorruptBlob, CrossTypeSectionReferenceRejects)
{
    // Retype a data section so a meta reference's kind check fires
    // (U16 weight codes claimed as F64, or vice versa).
    const std::vector<uint8_t> &bytes = mlpCorpus();
    const uint64_t sectionCount = getU64(bytes.data() + 24);
    for (uint64_t idx = 1; idx < sectionCount && idx < 4; ++idx) {
        const size_t entry = kHeaderBytes + idx * kSectionEntryBytes;
        std::vector<uint8_t> mutated = bytes;
        const uint32_t kind = getU32(bytes.data() + entry);
        putU32(mutated.data() + entry,
               kind == uint32_t(SectionKind::F64)
                   ? uint32_t(SectionKind::U16)
                   : uint32_t(SectionKind::F64));
        EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                    "fatal: ")
            << "retype section " << idx;
    }
}

} // namespace
} // namespace rapidnn::blob
