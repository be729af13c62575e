/**
 * @file
 * Corrupt-blob suite: deterministically mutated .rnnb bytes —
 * truncations, bit flips, header/section-table patches, meta-stream
 * count inflations (50+ seeded mutations) — must each either load
 * cleanly or be rejected with one clean fatal() line (exit 1); never
 * abort, segfault, or trip a sanitizer. Every structural layer check
 * the loader makes is reached by at least one blob written from a
 * deliberately inconsistent model. The CorruptModel cases put mutated
 * blobs on disk and load them through ModelBlob::open, the mmap path a
 * deployment takes. Runs under the `asan` preset in CI.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
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

using composer::RLayer;
using composer::RLayerKind;

/** A small trained MLP reinterpretation. */
const composer::ReinterpretedModel &
mlpModel()
{
    static const composer::ReinterpretedModel model = [] {
        nn::Dataset data = nn::makeVectorTask(
            {"blob-corrupt", 8, 3, 120, 0.35, 1.0, 911});
        Rng rng(912);
        nn::Network net = nn::buildMlp({.inputs = 8, .hidden = {6},
                                        .outputs = 3}, rng);
        nn::Trainer({.epochs = 2, .batchSize = 16,
                     .learningRate = 0.05})
            .train(net, data);
        composer::Composer comp({});
        return comp.reinterpret(net, data);
    }();
    return model;
}

/** A small trained CNN reinterpretation: conv, max-pool, flatten and
 *  two dense layers. */
const composer::ReinterpretedModel &
convModel()
{
    static const composer::ReinterpretedModel model = [] {
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
        return comp.reinterpret(net, data);
    }();
    return model;
}

/** A tiny recurrent reinterpretation. */
const composer::ReinterpretedModel &
recurrentModel()
{
    static const composer::ReinterpretedModel model = [] {
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
        return comp.reinterpret(net, data);
    }();
    return model;
}

/** Blob bytes of the MLP corpus. */
const std::vector<uint8_t> &
mlpCorpus()
{
    static const std::vector<uint8_t> bytes = buildBlob(mlpModel());
    return bytes;
}

/** Blob bytes of the CNN corpus. */
const std::vector<uint8_t> &
convCorpus()
{
    static const std::vector<uint8_t> bytes = buildBlob(convModel());
    return bytes;
}

/** Blob bytes of the recurrent corpus. */
const std::vector<uint8_t> &
recurrentCorpus()
{
    static const std::vector<uint8_t> bytes =
        buildBlob(recurrentModel());
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

/** A file removed at process exit — normal, or through fatal()'s
 *  std::exit(1). */
struct StagedFile
{
    std::string path;

    ~StagedFile()
    {
        if (!path.empty())
            std::remove(path.c_str());
    }
};

/**
 * Write `bytes` to a model file, open it through the mmap loader and
 * exit like loadAndExit. Runs only inside a death-test child.
 */
[[noreturn]] void
openFileAndExit(const std::vector<uint8_t> &bytes)
{
    static StagedFile staged;
    staged.path = ::testing::TempDir() + "rapidnn_corrupt_model_" +
        std::to_string(::getpid()) + ".rnnb";
    {
        std::ofstream os(staged.path, std::ios::binary);
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os)
            std::exit(2);
    }
    {
        auto blob = ModelBlob::open(staged.path);
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

/** A seeded corruption of a corpus and where it struck. */
struct Mutation
{
    std::vector<uint8_t> bytes;
    std::string where;
};

/**
 * `count` seeded truncations of `bytes`, seeds from `firstSeed` on.
 * Every cut breaks the header's fileBytes claim (or, cut inside the
 * header, the header itself).
 */
std::vector<Mutation>
truncations(const std::vector<uint8_t> &bytes, uint64_t firstSeed,
            uint64_t count)
{
    std::vector<Mutation> out;
    for (uint64_t seed = firstSeed; seed < firstSeed + count; ++seed) {
        const size_t cut = (seed * 2654435761ULL) % (bytes.size() - 1);
        out.push_back({{bytes.begin(), bytes.begin() + cut},
                       "truncate at " + std::to_string(cut)});
    }
    return out;
}

/** `count` seeded single-bit flips of `bytes`, seeds from `firstSeed`
 *  on. */
std::vector<Mutation>
bitFlips(const std::vector<uint8_t> &bytes, uint64_t firstSeed,
         uint64_t count)
{
    std::vector<Mutation> out;
    for (uint64_t seed = firstSeed; seed < firstSeed + count; ++seed) {
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
        out.push_back({std::move(mutated),
                       "flip byte " + std::to_string(byte) + " bit " +
                           std::to_string(bit)});
    }
    return out;
}

/** Number of 8-byte words in the meta stream (section 0). */
uint64_t
metaWords(const std::vector<uint8_t> &bytes)
{
    return getU64(bytes.data() + kHeaderBytes + 16) / 8;
}

/**
 * `bytes` with meta-stream word `word` overwritten by a huge value.
 * Every meta word is a bounded count, flag, kind, dimension, section
 * reference or sentinel, so the patch must be rejected at its bound —
 * never by sizing an allocation or indexing from it.
 */
Mutation
metaInflation(const std::vector<uint8_t> &bytes, uint64_t word)
{
    const uint64_t metaOffset = getU64(bytes.data() + kHeaderBytes + 8);
    std::vector<uint8_t> mutated = bytes;
    putU64(mutated.data() + metaOffset + word * 8,
           uint64_t(0x7fffffffffffffff));
    return {std::move(mutated), "meta word " + std::to_string(word)};
}

class CorruptBlob : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // threadsafe style re-execs the child, which then re-reads
        // these: fatal() exits without unwinding (leak checking is
        // meaningless) and sanitizer findings must abort so they can
        // never masquerade as a clean exit(1).
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
    ASSERT_GT(mlpCorpus().size(), size_t(kHeaderBytes));
    for (Mutation &m : truncations(mlpCorpus(), 0, 14))
        EXPECT_EXIT(loadAndExit(std::move(m.bytes)), exitedRejected,
                    "fatal: ")
            << m.where;
}

TEST_F(CorruptBlob, BitFlipsNeverCrash)
{
    // A flip inside a double payload may load fine (exit 0); a flip in
    // the structure must reject (exit 1). Either way, no crash and no
    // sanitizer report.
    for (Mutation &m : bitFlips(mlpCorpus(), 0, 14))
        EXPECT_EXIT(loadAndExit(std::move(m.bytes)), exitedCleanly, "")
            << m.where;
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
    const std::vector<uint8_t> &bytes = mlpCorpus();
    const uint64_t words = metaWords(bytes);
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 0; seed < 12; ++seed) {
        Mutation m = metaInflation(
            bytes, (seed * 6364136223846793005ULL) % words);
        EXPECT_EXIT(loadAndExit(std::move(m.bytes)), exitedRejected,
                    "fatal: ")
            << m.where;
    }
}

TEST_F(CorruptBlob, RecurrentMetaInflationsRejectCleanly)
{
    const std::vector<uint8_t> &bytes = recurrentCorpus();
    const uint64_t words = metaWords(bytes);
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 0; seed < 6; ++seed) {
        // Walk from the back, where the recurrent state block lives.
        Mutation m = metaInflation(
            bytes, words - 1 - (seed * 2654435761ULL) % (words / 2));
        EXPECT_EXIT(loadAndExit(std::move(m.bytes)), exitedRejected,
                    "fatal: ")
            << m.where;
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
    // Packed dense rows (format v3, the tally rows of v5) pad each
    // input's row to a multiple of 8 neurons with code 0. The loader
    // pins only their size; the chip's layer context pins every code,
    // padding included, before the tally reads them. The MLP corpus's
    // dense layers have 6 and 3 neurons, so code 6 of each row is
    // padding; U8 sections in this corpus are exactly its two dense
    // row tables.
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

/** Section indices of the U8 (packed row) sections, in order. */
std::vector<uint64_t>
u8Sections(const std::vector<uint8_t> &bytes)
{
    std::vector<uint64_t> out;
    const uint64_t sectionCount = getU64(bytes.data() + 24);
    for (uint64_t i = 0; i < sectionCount; ++i)
        if (getU32(bytes.data() + kHeaderBytes + i * kSectionEntryBytes)
            == uint32_t(SectionKind::U8))
            out.push_back(i);
    return out;
}

/** `bytes` with byte `at` of section `section`'s payload set to 1. */
std::vector<uint8_t>
patchSection(const std::vector<uint8_t> &bytes, uint64_t section,
             size_t at)
{
    const uint8_t *e =
        bytes.data() + kHeaderBytes + section * kSectionEntryBytes;
    EXPECT_LT(at, getU64(e + 16));
    std::vector<uint8_t> mutated = bytes;
    mutated[getU64(e + 8) + at] = 1;
    return mutated;
}

/** Load `bytes` and configure a chip on them, then exit 0. */
[[noreturn]] void
configureAndExit(std::vector<uint8_t> bytes)
{
    auto blob = ModelBlob::fromBytes(std::move(bytes));
    rna::ChipConfig config;
    config.simd = simd::Variant::Scalar;
    rna::Chip chip(config);
    chip.configure(blob->model());
    std::exit(0);
}

TEST_F(CorruptBlob, ConvRowPaddingMismatchRejectsAtConfigure)
{
    // Conv tally rows (format v5) hold each window offset's codes for
    // every output channel, padded to 8 channels with code 0. The CNN
    // corpus's conv layer has 4 channels over 27 window offsets, so
    // code 4 of each of its rows is padding; its row table is the first
    // U8 section.
    const std::vector<uint8_t> &bytes = convCorpus();
    const RLayer &conv = convModel().layers()[0];
    ASSERT_EQ(conv.kind, RLayerKind::Conv);
    ASSERT_EQ(conv.outCount, 4u);
    const std::vector<uint64_t> u8 = u8Sections(bytes);
    ASSERT_FALSE(u8.empty());
    const uint8_t *e =
        bytes.data() + kHeaderBytes + u8[0] * kSectionEntryBytes;
    ASSERT_EQ(getU64(e + 16), conv.inCount * 8);
    EXPECT_EXIT(configureAndExit(patchSection(bytes, u8[0], 8 + 4)),
                exitedRejected, "fatal: .*conv packed rows mismatch");
}

TEST_F(CorruptBlob, RecurrentRowPaddingMismatchRejectsAtConfigure)
{
    // The recurrent corpus's Elman layer has 5 hidden units over 4
    // features: its x rows (the first U8 section, 4 rows of 8) and its
    // feedback rows (the second, 5 rows of 8) pad every row at code 5.
    const std::vector<uint8_t> &bytes = recurrentCorpus();
    const std::vector<uint64_t> u8 = u8Sections(bytes);
    ASSERT_GE(u8.size(), 2u);
    for (size_t k = 0; k < 2; ++k) {
        const uint8_t *e =
            bytes.data() + kHeaderBytes + u8[k] * kSectionEntryBytes;
        ASSERT_EQ(getU64(e + 16), (k == 0 ? 4u : 5u) * 8);
    }
    EXPECT_EXIT(configureAndExit(patchSection(bytes, u8[0], 8 + 5)),
                exitedRejected,
                "fatal: .*recurrent packed rows mismatch");
    EXPECT_EXIT(configureAndExit(patchSection(bytes, u8[1], 16 + 5)),
                exitedRejected,
                "fatal: .*recurrent state packed rows mismatch");
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

/** `values` with `edit` applied. */
template <typename T>
Array<T>
edited(const Array<T> &values,
       const std::function<void(std::vector<T> &)> &edit)
{
    std::vector<T> copy = values.toVector();
    edit(copy);
    return copy;
}

/** A model inconsistency and the loader check that must refuse it. */
struct LayerMutation
{
    const char *message;  //!< regex on the check's fatal() line
    const composer::ReinterpretedModel &(*corpus)();
    std::function<void(std::vector<RLayer> &)> mutate;
};

TEST_F(CorruptBlob, LayerInvariantsRejectCleanly)
{
    // The writer copies a layer as it finds it, so a blob written from
    // a model whose layer breaks one structural invariant carries that
    // fault to the loader. One mutation per layer check; each must be
    // refused by that check, before anything indexes with the bad
    // sizes or codes. Layer 0 is the MLP's 8 -> 6 dense layer, the
    // CNN's conv layer and the recurrent model's Elman layer; layer 1
    // is the CNN's max-pool.
    const auto appendCode = [](std::vector<uint16_t> &c) {
        c.push_back(0);
    };
    const LayerMutation mutations[] = {
        {"compute layer with zero fan", mlpModel,
         [](auto &ls) { ls[0].inCount = 0; }},
        {"compute layer missing input codebook", mlpModel,
         [](auto &ls) { ls[0].inputCodebook = quant::Codebook(); }},
        {"bias size 5 != outCount 6", mlpModel,
         [](auto &ls) {
             ls[0].bias = edited<float>(
                 ls[0].bias, [](auto &b) { b.pop_back(); });
         }},
        {"2 weight codebooks, want 1", mlpModel,
         [](auto &ls) {
             ls[0].weightCodebooks.push_back(ls[0].weightCodebooks[0]);
         }},
        {"2 weight-code blocks, want 1", mlpModel,
         [](auto &ls) {
             ls[0].weightCodes.push_back(ls[0].weightCodes[0]);
         }},
        {"2 product tables, want 1", mlpModel,
         [](auto &ls) {
             ls[0].productTables.push_back(ls[0].productTables[0]);
         }},
        {"weight-code block 0 has 49 codes, want 48", mlpModel,
         [&](auto &ls) {
             ls[0].weightCodes[0] =
                 edited<uint16_t>(ls[0].weightCodes[0], appendCode);
         }},
        {"weight code [0-9]+ outside codebook", mlpModel,
         [](auto &ls) {
             const auto w =
                 uint16_t(ls[0].weightCodebooks[0].size());
             ls[0].weightCodes[0] = edited<uint16_t>(
                 ls[0].weightCodes[0], [w](auto &c) { c[5] = w; });
         }},
        {"product table 0 has", mlpModel,
         [](auto &ls) {
             ls[0].productTables[0] = edited<double>(
                 ls[0].productTables[0],
                 [](auto &t) { t.pop_back(); });
         }},
        {"conv without kernel/channels", convModel,
         [](auto &ls) { ls[0].inChannels = 0; }},
        {"conv fan-in", convModel,
         [&](auto &ls) {
             ++ls[0].inCount;
             for (auto &codes : ls[0].weightCodes)
                 codes = edited<uint16_t>(codes, appendCode);
         }},
        {"avgpool missing consumer codebook", convModel,
         [](auto &ls) {
             ls[1].kind = RLayerKind::AvgPool;
             ls[1].inputCodebook = quant::Codebook();
         }},
        {"recurrent layer with zero steps", recurrentModel,
         [](auto &ls) { ls[0].steps = 0; }},
        {"recurrent layer missing state codebook", recurrentModel,
         [](auto &ls) { ls[0].stateCodebook = quant::Codebook(); }},
        {"recurrent state tables must have one block each",
         recurrentModel,
         [](auto &ls) {
             ls[0].stateWeightCodebooks.push_back(
                 ls[0].stateWeightCodebooks[0]);
         }},
        {"recurrent state codes must be hidden x hidden", recurrentModel,
         [&](auto &ls) {
             ls[0].stateWeightCodes[0] = edited<uint16_t>(
                 ls[0].stateWeightCodes[0], appendCode);
         }},
        {"state weight code [0-9]+ outside codebook", recurrentModel,
         [](auto &ls) {
             const auto sw =
                 uint16_t(ls[0].stateWeightCodebooks[0].size());
             ls[0].stateWeightCodes[0] = edited<uint16_t>(
                 ls[0].stateWeightCodes[0],
                 [sw](auto &c) { c[3] = sw; });
         }},
        {"state product table has", recurrentModel,
         [](auto &ls) {
             ls[0].stateProductTables[0] = edited<double>(
                 ls[0].stateProductTables[0],
                 [](auto &t) { t.pop_back(); });
         }},
        {"empty residual block", mlpModel,
         [](auto &ls) {
             RLayer block;
             block.kind = RLayerKind::Residual;
             ls.push_back(block);
         }},
        {"residual block missing input codebook", mlpModel,
         [](auto &ls) {
             RLayer block;
             block.kind = RLayerKind::Residual;
             block.inner.push_back(ls[1]);
             ls.push_back(block);
         }},
    };
    for (const LayerMutation &m : mutations) {
        composer::ReinterpretedModel model = m.corpus();
        m.mutate(model.layers());
        EXPECT_EXIT(loadAndExit(buildBlob(model)), exitedRejected,
                    std::string("fatal: .*model blob: ") + m.message)
            << m.message;
    }
}

TEST_F(CorruptBlob, ZeroPoolWindowRejects)
{
    // The writer refuses a pooling layer without a window, so write the
    // CNN corpus with another window, locate the one meta word that
    // changed, and zero it in the intact blob.
    const std::vector<uint8_t> &bytes = convCorpus();
    composer::ReinterpretedModel probe = convModel();
    ASSERT_EQ(probe.layers()[1].kind, RLayerKind::MaxPool);
    ++probe.layers()[1].poolWindow;
    const std::vector<uint8_t> probeBytes = buildBlob(probe);
    ASSERT_EQ(probeBytes.size(), bytes.size());
    const uint64_t metaOffset = getU64(
        bytes.data() + kHeaderBytes + 8);
    const uint64_t words = getU64(bytes.data() + kHeaderBytes + 16) / 8;
    std::vector<uint64_t> changed;
    for (uint64_t w = 0; w < words; ++w)
        if (getU64(bytes.data() + metaOffset + w * 8) !=
            getU64(probeBytes.data() + metaOffset + w * 8))
            changed.push_back(w);
    ASSERT_EQ(changed.size(), 1u);
    std::vector<uint8_t> mutated = bytes;
    putU64(mutated.data() + metaOffset + changed[0] * 8, 0);
    EXPECT_EXIT(loadAndExit(std::move(mutated)), exitedRejected,
                "fatal: .*model blob: pooling layer without a window");
}

/** Corrupt model files on disk, loaded through ModelBlob::open. */
using CorruptModel = CorruptBlob;

TEST_F(CorruptModel, IntactCorporaLoadInProcess)
{
    const std::string path = ::testing::TempDir() +
        "rapidnn_intact_model_" + std::to_string(::getpid()) + ".rnnb";
    for (const auto *corpus : {&mlpCorpus(), &convCorpus(),
                               &recurrentCorpus()}) {
        {
            std::ofstream os(path, std::ios::binary);
            os.write(reinterpret_cast<const char *>(corpus->data()),
                     static_cast<std::streamsize>(corpus->size()));
            ASSERT_TRUE(os.good());
        }
        auto blob = ModelBlob::open(path);
        std::remove(path.c_str());
        EXPECT_TRUE(blob->mapped());
        EXPECT_EQ(blob->fileBytes(), corpus->size());
        EXPECT_FALSE(blob->model().layers().empty());
        // The mapped model re-serializes to the very bytes on disk.
        EXPECT_EQ(buildBlob(blob->model()), *corpus);
    }
}

TEST_F(CorruptModel, TruncationsRejectCleanly)
{
    for (const Mutation &m : truncations(convCorpus(), 0, 14))
        EXPECT_EXIT(openFileAndExit(m.bytes), exitedRejected, "fatal: ")
            << m.where;
}

TEST_F(CorruptModel, BitFlipsNeverCrash)
{
    for (const Mutation &m : bitFlips(convCorpus(), 0, 14))
        EXPECT_EXIT(openFileAndExit(m.bytes), exitedCleanly, "")
            << m.where;
}

TEST_F(CorruptModel, CountInflationsRejectCleanly)
{
    const std::vector<uint8_t> &bytes = convCorpus();
    const uint64_t words = metaWords(bytes);
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const Mutation m = metaInflation(
            bytes, (seed * 6364136223846793005ULL) % words);
        EXPECT_EXIT(openFileAndExit(m.bytes), exitedRejected, "fatal: ")
            << m.where;
    }
}

TEST_F(CorruptModel, RecurrentStateCountsRejectCleanly)
{
    // The recurrent state block sits at the back of the meta stream;
    // these seeds follow on from RecurrentMetaInflationsRejectCleanly's.
    const std::vector<uint8_t> &bytes = recurrentCorpus();
    const uint64_t words = metaWords(bytes);
    ASSERT_GT(words, 12u);
    for (uint64_t seed = 6; seed < 12; ++seed) {
        const Mutation m = metaInflation(
            bytes, words - 1 - (seed * 2654435761ULL) % (words / 2));
        EXPECT_EXIT(openFileAndExit(m.bytes), exitedRejected, "fatal: ")
            << m.where;
    }
}

} // namespace
} // namespace rapidnn::blob
