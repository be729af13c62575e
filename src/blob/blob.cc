#include "blob/blob.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "blob/format.hh"
#include "common/check.hh"
#include "telemetry/metrics.hh"

namespace rapidnn::blob {

using composer::RLayer;
using composer::RLayerKind;

namespace {

// Meta-stream bounds: a corrupt or adversarial blob can claim
// arbitrary counts, so every one is capped before it sizes an
// allocation or a loop.
constexpr uint64_t kMaxBlockCount = uint64_t(1) << 16;
constexpr uint64_t kMaxLayerDim = uint64_t(1) << 24;
constexpr uint64_t kMaxShapeRank = 4;
constexpr uint64_t kMaxNesting = 64;

// ---------------------------------------------------------- telemetry

std::atomic<double> &
lastLoadSeconds()
{
    static std::atomic<double> v{0.0};
    return v;
}

telemetry::Gauge &
blobBytesGauge()
{
    static telemetry::Gauge *g = [] {
        // Register the companion load-time gauge once, alongside the
        // byte gauge: both live for the process lifetime.
        telemetry::Registry::global().addCallback(
            "rapidnn_model_load_seconds",
            "Wall time of the most recent model blob load",
            telemetry::MetricKind::Gauge,
            [] { return lastLoadSeconds().load(); });
        return &telemetry::Registry::global().gauge(
            "rapidnn_model_blob_bytes",
            "Bytes of model blobs currently resident (mapped or "
            "owned)");
    }();
    return *g;
}

// ------------------------------------------------------------- writer

struct Writer
{
    std::vector<SectionEntry> entries;
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<uint64_t> meta;

    Writer()
    {
        // Section 0 is the meta stream; its payload is filled last.
        entries.push_back({uint32_t(SectionKind::Meta), 8, 0, 0});
        payloads.emplace_back();
    }

    uint64_t
    addSection(SectionKind kind, const void *src, size_t bytes)
    {
        entries.push_back(
            {uint32_t(kind), kSectionAlign, 0, uint64_t(bytes)});
        std::vector<uint8_t> payload(bytes);
        if (bytes > 0)
            std::memcpy(payload.data(), src, bytes);
        payloads.push_back(std::move(payload));
        return entries.size() - 1;
    }

    template <typename T>
    uint64_t
    add(SectionKind kind, const Array<T> &values)
    {
        return addSection(kind, values.data(),
                          values.size() * sizeof(T));
    }

    template <typename T>
    uint64_t
    add(SectionKind kind, const std::vector<T> &values)
    {
        return addSection(kind, values.data(),
                          values.size() * sizeof(T));
    }

    void put(uint64_t v) { meta.push_back(v); }
};

void
putCodebook(Writer &w, const quant::Codebook &cb)
{
    w.put(w.add(SectionKind::F64, cb.values()));
}

void
encodeLayer(Writer &w, const RLayer &layer)
{
    w.put(uint64_t(layer.kind));
    w.put(layer.inCount);
    w.put(layer.outCount);
    w.put(layer.kernel);
    w.put(layer.inChannels);
    w.put(layer.samePadding ? 1 : 0);
    w.put(layer.poolWindow);
    w.put(layer.steps);

    w.put(layer.inputCodebook.empty() ? 0 : 1);
    if (!layer.inputCodebook.empty())
        putCodebook(w, layer.inputCodebook);

    w.put(layer.weightCodebooks.size());
    for (const auto &cb : layer.weightCodebooks)
        putCodebook(w, cb);

    w.put(layer.weightCodes.size());
    for (const auto &codes : layer.weightCodes)
        w.put(w.add(SectionKind::U16, codes));

    w.put(layer.bias.empty() ? 0 : 1);
    if (!layer.bias.empty())
        w.put(w.add(SectionKind::F32, layer.bias));

    w.put(layer.productTables.size());
    for (const auto &table : layer.productTables)
        w.put(w.add(SectionKind::F64, table));

    w.put(layer.activation ? 1 : 0);
    if (layer.activation) {
        w.put(uint64_t(layer.activationKind));
        w.put(w.add(SectionKind::F64, layer.activation->inputs()));
        w.put(w.add(SectionKind::F64, layer.activation->outputs()));
    }

    w.put(layer.outputEncoder.empty() ? 0 : 1);
    if (!layer.outputEncoder.empty())
        putCodebook(w, layer.outputEncoder.target());

    w.put(layer.stateCodebook.empty() ? 0 : 1);
    if (!layer.stateCodebook.empty()) {
        putCodebook(w, layer.stateCodebook);
        w.put(layer.stateWeightCodebooks.size());
        for (const auto &cb : layer.stateWeightCodebooks)
            putCodebook(w, cb);
        w.put(layer.stateWeightCodes.size());
        for (const auto &codes : layer.stateWeightCodes)
            w.put(w.add(SectionKind::U16, codes));
        w.put(layer.stateProductTables.size());
        for (const auto &table : layer.stateProductTables)
            w.put(w.add(SectionKind::F64, table));
    }

    // Format v5's derived-layout flags, always 0: the chip derives its
    // layout at configure time.
    w.put(0); // has conv plan
    w.put(0); // has tally rows
    w.put(0); // has state rows

    w.put(layer.inner.size());
    for (const RLayer &inner : layer.inner)
        encodeLayer(w, inner);

    w.put(kLayerEndSentinel);
}

// ------------------------------------------------------------- loader

/** Bounded little-endian u64 reader over the meta section. */
class MetaCursor
{
  public:
    MetaCursor(const uint8_t *p, size_t bytes)
        : _p(p), _left(bytes / 8)
    {
    }

    uint64_t
    next(const char *what)
    {
        RAPIDNN_CHECK(_left >= 1,
                      "model blob: meta stream truncated at ", what);
        const uint64_t v = getU64(_p);
        _p += 8;
        --_left;
        return v;
    }

    uint64_t
    bounded(const char *what, uint64_t maxValue)
    {
        const uint64_t v = next(what);
        RAPIDNN_CHECK(v <= maxValue, "model blob: ", what, " = ", v,
                      " exceeds limit ", maxValue);
        return v;
    }

    bool
    flag(const char *what)
    {
        return bounded(what, 1) != 0;
    }

    size_t wordsLeft() const { return _left; }

  private:
    const uint8_t *_p;
    size_t _left;
};

/** Validated view of a parsed blob's header, table and payload bytes. */
struct Parsed
{
    const uint8_t *data = nullptr;
    size_t size = 0;
    uint32_t version = kBlobVersion;
    std::vector<SectionEntry> sections;

    const SectionEntry &
    section(uint64_t index, SectionKind kind, const char *what) const
    {
        RAPIDNN_CHECK(index < sections.size(), "model blob: ", what,
                      " references section ", index, " of ",
                      sections.size());
        const SectionEntry &s = sections[index];
        RAPIDNN_CHECK(s.kind == uint32_t(kind), "model blob: ", what,
                      " expects section kind ", uint64_t(kind),
                      " but section ", index, " has kind ", s.kind);
        return s;
    }

    template <typename T>
    Array<T>
    view(uint64_t index, SectionKind kind, const char *what) const
    {
        const SectionEntry &s = section(index, kind, what);
        return Array<T>::view(
            reinterpret_cast<const T *>(data + s.offset),
            s.size / sizeof(T));
    }
};

quant::Codebook
readCodebook(const Parsed &p, MetaCursor &cur, const char *what)
{
    const uint64_t idx = cur.next(what);
    Array<double> values = p.view<double>(idx, SectionKind::F64, what);
    RAPIDNN_CHECK(!values.empty(), "model blob: empty codebook for ",
                  what);
    return quant::Codebook::fromSorted(std::move(values));
}

/**
 * Structural invariants of a fully assembled layer: every size
 * relation and code range the inference loops index without further
 * checks.
 */
void
validateLayer(const RLayer &layer)
{
    const bool compute = layer.kind == RLayerKind::Dense ||
                         layer.kind == RLayerKind::Conv ||
                         layer.kind == RLayerKind::Recurrent;
    if (compute) {
        RAPIDNN_CHECK(layer.inCount >= 1 && layer.outCount >= 1,
                      "model blob: compute layer with zero fan");
        RAPIDNN_CHECK(!layer.inputCodebook.empty(),
                      "model blob: compute layer missing input "
                      "codebook");
        RAPIDNN_CHECK(layer.bias.size() == layer.outCount,
                      "model blob: bias size ", layer.bias.size(),
                      " != outCount ", layer.outCount);
        const size_t channels =
            layer.kind == RLayerKind::Conv ? layer.outCount : 1;
        RAPIDNN_CHECK(layer.weightCodebooks.size() == channels,
                      "model blob: ", layer.weightCodebooks.size(),
                      " weight codebooks, want ", channels);
        RAPIDNN_CHECK(layer.weightCodes.size() == channels,
                      "model blob: ", layer.weightCodes.size(),
                      " weight-code blocks, want ", channels);
        RAPIDNN_CHECK(layer.productTables.size() == channels,
                      "model blob: ", layer.productTables.size(),
                      " product tables, want ", channels);
        const size_t u = layer.inputCodebook.size();
        const size_t perChannel =
            layer.kind == RLayerKind::Dense ||
            layer.kind == RLayerKind::Recurrent
                ? layer.inCount * layer.outCount
                : layer.inCount;
        for (size_t ch = 0; ch < channels; ++ch) {
            const size_t w = layer.weightCodebooks[ch].size();
            RAPIDNN_CHECK(w <= composer::kMaxWeightEntries,
                          "model blob: weight codebook ", ch, " holds ", w,
                          " entries, more than ",
                          composer::kMaxWeightEntries);
            RAPIDNN_CHECK(layer.weightCodes[ch].size() == perChannel,
                          "model blob: weight-code block ", ch,
                          " has ", layer.weightCodes[ch].size(),
                          " codes, want ", perChannel);
            for (uint16_t code : layer.weightCodes[ch])
                RAPIDNN_CHECK(code < w, "model blob: weight code ",
                              code, " outside codebook of ", w);
            RAPIDNN_CHECK(layer.productTables[ch].size() == w * u,
                          "model blob: product table ", ch, " has ",
                          layer.productTables[ch].size(),
                          " entries, want ", w * u);
        }
    }
    if (layer.kind == RLayerKind::Conv) {
        RAPIDNN_CHECK(layer.kernel >= 1 && layer.inChannels >= 1,
                      "model blob: conv without kernel/channels");
        RAPIDNN_CHECK(layer.inCount ==
                          layer.inChannels * layer.kernel * layer.kernel,
                      "model blob: conv fan-in ", layer.inCount,
                      " != inC*k*k");
    }
    if (layer.kind == RLayerKind::Recurrent) {
        RAPIDNN_CHECK(layer.steps >= 1,
                      "model blob: recurrent layer with zero steps");
        RAPIDNN_CHECK(!layer.stateCodebook.empty(),
                      "model blob: recurrent layer missing state "
                      "codebook");
        RAPIDNN_CHECK(layer.stateWeightCodebooks.size() == 1 &&
                          layer.stateWeightCodes.size() == 1 &&
                          layer.stateProductTables.size() == 1,
                      "model blob: recurrent state tables must have "
                      "one block each");
        const size_t sw = layer.stateWeightCodebooks[0].size();
        const size_t s = layer.stateCodebook.size();
        RAPIDNN_CHECK(sw <= composer::kMaxWeightEntries,
                      "model blob: state weight codebook holds ", sw,
                      " entries, more than ", composer::kMaxWeightEntries);
        RAPIDNN_CHECK(layer.stateWeightCodes[0].size() ==
                          layer.outCount * layer.outCount,
                      "model blob: recurrent state codes must be "
                      "hidden x hidden");
        for (uint16_t code : layer.stateWeightCodes[0])
            RAPIDNN_CHECK(code < sw, "model blob: state weight code ",
                          code, " outside codebook of ", sw);
        RAPIDNN_CHECK(layer.stateProductTables[0].size() == sw * s,
                      "model blob: state product table has ",
                      layer.stateProductTables[0].size(),
                      " entries, want ", sw * s);
    }
    if (layer.kind == RLayerKind::MaxPool ||
        layer.kind == RLayerKind::AvgPool)
        RAPIDNN_CHECK(layer.poolWindow >= 1,
                      "model blob: pooling layer without a window");
    if (layer.kind == RLayerKind::AvgPool)
        RAPIDNN_CHECK(!layer.inputCodebook.empty(),
                      "model blob: avgpool missing consumer codebook");
    if (layer.kind == RLayerKind::Residual) {
        RAPIDNN_CHECK(!layer.inner.empty(),
                      "model blob: empty residual block");
        RAPIDNN_CHECK(!layer.inputCodebook.empty(),
                      "model blob: residual block missing input "
                      "codebook");
    }
}

RLayer
readLayer(const Parsed &p, MetaCursor &cur, size_t depth)
{
    RAPIDNN_CHECK(depth <= kMaxNesting,
                  "model blob: residual nesting deeper than ",
                  kMaxNesting);
    RLayer layer;
    const uint64_t kind = cur.bounded(
        "layer kind", uint64_t(RLayerKind::Recurrent));
    layer.kind = static_cast<RLayerKind>(kind);
    layer.inCount = cur.bounded("inCount", kMaxLayerDim);
    layer.outCount = cur.bounded("outCount", kMaxLayerDim);
    layer.kernel = cur.bounded("kernel", kMaxLayerDim);
    layer.inChannels = cur.bounded("inChannels", kMaxLayerDim);
    layer.samePadding = cur.flag("samePadding");
    layer.poolWindow = cur.bounded("poolWindow", kMaxLayerDim);
    layer.steps = cur.bounded("steps", kMaxLayerDim);

    if (cur.flag("has input codebook"))
        layer.inputCodebook = readCodebook(p, cur, "input codebook");

    uint64_t count = cur.bounded("weight codebooks", kMaxBlockCount);
    for (uint64_t i = 0; i < count; ++i)
        layer.weightCodebooks.push_back(
            readCodebook(p, cur, "weight codebook"));

    count = cur.bounded("weight code blocks", kMaxBlockCount);
    for (uint64_t i = 0; i < count; ++i)
        layer.weightCodes.push_back(p.view<uint16_t>(
            cur.next("weight codes"), SectionKind::U16,
            "weight codes"));

    if (cur.flag("has bias"))
        layer.bias = p.view<float>(cur.next("bias"), SectionKind::F32,
                                   "bias");

    count = cur.bounded("product tables", kMaxBlockCount);
    for (uint64_t i = 0; i < count; ++i)
        layer.productTables.push_back(p.view<double>(
            cur.next("product table"), SectionKind::F64,
            "product table"));

    if (cur.flag("has activation")) {
        layer.activationKind = static_cast<nn::ActKind>(
            cur.bounded("activation kind", 32));
        Array<double> ys = p.view<double>(
            cur.next("activation inputs"), SectionKind::F64,
            "activation inputs");
        Array<double> zs = p.view<double>(
            cur.next("activation outputs"), SectionKind::F64,
            "activation outputs");
        layer.activation = quant::ActivationTable::fromViews(
            std::move(ys), std::move(zs));
    }

    if (cur.flag("has output encoder"))
        layer.outputEncoder =
            quant::Encoder(readCodebook(p, cur, "output encoder"));

    if (cur.flag("has state")) {
        layer.stateCodebook = readCodebook(p, cur, "state codebook");
        count = cur.bounded("state weight codebooks", kMaxBlockCount);
        for (uint64_t i = 0; i < count; ++i)
            layer.stateWeightCodebooks.push_back(
                readCodebook(p, cur, "state weight codebook"));
        count = cur.bounded("state weight code blocks", kMaxBlockCount);
        for (uint64_t i = 0; i < count; ++i)
            layer.stateWeightCodes.push_back(p.view<uint16_t>(
                cur.next("state weight codes"), SectionKind::U16,
                "state weight codes"));
        count = cur.bounded("state product tables", kMaxBlockCount);
        for (uint64_t i = 0; i < count; ++i)
            layer.stateProductTables.push_back(p.view<double>(
                cur.next("state product table"), SectionKind::F64,
                "state product table"));
    }

    // Derived execution layout older writers stored: u16 neuron-major
    // weight columns (versions 1-3), a conv gather plan (any version),
    // packed u8 codes (2-4) and the tally rows (5). The chip derives its
    // own at configure time, so each set flag's section references are
    // type- and bounds-checked like any other, then ignored.
    if (p.version < 4) {
        for (const char *what : {"dense columns", "recurrent x columns",
                                 "recurrent h columns"})
            if (cur.flag(what))
                p.section(cur.next(what), SectionKind::U16, what);
    }
    if (cur.flag("has conv plan")) {
        for (const char *what : {"conv plan inC", "conv plan inH",
                                 "conv plan inW", "conv plan outH",
                                 "conv plan outW"})
            cur.bounded(what, kMaxLayerDim);
        for (const char *what : {"conv plan offsets",
                                 "conv plan weight indices",
                                 "conv plan input indices"})
            p.section(cur.next(what), SectionKind::U32, what);
    }
    if (p.version >= 5) {
        for (const char *what : {"tally rows", "state rows"})
            if (cur.flag(what))
                p.section(cur.next(what), SectionKind::U8, what);
    } else if (p.version >= 2) {
        if (cur.flag("has packed dense codes"))
            p.section(cur.next("packed dense codes"), SectionKind::U8,
                      "packed dense codes");
        count = cur.bounded("packed weight code blocks",
                            kMaxBlockCount);
        for (uint64_t i = 0; i < count; ++i)
            p.section(cur.next("packed weight codes"), SectionKind::U8,
                      "packed weight codes");
        if (cur.flag("has packed recurrent columns"))
            for (const char *what : {"packed recurrent x columns",
                                     "packed recurrent h columns"})
                p.section(cur.next(what), SectionKind::U8, what);
    }

    count = cur.bounded("inner layers", kMaxBlockCount);
    for (uint64_t i = 0; i < count; ++i)
        layer.inner.push_back(readLayer(p, cur, depth + 1));

    RAPIDNN_CHECK(cur.next("layer end sentinel") == kLayerEndSentinel,
                  "model blob: layer record not closed by sentinel");

    validateLayer(layer);
    return layer;
}

} // namespace

std::vector<uint8_t>
buildBlob(const composer::ReinterpretedModel &model)
{
    const nn::Shape &shape = model.canonicalInputShape();
    RAPIDNN_CHECK(!shape.empty(),
                  "blob writer: model has no canonical input shape "
                  "(setCanonicalInputShape before writing)");
    RAPIDNN_CHECK(shape.size() <= kMaxShapeRank,
                  "blob writer: input shape rank ", shape.size(),
                  " exceeds ", kMaxShapeRank);
    RAPIDNN_CHECK(!model.inputEncoder().empty(),
                  "blob writer: model has no input encoder");

    Writer w;
    w.put(kBlobVersion);
    w.put(shape.size());
    for (size_t d : shape)
        w.put(d);
    putCodebook(w, model.inputEncoder().target());
    w.put(model.layers().size());
    for (const RLayer &layer : model.layers())
        encodeLayer(w, layer);

    // Serialize the meta stream into section 0.
    std::vector<uint8_t> metaBytes(w.meta.size() * 8);
    for (size_t i = 0; i < w.meta.size(); ++i)
        putU64(metaBytes.data() + i * 8, w.meta[i]);
    w.entries[0].size = metaBytes.size();
    w.payloads[0] = std::move(metaBytes);

    // Lay the sections out: header, table, then payloads at their
    // alignment. Gaps are zero-filled.
    const size_t tableBytes = w.entries.size() * kSectionEntryBytes;
    size_t offset = kHeaderBytes + tableBytes;
    for (SectionEntry &entry : w.entries) {
        const size_t align = entry.align;
        offset = (offset + align - 1) / align * align;
        entry.offset = offset;
        offset += entry.size;
    }
    const size_t fileBytes = offset;

    std::vector<uint8_t> out(fileBytes, 0);
    uint8_t *h = out.data();
    putU32(h + 0, kBlobMagic);
    putU32(h + 4, kBlobVersion);
    putU32(h + 8, 0); // flags
    putU32(h + 12, kHeaderBytes);
    putU64(h + 16, fileBytes);
    putU64(h + 24, w.entries.size());
    putU64(h + 32, kHeaderBytes);
    putU64(h + 40, 0); // meta section index
    // bytes 48..63 reserved, already zero

    for (size_t i = 0; i < w.entries.size(); ++i) {
        uint8_t *e = out.data() + kHeaderBytes + i * kSectionEntryBytes;
        putU32(e + 0, w.entries[i].kind);
        putU32(e + 4, w.entries[i].align);
        putU64(e + 8, w.entries[i].offset);
        putU64(e + 16, w.entries[i].size);
        if (w.entries[i].size > 0)
            std::memcpy(out.data() + w.entries[i].offset,
                        w.payloads[i].data(), w.payloads[i].size());
    }
    return out;
}

void
writeBlobFile(const composer::ReinterpretedModel &model,
              const std::string &path)
{
    const std::vector<uint8_t> bytes = buildBlob(model);
    // Stage in the same directory and rename() over the target so a
    // concurrent open/mmap only ever observes a complete file. A
    // process that already has the old inode mapped keeps reading the
    // old bytes; rewriting the path never mutates or truncates a
    // validated mapping in place.
    const std::string tmp = path + ".tmp." +
        // NOLINT-DETERMINISM(rng): pid is a temp-file uniquifier for
        std::to_string(::getpid()); // the rename, never a seed
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open '", tmp, "' for writing");
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            ::unlink(tmp.c_str());
            fatal("write to '", tmp, "' failed");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        fatal("cannot rename '", tmp, "' over '", path, "'");
    }
}

void
ModelBlob::parse()
{
    RAPIDNN_CHECK(hostIsLittleEndian(),
                  "model blob requires a little-endian host");
    RAPIDNN_CHECK(_size >= kHeaderBytes,
                  "model blob: file of ", _size,
                  " bytes is smaller than the header");

    BlobHeader h;
    h.magic = getU32(_data + 0);
    h.version = getU32(_data + 4);
    h.flags = getU32(_data + 8);
    h.headerBytes = getU32(_data + 12);
    h.fileBytes = getU64(_data + 16);
    h.sectionCount = getU64(_data + 24);
    h.sectionTableOffset = getU64(_data + 32);
    h.metaSectionIndex = getU64(_data + 40);

    RAPIDNN_CHECK(h.magic == kBlobMagic,
                  "model blob: bad magic ", h.magic);
    RAPIDNN_CHECK(h.version >= kMinBlobVersion
                      && h.version <= kBlobVersion,
                  "model blob: version ", h.version,
                  " unsupported (want ", kMinBlobVersion, "..",
                  kBlobVersion, ")");
    RAPIDNN_CHECK(h.flags == 0, "model blob: unknown flags ", h.flags);
    RAPIDNN_CHECK(h.headerBytes == kHeaderBytes,
                  "model blob: header size ", h.headerBytes,
                  " (want ", kHeaderBytes, ")");
    RAPIDNN_CHECK(h.fileBytes == _size,
                  "model blob: header claims ", h.fileBytes,
                  " bytes but the file has ", _size);
    RAPIDNN_CHECK(h.sectionCount >= 1 &&
                      h.sectionCount <= kMaxSections,
                  "model blob: section count ", h.sectionCount,
                  " outside [1, ", kMaxSections, "]");
    RAPIDNN_CHECK(h.sectionTableOffset == kHeaderBytes,
                  "model blob: section table at ",
                  h.sectionTableOffset, " (want ", kHeaderBytes, ")");

    const uint64_t tableBytes = h.sectionCount * kSectionEntryBytes;
    RAPIDNN_CHECK(kHeaderBytes + tableBytes <= _size,
                  "model blob: section table of ", tableBytes,
                  " bytes overruns the file");

    Parsed parsed;
    parsed.data = _data;
    parsed.size = _size;
    parsed.version = h.version;
    parsed.sections.reserve(h.sectionCount);
    for (uint64_t i = 0; i < h.sectionCount; ++i) {
        const uint8_t *e = _data + kHeaderBytes + i * kSectionEntryBytes;
        SectionEntry s;
        s.kind = getU32(e + 0);
        s.align = getU32(e + 4);
        s.offset = getU64(e + 8);
        s.size = getU64(e + 16);
        RAPIDNN_CHECK(s.kind <= uint32_t(SectionKind::U8),
                      "model blob: section ", i, " has unknown kind ",
                      s.kind);
        const size_t elem = sectionElemBytes(SectionKind(s.kind));
        RAPIDNN_CHECK(s.align >= elem && s.align <= 4096 &&
                          (s.align & (s.align - 1)) == 0,
                      "model blob: section ", i, " alignment ",
                      s.align, " invalid");
        RAPIDNN_CHECK(s.offset >= kHeaderBytes + tableBytes,
                      "model blob: section ", i,
                      " overlaps the header/table");
        RAPIDNN_CHECK(s.offset % s.align == 0,
                      "model blob: section ", i, " offset ", s.offset,
                      " not aligned to ", s.align);
        RAPIDNN_CHECK(s.offset <= _size && s.size <= _size - s.offset,
                      "model blob: section ", i, " [", s.offset, ", +",
                      s.size, ") overruns the file of ", _size);
        RAPIDNN_CHECK(s.size % elem == 0,
                      "model blob: section ", i, " size ", s.size,
                      " not a multiple of ", elem, "-byte elements");
        parsed.sections.push_back(s);
    }

    const SectionEntry &meta = parsed.section(
        h.metaSectionIndex, SectionKind::Meta, "header meta index");
    MetaCursor cur(_data + meta.offset, meta.size);

    RAPIDNN_CHECK(cur.next("meta version") == h.version,
                  "model blob: meta stream version mismatch");
    const uint64_t rank = cur.bounded("input shape rank",
                                      kMaxShapeRank);
    RAPIDNN_CHECK(rank >= 1, "model blob: empty input shape");
    nn::Shape shape(rank);
    for (uint64_t i = 0; i < rank; ++i) {
        shape[i] = cur.bounded("input shape dim", kMaxLayerDim);
        RAPIDNN_CHECK(shape[i] >= 1,
                      "model blob: zero input shape dimension");
    }
    _model.setCanonicalInputShape(std::move(shape));

    _model.inputEncoder() =
        quant::Encoder(readCodebook(parsed, cur, "input encoder"));

    const uint64_t layerCount = cur.bounded("layers", kMaxBlockCount);
    for (uint64_t i = 0; i < layerCount; ++i)
        _model.layers().push_back(readLayer(parsed, cur, 0));

    RAPIDNN_CHECK(cur.wordsLeft() == 0,
                  "model blob: ", cur.wordsLeft(),
                  " trailing words in the meta stream");
}

std::shared_ptr<const ModelBlob>
ModelBlob::open(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto blob = std::shared_ptr<ModelBlob>(new ModelBlob());

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        fatal("cannot open model blob '", path, "' for reading");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fatal("cannot stat model blob '", path, "'");
    }
    const size_t size = static_cast<size_t>(st.st_size);

    void *map = size > 0
        ? ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0)
        : MAP_FAILED;
    if (map != MAP_FAILED) {
        blob->_map = map;
        blob->_mapLen = size;
        blob->_data = static_cast<const uint8_t *>(map);
        blob->_size = size;
        ::close(fd);
    } else {
        // mmap unavailable (unusual filesystem): fall back to a heap
        // copy; the zero-copy views then point into owned bytes.
        std::vector<uint8_t> bytes(size);
        size_t done = 0;
        while (done < size) {
            const ssize_t n =
                ::read(fd, bytes.data() + done, size - done);
            if (n <= 0) {
                ::close(fd);
                fatal("short read of model blob '", path, "'");
            }
            done += static_cast<size_t>(n);
        }
        ::close(fd);
        blob->_bytes = std::move(bytes);
        blob->_data = blob->_bytes.data();
        blob->_size = blob->_bytes.size();
    }

    blob->parse();
    blobBytesGauge().add(static_cast<int64_t>(blob->_size));
    lastLoadSeconds().store(
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count());
    return blob;
}

std::shared_ptr<const ModelBlob>
ModelBlob::fromBytes(std::vector<uint8_t> bytes)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto blob = std::shared_ptr<ModelBlob>(new ModelBlob());
    blob->_bytes = std::move(bytes);
    blob->_data = blob->_bytes.data();
    blob->_size = blob->_bytes.size();
    blob->parse();
    blobBytesGauge().add(static_cast<int64_t>(blob->_size));
    lastLoadSeconds().store(
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count());
    return blob;
}

ModelBlob::~ModelBlob()
{
    blobBytesGauge().add(-static_cast<int64_t>(_size));
    if (_map != nullptr)
        ::munmap(_map, _mapLen);
}

} // namespace rapidnn::blob
