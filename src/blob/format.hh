/**
 * @file
 * On-disk layout of the .rnnb single-blob model format.
 *
 * A blob is one file: a fixed 64-byte header, a section table, and the
 * section payloads. Every weight-code block, codebook, product table,
 * activation table and bias vector is its own aligned section, so the loader can hand out zero-copy views straight
 * into the mapped file. Section 0 (Meta) is a bounded little-endian
 * u64 scalar stream encoding the recursive layer tree; it references
 * the data sections by index.
 *
 * All multi-byte fields are little-endian. Data sections are mapped in
 * place, which additionally requires a little-endian IEEE-754 host;
 * the loader verifies this at open time and fails cleanly otherwise.
 *
 * Layout:
 *
 *   offset 0   BlobHeader            (64 bytes)
 *   offset 64  SectionEntry[count]   (24 bytes each)
 *   ...        payloads, each aligned to its section's `align`
 *
 * Versioning: `version` bumps on any incompatible layout change; the
 * loader rejects versions it does not know. New optional per-layer
 * artifacts extend the Meta stream behind presence flags, which keeps
 * older writers readable by newer loaders within one version.
 */

#ifndef RAPIDNN_BLOB_FORMAT_HH
#define RAPIDNN_BLOB_FORMAT_HH

#include <cstddef>
#include <cstdint>

namespace rapidnn::blob {

/** "RNNB" read as a little-endian u32. */
constexpr uint32_t kBlobMagic = 0x424E4E52;
/**
 * Version 2 adds packed (uint8) weight-code sections (SectionKind::U8)
 * for layers whose codebooks fit 256 entries, feeding the SIMD kernel
 * paths without a narrowing pass at load time. Version 3 changes the
 * dense layers' packed section from neuron-major columns to the dense
 * tally's input-major rows, padded to 8-neuron groups. Version 4 drops
 * the u16 neuron-major weight columns (dense, recurrent x and h) that
 * versions 1-3 stored after the state block. Version 5 replaces the
 * packed sections with flags for the tally's rows for every compute
 * layer (dense, conv window offsets, recurrent x) plus the recurrent
 * feedback rows. Every version also carries a conv gather plan flag.
 * All of these are derived data: the writer emits version 5 with the
 * conv plan, tally rows and state rows flags at 0, and the chip derives
 * that layout at configure time. The loader reads versions 1-5; any
 * derived section a file holds (the v1-v3 u16 columns, the v2-v4 packed
 * codes, a conv plan, the v5 rows) is type-checked and ignored.
 */
constexpr uint32_t kBlobVersion = 5;
constexpr uint32_t kMinBlobVersion = 1;
constexpr uint32_t kHeaderBytes = 64;
constexpr uint32_t kSectionEntryBytes = 24;
/** All data payloads start on a 64-byte boundary (cache line). */
constexpr uint32_t kSectionAlign = 64;
/** Upper bound a well-formed file may claim, to cap allocations. */
constexpr uint64_t kMaxSections = uint64_t(1) << 20;
/** Meta stream sentinel closing each layer record ("LEND"). */
constexpr uint64_t kLayerEndSentinel = 0x444E454C;

/** Payload element type of one section. */
enum class SectionKind : uint32_t
{
    Meta = 0, //!< u64 scalar stream (the model tree)
    F64 = 1,  //!< doubles (codebooks, product tables, activations)
    F32 = 2,  //!< floats (bias vectors)
    U16 = 3,  //!< uint16 (weight codes)
    U32 = 4,  //!< uint32 (older writers' conv gather plans; ignored)
    U8 = 5,   //!< uint8 (older writers' packed codes and rows; ignored)
};

/** Element size in bytes for a section kind. */
inline size_t
sectionElemBytes(SectionKind kind)
{
    switch (kind) {
      case SectionKind::Meta:
        return 8;
      case SectionKind::F64:
        return 8;
      case SectionKind::F32:
        return 4;
      case SectionKind::U16:
        return 2;
      case SectionKind::U32:
        return 4;
      case SectionKind::U8:
        return 1;
    }
    return 0;
}

/**
 * Decoded file header. On disk the fields are packed little-endian in
 * this order; 16 reserved zero bytes pad the struct to 64.
 */
struct BlobHeader
{
    uint32_t magic = kBlobMagic;
    uint32_t version = kBlobVersion;
    uint32_t flags = 0;
    uint32_t headerBytes = kHeaderBytes;
    uint64_t fileBytes = 0;
    uint64_t sectionCount = 0;
    uint64_t sectionTableOffset = kHeaderBytes;
    uint64_t metaSectionIndex = 0;
};

/** Decoded section-table entry (24 bytes on disk). */
struct SectionEntry
{
    uint32_t kind = 0;
    uint32_t align = kSectionAlign;
    uint64_t offset = 0;
    uint64_t size = 0; //!< payload bytes
};

// Explicit little-endian scalar codecs: the writer and loader never
// type-pun header structures, so the format is independent of host
// struct layout and safe at any source alignment.

inline void
putU32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v);
    p[1] = uint8_t(v >> 8);
    p[2] = uint8_t(v >> 16);
    p[3] = uint8_t(v >> 24);
}

inline void
putU64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = uint8_t(v >> (8 * i));
}

inline uint32_t
getU32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16
         | uint32_t(p[3]) << 24;
}

inline uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

/** True on little-endian hosts (the only ones that may map blobs). */
inline bool
hostIsLittleEndian()
{
    const uint16_t probe = 1;
    return *reinterpret_cast<const uint8_t *>(&probe) == 1;
}

} // namespace rapidnn::blob

#endif // RAPIDNN_BLOB_FORMAT_HH
