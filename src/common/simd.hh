/**
 * @file
 * Runtime CPU-feature detection and the SIMD kernel dispatch surface.
 *
 * The inference hot loops (the weighted-accumulation tally, NDCAM
 * lookups, max pooling) run through a table of
 * function pointers selected once per Chip::configure from the host's
 * CPU features, a `RAPIDNN_SIMD` environment override, or an explicit
 * `ChipConfig::simd` request. The per-ISA implementations live in
 * `src/rna/kernels/`; this header defines only the dispatch *types*
 * (variant enum, feature probe, the KernelOps function-pointer table)
 * so lower layers such as `nvm::AmBlock` can accept a table by
 * reference without linking against the kernel library.
 *
 * Determinism contract: every kernel variant is bit-exact against the
 * scalar implementation — tallies are integer counts, the fixed-point
 * reduction is order-independent, and the vectorized FP sequences
 * (codec quantize) perform the identical correctly-rounded operations
 * per lane. tests/kernel_equivalence_test.cc pins this for every
 * variant the host can run, so `RAPIDNN_SIMD` never changes results,
 * only speed.
 *
 * Raw intrinsics are confined to `src/rna/kernels/` (and this header,
 * which deliberately uses none) — tools/lint_determinism.py enforces
 * the boundary.
 */

#ifndef RAPIDNN_COMMON_SIMD_HH
#define RAPIDNN_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/check.hh"

namespace rapidnn::simd {

/** Which kernel family executes the inference hot loops. */
enum class Variant
{
    Scalar,  //!< portable scalar kernels, the vector variants' oracle
    Avx2,    //!< x86-64 AVX2
    Avx512,  //!< x86-64 AVX-512 (F + BW)
    Neon,    //!< aarch64 NEON
    Auto,    //!< resolve from RAPIDNN_SIMD / best available at configure
};

/** CPU features relevant to the kernel variants, probed once. */
struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false;  //!< AVX-512 F and BW
    /** AVX-512 VPOPCNTDQ: the tally's hardware popcount; without it
     *  the AVX-512 tally counts bits through a nibble table. */
    bool avx512vpopcntdq = false;
    bool neon = false;
};

inline const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = [] {
        CpuFeatures probe;
#if defined(__x86_64__) || defined(__i386__)
        probe.avx2 = __builtin_cpu_supports("avx2") != 0;
        probe.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                       __builtin_cpu_supports("avx512bw") != 0;
        probe.avx512vpopcntdq =
            probe.avx512 &&
            __builtin_cpu_supports("avx512vpopcntdq") != 0;
#elif defined(__aarch64__)
        probe.neon = true;
#endif
        return probe;
    }();
    return f;
}

/** Canonical lowercase name, also the RAPIDNN_SIMD spelling. */
inline const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Scalar: return "scalar";
      case Variant::Avx2:   return "avx2";
      case Variant::Avx512: return "avx512";
      case Variant::Neon:   return "neon";
      case Variant::Auto:   return "auto";
    }
    return "unknown";
}

/** Parse a RAPIDNN_SIMD value; fatal on junk so typos never silently
 *  fall back to a different kernel set. */
inline Variant
parseVariant(const char *s)
{
    RAPIDNN_CHECK(s != nullptr, "null SIMD variant name");
    if (std::strcmp(s, "scalar") == 0) return Variant::Scalar;
    if (std::strcmp(s, "avx2") == 0)   return Variant::Avx2;
    if (std::strcmp(s, "avx512") == 0) return Variant::Avx512;
    if (std::strcmp(s, "neon") == 0)   return Variant::Neon;
    if (std::strcmp(s, "auto") == 0)   return Variant::Auto;
    RAPIDNN_CHECK(false, "unknown RAPIDNN_SIMD value \"", s,
                  "\" (want scalar|avx2|avx512|neon|auto)");
    return Variant::Auto;
}

/** Detected-feature summary for bench/telemetry attribution. */
inline std::string
featureString()
{
    const CpuFeatures &f = cpuFeatures();
    std::string s;
    auto add = [&](const char *name) {
        if (!s.empty())
            s += ",";
        s += name;
    };
    if (f.avx2)
        add("avx2");
    if (f.avx512)
        add("avx512");
    if (f.neon)
        add("neon");
    if (s.empty())
        s = "none";
    return s;
}

/** Neurons one tally group covers (one u64 lane each). */
inline constexpr size_t kTallyGroup = 8;

/**
 * One call of KernelOps::tally: a range of 8-neuron groups of one
 * weight matrix for one batch lane (a dense layer, one conv output
 * position, or one recurrent operand path).
 *
 * The lane's fan-in arrives grouped by input code: `order` lists the
 * weight-row index of every edge, split into non-empty buckets by
 * `bucketStart`, so within a bucket every edge shares its input code u
 * and a neuron's (w, u) counts are just the histogram of its weight
 * codes over the bucket. The kernel keeps that histogram for 8 neurons
 * at once as bit-sliced counter planes (one u64 per neuron and plane,
 * bit w of plane p = bit p of count(w, u)) and reads it out at bucket
 * end: `distinct` grows by the popcount of the OR of the planes,
 * `addends` by popcount(c ^ 3c) taken across the planes, which is the
 * number of non-zero digits in the non-adjacent form of c (the CSD
 * terms of c). `sums` is the int64 sum of the products over all edges,
 * order-free and exact; neuron j reads its product of (w, u) at
 * products[productBase[j] + ((w << shift) | u)], so neurons with their
 * own codebooks (conv channels) read their own padded table. Every
 * productBase must be a multiple of 1 << shift.
 *
 * Outputs are written for every neuron of [groupBegin * 8,
 * groupEnd * 8), padding neurons included, neuron groupBegin * 8 + k
 * at index k; weight codes must be below maskWords * 64 (at most 256
 * entries).
 */
struct TallyJob
{
    const uint8_t *rows;          //!< [fanIn][rowStride] weight codes
    size_t rowStride;             //!< neurons padded to kTallyGroup
    const uint32_t *order;        //!< row indices grouped by code
    const uint32_t *bucketStart;  //!< [buckets + 1] offsets into order
    const uint16_t *bucketCode;   //!< input code of each bucket
    size_t buckets;               //!< non-empty buckets only
    const int64_t *products;      //!< padded tables, end to end
    const uint64_t *productBase;  //!< [rowStride] table start per neuron
    uint32_t shift;
    uint32_t maskWords;           //!< ceil(weight entries / 64), 1..4
    size_t groupBegin;
    size_t groupEnd;
    int64_t *sums;                //!< product sum per neuron, no bias
    uint32_t *distinct;           //!< non-zero (w, u) cells per neuron
    uint32_t *addends;            //!< CSD terms over those cells
};

/**
 * The kernel dispatch table: one function pointer per hot-loop
 * primitive, filled by the per-ISA translation units under
 * `src/rna/kernels/`. Consumers receive a resolved table by reference
 * (never a variant to re-resolve), so the selection cost is paid once
 * per Chip::configure. Every kernel reads and writes only the exact
 * ranges it is given (vector bodies are bounded, tails run scalar), so
 * all are safe on unpadded, unaligned memory.
 */
struct KernelOps
{
    const char *name;  //!< variantName() of the implementing ISA

    /** Maximum element of v[0..n); n >= 1. */
    uint16_t (*maxU16)(const uint16_t *v, size_t n);

    /**
     * Batched FixedPointCodec::quantize: for each lane,
     * key = uint32(clamp((x-lo)/(hi-lo), 0, 1) * maxKey + 0.5),
     * with the identical correctly-rounded double sequence as the
     * scalar codec (bitwise-equal keys).
     */
    void (*quantize)(const double *x, size_t n, double lo, double hi,
                     uint32_t maxKey, uint32_t *keys);

    /**
     * Batched direct-indexed NDCAM lookup over the compiled
     * piecewise-constant winner map: for each query, start from
     * bucketSeg[min(q >> bucketShift, bucketCount-1)] and walk
     * segments while segStart[seg+1] <= q, then rows[i] =
     * segRow[seg]. Matches Ndcam::directLookup exactly.
     */
    void (*directLookup)(const uint32_t *queries, size_t n,
                         const uint32_t *bucketSeg, size_t bucketCount,
                         uint32_t bucketShift, const uint32_t *segStart,
                         const uint32_t *segRow, size_t segCount,
                         uint32_t *rows);

    /**
     * The weighted-accumulation tally of every compute layer (see
     * TallyJob): counts, CSD terms and product sums of 8 neurons at a
     * time, held in registers. Every variant writes bitwise-identical
     * outputs; only `rows` is read through `order` and only the job's
     * group range is written.
     */
    void (*tally)(const TallyJob &job);
};

/** Alignment of every kernel scratch buffer (one cache line). */
inline constexpr size_t kKernelAlign = 64;

/** Guaranteed readable slack past an AlignedVec's last element. */
inline constexpr size_t kTailSlackBytes = 64;

/**
 * Grow-only scratch buffer with kKernelAlign alignment and
 * kTailSlackBytes of allocated (readable, unspecified-value) tail
 * slack, so vector loads near the end never fault.
 * Contents are NOT preserved across ensure() growth — this is reset-
 * per-use scratch, not carried data.
 */
template <typename T>
class AlignedVec
{
    static_assert(std::is_trivial_v<T>,
                  "AlignedVec is raw scratch for trivially-copyable "
                  "kernel element types");

  public:
    AlignedVec() = default;
    ~AlignedVec() { std::free(_data); }

    AlignedVec(const AlignedVec &) = delete;
    AlignedVec &operator=(const AlignedVec &) = delete;

    AlignedVec(AlignedVec &&o) noexcept
        : _data(o._data), _size(o._size)
    {
        o._data = nullptr;
        o._size = 0;
    }

    AlignedVec &
    operator=(AlignedVec &&o) noexcept
    {
        if (this != &o) {
            std::free(_data);
            _data = o._data;
            _size = o._size;
            o._data = nullptr;
            o._size = 0;
        }
        return *this;
    }

    /** Grow (never shrink) to hold at least n elements. */
    void
    ensure(size_t n)
    {
        if (n <= _size)
            return;
        std::free(_data);
        size_t bytes = n * sizeof(T) + kTailSlackBytes;
        bytes = (bytes + kKernelAlign - 1) / kKernelAlign * kKernelAlign;
        _data = static_cast<T *>(
            std::aligned_alloc(kKernelAlign, bytes));
        RAPIDNN_CHECK(_data != nullptr, "aligned_alloc of ", bytes,
                      " bytes failed");
        _size = n;
        RAPIDNN_ASSERT(
            reinterpret_cast<uintptr_t>(_data) % kKernelAlign == 0,
            "kernel scratch buffer not cache-line aligned");
    }

    /** ensure(n) then zero-fill the first n elements. */
    void
    ensureZeroed(size_t n)
    {
        ensure(n);
        if (n > 0)
            std::memset(_data, 0, n * sizeof(T));
    }

    T *data() { return _data; }
    const T *data() const { return _data; }
    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    T &operator[](size_t i) { return _data[i]; }
    const T &operator[](size_t i) const { return _data[i]; }

  private:
    T *_data = nullptr;
    size_t _size = 0;  //!< requested element capacity (excludes slack)
};

} // namespace rapidnn::simd

#endif // RAPIDNN_COMMON_SIMD_HH
