/**
 * @file
 * Kernel-variant registry: which KernelOps tables this build carries,
 * which the host can run, and how a requested variant resolves.
 */

#include "rna/kernels/kernels.hh"

#include <cstdlib>

#include "common/check.hh"

namespace rapidnn::rna::kernels {

extern const simd::KernelOps kScalarOps;
#ifdef RAPIDNN_BUILD_AVX2
extern const simd::KernelOps kAvx2Ops;
#endif
#ifdef RAPIDNN_BUILD_AVX512
extern const simd::KernelOps kAvx512Ops;
void tallyAvx512Lut(const simd::TallyJob &job);
#endif
#ifdef RAPIDNN_BUILD_AVX512_VPOPCNT
void tallyAvx512Vpopcnt(const simd::TallyJob &job);
#endif
#ifdef RAPIDNN_BUILD_NEON
extern const simd::KernelOps kNeonOps;
#endif

const simd::KernelOps *
opsFor(simd::Variant v)
{
    const simd::CpuFeatures &f = simd::cpuFeatures();
    switch (v) {
      case simd::Variant::Scalar:
        return &kScalarOps;
      case simd::Variant::Avx2:
#ifdef RAPIDNN_BUILD_AVX2
        if (f.avx2)
            return &kAvx2Ops;
#endif
        return nullptr;
      case simd::Variant::Avx512:
#ifdef RAPIDNN_BUILD_AVX512
        if (f.avx512)
            return &kAvx512Ops;
#endif
        return nullptr;
      case simd::Variant::Neon:
#ifdef RAPIDNN_BUILD_NEON
        if (f.neon)
            return &kNeonOps;
#endif
        return nullptr;
      case simd::Variant::Auto:
        return nullptr;
    }
    return nullptr;
}

std::vector<simd::Variant>
availableVariants()
{
    std::vector<simd::Variant> out;
    for (simd::Variant v : {simd::Variant::Avx512, simd::Variant::Avx2,
                            simd::Variant::Neon})
        if (opsFor(v) != nullptr)
            out.push_back(v);
    out.push_back(simd::Variant::Scalar);
    return out;
}

std::vector<TallyImpl>
tallyImpls()
{
    std::vector<TallyImpl> out;
    out.push_back({"scalar", kScalarOps.tally});
    if (const simd::KernelOps *ops = opsFor(simd::Variant::Avx2))
        out.push_back({"avx2", ops->tally});
#ifdef RAPIDNN_BUILD_AVX512
    if (opsFor(simd::Variant::Avx512) != nullptr)
        out.push_back({"avx512-lut", tallyAvx512Lut});
#endif
#ifdef RAPIDNN_BUILD_AVX512_VPOPCNT
    if (opsFor(simd::Variant::Avx512) != nullptr &&
        simd::cpuFeatures().avx512vpopcntdq &&
        simd::cpuFeatures().avx512vbmi)
        out.push_back({"avx512-vpopcnt-vbmi", tallyAvx512Vpopcnt});
#endif
    if (const simd::KernelOps *ops = opsFor(simd::Variant::Neon))
        out.push_back({"neon", ops->tally});
    return out;
}

simd::Variant
resolve(simd::Variant requested)
{
    simd::Variant v = requested;
    if (v == simd::Variant::Auto) {
        if (const char *env = std::getenv("RAPIDNN_SIMD"))
            v = simd::parseVariant(env);
    }
    if (v == simd::Variant::Auto)
        return availableVariants().front();
    RAPIDNN_CHECK(opsFor(v) != nullptr, "SIMD variant \"",
                  simd::variantName(v),
                  "\" is not available on this host/build");
    return v;
}

} // namespace rapidnn::rna::kernels
