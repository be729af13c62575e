/**
 * @file
 * The AVX-512 tally with the hardware VPOPCNTQ bit count and VPERMB
 * product lookups. Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq
 * -mavx512vbmi (this translation unit only); kernels_avx512.cc calls it
 * only after the runtime probe confirms VPOPCNTDQ and VBMI, and
 * otherwise runs the same tally with a nibble-table popcount and
 * VPSHUFB lookups.
 */

#if defined(__x86_64__) || defined(__i386__)

// Same GCC PR 105593 false positive as kernels_avx512.cc (the unmasked
// gather passes an undefined placeholder to a masked builtin).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "rna/kernels/tally_avx512.hh"

namespace rapidnn::rna::kernels {

void
tallyAvx512Vpopcnt(const simd::TallyJob &job)
{
    detail::tally<Avx512Lanes>(job);
}

} // namespace rapidnn::rna::kernels

#endif // x86
