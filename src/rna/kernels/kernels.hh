/**
 * @file
 * Kernel-variant registry and resolution for the SIMD hot loops.
 *
 * The dispatch *types* (simd::Variant, simd::KernelOps) live in
 * common/simd.hh so any layer can consume a resolved table; this
 * header owns the *implementations*: one KernelOps table per ISA the
 * build produced (scalar always; AVX2/AVX-512 on x86-64 builds whose
 * compiler takes -mavx2/-mavx512f; NEON on aarch64), plus the policy
 * that turns a requested variant + RAPIDNN_SIMD override + probed CPU
 * features into the table Chip::configure installs.
 *
 * Selection precedence: an explicit non-Auto ChipConfig::simd wins;
 * otherwise RAPIDNN_SIMD (fatal if it names a variant this host or
 * build cannot run — a forced variant must never silently degrade);
 * otherwise the best available (avx512 > avx2 > neon > scalar).
 */

#ifndef RAPIDNN_RNA_KERNELS_KERNELS_HH
#define RAPIDNN_RNA_KERNELS_KERNELS_HH

#include <vector>

#include "common/simd.hh"

namespace rapidnn::rna::kernels {

/**
 * The KernelOps table for one concrete variant, or nullptr when this
 * build/host cannot run it (also for Auto, which names no
 * implementation).
 */
const simd::KernelOps *opsFor(simd::Variant v);

/**
 * Concrete variants this process can execute right now (build flags
 * AND cpu features), best first, Scalar always last. Auto is a
 * policy, not an implementation, and is never listed.
 */
std::vector<simd::Variant> availableVariants();

/** One tally implementation, named for tests and benches. */
struct TallyImpl
{
    const char *name;
    void (*fn)(const simd::TallyJob &job);
};

/**
 * Every tally implementation this process can run, scalar first.
 * The AVX-512 table picks its popcount at run time (VPOPCNTQ when the
 * host has VPOPCNTDQ, a nibble table otherwise), so both appear here
 * separately and the equivalence tests cover the one a table would not
 * pick on this host.
 */
std::vector<TallyImpl> tallyImpls();

/**
 * Resolve a requested variant to the concrete one to run: applies the
 * RAPIDNN_SIMD override when the request is Auto, falls back to the
 * best available for Auto, and is fatal when an explicitly requested
 * (or env-forced) variant is not available on this host/build.
 * Never returns Auto.
 */
simd::Variant resolve(simd::Variant requested);

} // namespace rapidnn::rna::kernels

#endif // RAPIDNN_RNA_KERNELS_KERNELS_HH
