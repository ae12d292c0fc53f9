// Runtime pick of the vector ISA the hand-dispatched kernels run on.
//
// The packed GEMM micro-kernels (la/gemm_kernel.cpp) and the Matérn
// assembly lanes (geostat/covariance.cpp) each compile one variant per ISA
// and call the one active_isa() names, so both follow one decision.
#pragma once

namespace gsx {

enum class Isa : int { Portable = 0, Avx2 = 1, Avx512 = 2 };

/// The widest ISA this CPU supports, capped by GSX_GEMM_ISA
/// (portable|avx2|avx512; it can only lower the pick, never raise it past
/// what the CPU supports). An empty value counts as unset; any other value
/// is ignored with one warning on stderr. Fixed at the first call for the
/// process.
[[nodiscard]] Isa active_isa() noexcept;

}  // namespace gsx
