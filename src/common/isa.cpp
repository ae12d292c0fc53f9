#include "common/isa.hpp"

#include <cstdlib>
#include <string_view>

namespace gsx {

namespace {

Isa pick_isa() noexcept {
  Isa best = Isa::Portable;
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) best = Isa::Avx2;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw"))
    best = Isa::Avx512;
#endif
  // Opt-down override for tuning and A/B testing; never opt-up past what the
  // CPU supports.
  if (const char* s = std::getenv("GSX_GEMM_ISA")) {
    const std::string_view v(s);
    if (v == "portable") return Isa::Portable;
    if (v == "avx2") return (best == Isa::Portable) ? best : Isa::Avx2;
    if (v == "avx512") return best;
  }
  return best;
}

}  // namespace

Isa active_isa() noexcept {
  static const Isa isa = pick_isa();
  return isa;
}

}  // namespace gsx
