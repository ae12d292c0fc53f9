#include "common/isa.hpp"

#include <cstdio>
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
  // Opt-down cap for A/B testing; never opt-up past what the CPU supports.
  const char* s = std::getenv("GSX_GEMM_ISA");
  if (s == nullptr || *s == '\0') return best;
  const std::string_view v(s);
  if (v == "portable") return Isa::Portable;
  if (v == "avx2") return (best == Isa::Portable) ? best : Isa::Avx2;
  if (v == "avx512") return best;
  static constexpr const char* kNames[] = {"portable", "avx2", "avx512"};
  std::fprintf(stderr,
               "gsx: GSX_GEMM_ISA=%s is not one of portable, avx2, avx512; using %s\n", s,
               kNames[static_cast<int>(best)]);
  return best;
}

}  // namespace

Isa active_isa() noexcept {
  static const Isa isa = pick_isa();
  return isa;
}

}  // namespace gsx
