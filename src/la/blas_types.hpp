// Shared BLAS flag enums, split out so the packed-kernel layer
// (gemm_kernel.hpp) and the dispatching front end (blas.hpp) can both use
// them without a circular include.
#pragma once

namespace gsx::la {

enum class Uplo : unsigned char { Lower, Upper };
enum class Trans : unsigned char { NoTrans, Trans };

}  // namespace gsx::la
