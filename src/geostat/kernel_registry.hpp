// Name-indexed covariance kernel factory.
//
// Checkpoints, the serving daemon and the CLI all need to rebuild a
// CovarianceModel from a stable string name ("matern", "gneiting", ...);
// this registry is the single source of truth for that mapping.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "geostat/covariance.hpp"

namespace gsx::geostat {

/// Construct a kernel by registry name. With an empty `theta` the kernel
/// starts from its documented default parameters; otherwise `theta` must
/// have exactly num_params() entries. Throws InvalidArgument for an unknown
/// name or a wrong-sized parameter vector.
std::unique_ptr<CovarianceModel> make_kernel(const std::string& name,
                                             std::span<const double> theta = {});

/// Registry name of a model instance (inverse of make_kernel). Throws
/// InvalidArgument for a type the registry does not know.
std::string kernel_name(const CovarianceModel& model);

}  // namespace gsx::geostat
