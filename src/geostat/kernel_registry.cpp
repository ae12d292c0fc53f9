#include "geostat/kernel_registry.hpp"

#include "common/error.hpp"
#include "geostat/covariance_ext.hpp"

namespace gsx::geostat {

namespace {

/// Parameter picker: theta entry when provided, documented default otherwise.
struct Pick {
  std::span<const double> theta;
  double operator()(std::size_t i, double dflt) const {
    return (i < theta.size()) ? theta[i] : dflt;
  }
};

}  // namespace

std::unique_ptr<CovarianceModel> make_kernel(const std::string& name,
                                             std::span<const double> theta) {
  const Pick pick{theta};
  std::unique_ptr<CovarianceModel> m;
  if (name == "matern") {
    m = std::make_unique<MaternCovariance>(pick(0, 1.0), pick(1, 0.1), pick(2, 0.5), 1e-6);
  } else if (name == "matern-nugget") {
    m = std::make_unique<MaternNuggetCovariance>(pick(0, 1.0), pick(1, 0.1), pick(2, 0.5),
                                                 pick(3, 0.01));
  } else if (name == "powexp") {
    m = std::make_unique<PoweredExponentialCovariance>(pick(0, 1.0), pick(1, 0.1),
                                                       pick(2, 1.0), 1e-6);
  } else if (name == "aniso-matern") {
    m = std::make_unique<AnisotropicMaternCovariance>(pick(0, 1.0), pick(1, 0.2),
                                                      pick(2, 0.05), pick(3, 0.0),
                                                      pick(4, 0.5), 1e-6);
  } else if (name == "gneiting") {
    m = std::make_unique<GneitingCovariance>(pick(0, 1.0), pick(1, 0.2), pick(2, 0.5),
                                             pick(3, 0.5), pick(4, 0.9), pick(5, 0.3),
                                             1e-6);
  } else {
    throw InvalidArgument("make_kernel: unknown kernel name: " + name);
  }
  GSX_REQUIRE(theta.empty() || theta.size() == m->num_params(),
              "make_kernel: kernel " + name + " expects " +
                  std::to_string(m->num_params()) + " parameters");
  return m;
}

std::string kernel_name(const CovarianceModel& model) {
  // Order matters only for readability; all registered types are final.
  if (dynamic_cast<const MaternNuggetCovariance*>(&model) != nullptr)
    return "matern-nugget";
  if (dynamic_cast<const AnisotropicMaternCovariance*>(&model) != nullptr)
    return "aniso-matern";
  if (dynamic_cast<const MaternCovariance*>(&model) != nullptr) return "matern";
  if (dynamic_cast<const PoweredExponentialCovariance*>(&model) != nullptr)
    return "powexp";
  if (dynamic_cast<const GneitingCovariance*>(&model) != nullptr) return "gneiting";
  throw InvalidArgument("kernel_name: covariance type is not registered");
}

}  // namespace gsx::geostat
