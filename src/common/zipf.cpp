#include "common/zipf.hpp"

#include <cmath>
#include <stdexcept>

namespace pimds {

double ZipfGenerator::zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n == 0 || !(theta >= 0.0) || theta == 1.0) {
    throw std::invalid_argument(
        "ZipfGenerator: needs n >= 1 and theta >= 0, theta != 1");
  }
  zetan_ = zeta(n_, theta_);
  const double zeta2 = zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfGenerator::next(Xoshiro256& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

}  // namespace pimds
