// cosmology.h — flat ΛCDM distances. The synthetic dataset places
// supernovae on host galaxies with photometric redshifts in [0.1, 2.0];
// the distance modulus converts rest-frame absolute magnitudes of the
// light-curve templates into observed apparent magnitudes.
#pragma once

namespace sne::astro {

/// Flat ΛCDM cosmology (Ω_k = 0, Ω_Λ = 1 − Ω_m). Distances are computed
/// by Simpson integration of 1/E(z); the integrand is smooth so a modest
/// fixed grid reaches far below the photometric errors simulated elsewhere.
class Cosmology {
 public:
  /// Defaults: H0 = 70 km/s/Mpc, Ω_m = 0.3 (the conventional reference
  /// cosmology of SN surveys in the paper's era).
  explicit Cosmology(double hubble_h0 = 70.0, double omega_m = 0.3);

  /// Dimensionless expansion rate E(z) = sqrt(Ω_m(1+z)³ + Ω_Λ).
  double efunc(double z) const;

  /// Line-of-sight comoving distance in Mpc.
  double comoving_distance_mpc(double z) const;

  /// Luminosity distance D_L = (1+z)·D_C (flat universe), Mpc.
  double luminosity_distance_mpc(double z) const;

  /// Distance modulus μ = 5·log10(D_L / 10 pc).
  double distance_modulus(double z) const;

 private:
  double omega_m_;
  double omega_lambda_;
  double hubble_distance_;
};

}  // namespace sne::astro
