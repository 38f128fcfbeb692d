#include "synth/fleet.h"

#include <utility>

#include "util/env.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tpr::synth {

FleetConfig FleetConfigFromEnv(FleetConfig defaults) {
  defaults.num_cities = EnvNumber("TPR_SHARDS", defaults.num_cities, 1);
  defaults.seed = EnvNumber("TPR_FLEET_SEED", defaults.seed, uint64_t{0});
  defaults.dataset_scale =
      EnvNumber("TPR_FLEET_SCALE", defaults.dataset_scale, kSmallestPositive);
  return defaults;
}

FleetCity MakeFleetCity(uint64_t seed, double dataset_scale, int city_id) {
  TPR_CHECK(city_id >= 0);
  // One private stream per city: every draw below comes from this Rng,
  // so the derivation is a pure function of (seed, city_id) and never
  // sees the fleet size.
  Rng rng(MixSeed(seed, static_cast<uint64_t>(city_id)));

  const std::vector<CityPreset> bases = AllPresets();
  CityPreset p = bases[static_cast<size_t>(
      rng.UniformInt(static_cast<uint64_t>(bases.size())))];

  FleetCity city;
  city.city_id = city_id;
  city.name = "city" + std::to_string(city_id) + "-" + p.name;
  p.name = city.name;

  // Perturb the base preset so no two ids serve the same world even
  // when they drew the same base. Ranges stay inside what the presets
  // themselves span, so derived cities remain realistic.
  p.city.grid_width += static_cast<int>(rng.UniformInt(-2, 2));
  p.city.grid_height += static_cast<int>(rng.UniformInt(-2, 2));
  p.city.spacing_m *= rng.Uniform(0.85, 1.15);
  p.city.drop_edge_prob *= rng.Uniform(0.7, 1.3);
  p.city.one_way_prob *= rng.Uniform(0.7, 1.3);
  p.traffic.peak_severity *= rng.Uniform(0.8, 1.2);
  p.traffic.signal_delay_s *= rng.Uniform(0.8, 1.2);
  p.data.observation_noise *= rng.Uniform(0.8, 1.2);
  // Fresh seeds per city: network, dataset, and traffic randomness all
  // decorrelate across ids.
  p.city.seed = rng.NextU64();
  p.data.seed = rng.NextU64();
  if (dataset_scale != 1.0) ScaleDataset(p, dataset_scale);
  city.preset = std::move(p);

  // The city's drift story: a deterministic schedule of regime shifts,
  // one of each kind in a per-city order with per-city severities.
  std::vector<RegimeKind> kinds = {
      RegimeKind::kIncident, RegimeKind::kClosure, RegimeKind::kRushHourShift,
      RegimeKind::kSeasonalDemand};
  rng.Shuffle(kinds);
  for (const RegimeKind kind : kinds) {
    RegimeShiftConfig shift;
    shift.kind = kind;
    shift.seed = rng.NextU64();
    shift.edge_fraction = rng.Uniform(0.02, 0.08);
    shift.speed_scale = rng.Uniform(0.25, 0.5);
    shift.hour_shift = rng.Bernoulli(0.5) ? rng.Uniform(0.5, 2.0)
                                          : -rng.Uniform(0.5, 2.0);
    shift.demand_scale = rng.Bernoulli(0.5) ? rng.Uniform(1.2, 1.8)
                                            : rng.Uniform(0.5, 0.9);
    city.shifts.push_back(shift);
  }
  return city;
}

CityFleet::CityFleet(const FleetConfig& config) {
  TPR_CHECK(config.num_cities > 0);
  cities_.reserve(static_cast<size_t>(config.num_cities));
  for (int id = 0; id < config.num_cities; ++id) {
    cities_.push_back(MakeFleetCity(config.seed, config.dataset_scale, id));
  }
}

const FleetCity& CityFleet::city(int city_id) const {
  TPR_CHECK(city_id >= 0 && city_id < size());
  return cities_[static_cast<size_t>(city_id)];
}

StatusOr<CityDataset> CityFleet::BuildDataset(int city_id) const {
  return BuildPresetDataset(city(city_id).preset);
}

}  // namespace tpr::synth
