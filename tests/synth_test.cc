#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "graph/path_utils.h"
#include "graph/shortest_path.h"

#include "synth/city_generator.h"
#include "synth/dataset.h"
#include "synth/fleet.h"
#include "synth/gps.h"
#include "synth/presets.h"
#include "synth/regime.h"
#include "synth/traffic_model.h"
#include "synth/weak_labels.h"

namespace tpr::synth {
namespace {

constexpr int64_t kHourS = 3600;
constexpr int64_t kDayS = 24 * kHourS;

CityConfig SmallCity() {
  CityConfig cfg;
  cfg.grid_width = 8;
  cfg.grid_height = 8;
  cfg.seed = 5;
  return cfg;
}

// BFS reachability over directed edges.
int CountReachable(const graph::RoadNetwork& net, int start, bool forward) {
  std::vector<char> seen(net.num_nodes(), 0);
  std::queue<int> q;
  q.push(start);
  seen[start] = 1;
  int count = 1;
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int eid : forward ? net.OutEdges(u) : net.InEdges(u)) {
      const int v = forward ? net.edge(eid).to : net.edge(eid).from;
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count;
}

TEST(CityGeneratorTest, RejectsDegenerateGrid) {
  CityConfig cfg;
  cfg.grid_width = 2;
  EXPECT_FALSE(GenerateCity(cfg).ok());
}

TEST(CityGeneratorTest, ProducesStronglyConnectedNetwork) {
  auto net = GenerateCity(SmallCity());
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 64);
  EXPECT_GT(net->num_edges(), 100);
  EXPECT_EQ(CountReachable(*net, 0, true), net->num_nodes());
  EXPECT_EQ(CountReachable(*net, 0, false), net->num_nodes());
}

TEST(CityGeneratorTest, ContainsRoadHierarchy) {
  auto net = GenerateCity(SmallCity());
  ASSERT_TRUE(net.ok());
  std::set<graph::RoadType> types;
  for (const auto& e : net->edges()) types.insert(e.road_type);
  EXPECT_TRUE(types.count(graph::RoadType::kHighway));
  EXPECT_TRUE(types.count(graph::RoadType::kPrimary));
  EXPECT_TRUE(types.count(graph::RoadType::kResidential));
}

TEST(CityGeneratorTest, DeterministicForSeed) {
  auto a = GenerateCity(SmallCity());
  auto b = GenerateCity(SmallCity());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_edges(), b->num_edges());
  for (int e = 0; e < a->num_edges(); ++e) {
    EXPECT_EQ(a->edge(e).from, b->edge(e).from);
    EXPECT_EQ(a->edge(e).road_type, b->edge(e).road_type);
  }
}

TEST(CityGeneratorTest, ZonesOrderedByDistanceFromCenter) {
  auto net = GenerateCity(SmallCity());
  ASSERT_TRUE(net.ok());
  std::set<int> zones;
  for (const auto& e : net->edges()) zones.insert(e.zone);
  EXPECT_GE(zones.size(), 2u);
  for (const auto& e : net->edges()) {
    EXPECT_GE(e.zone, 0);
    EXPECT_LE(e.zone, 2);
  }
}

class TrafficModelTest : public ::testing::Test {
 protected:
  TrafficModelTest() {
    auto net = GenerateCity(SmallCity());
    network_ = std::make_shared<graph::RoadNetwork>(std::move(*net));
    model_ = std::make_unique<TrafficModel>(network_.get(), TrafficConfig{});
  }

  std::shared_ptr<graph::RoadNetwork> network_;
  std::unique_ptr<TrafficModel> model_;
};

TEST_F(TrafficModelTest, PeakSlowerThanOffPeak) {
  // Monday 08:00 (peak) vs Monday 12:00 (off-peak).
  const double peak = 8 * kHourS;
  const double noon = 12.5 * kHourS;
  for (int e = 0; e < std::min(20, network_->num_edges()); ++e) {
    EXPECT_LE(model_->CongestionMultiplier(e, peak),
              model_->CongestionMultiplier(e, noon));
  }
}

TEST_F(TrafficModelTest, WeekendMilderThanWeekday) {
  const double mon8 = 8 * kHourS;
  const double sat8 = 5 * kDayS + 8 * kHourS;
  EXPECT_GT(model_->CityCongestionIndex(mon8),
            model_->CityCongestionIndex(sat8));
}

TEST_F(TrafficModelTest, MultiplierBounded) {
  for (int e = 0; e < std::min(30, network_->num_edges()); ++e) {
    for (double t = 0; t < 7 * kDayS; t += 3601.0) {
      const double m = model_->CongestionMultiplier(e, t);
      EXPECT_GT(m, 0.0);
      EXPECT_LE(m, 1.0);
    }
  }
}

TEST_F(TrafficModelTest, TravelTimePositiveAndAdditive) {
  // A longer path takes longer; per-edge times are positive.
  const int e = 0;
  EXPECT_GT(model_->TravelTime(e, 0.0), 0.0);
  graph::Path one = {network_->OutEdges(0)[0]};
  const double t1 = model_->PathTravelTime(one, 0.0);
  EXPECT_GT(t1, 0.0);
}

TEST_F(TrafficModelTest, FifoProperty) {
  // Departing later never yields an earlier arrival (needed by the
  // time-dependent Dijkstra). Sampled over edges and times.
  for (int e = 0; e < std::min(10, network_->num_edges()); ++e) {
    for (double t = 6 * kHourS; t < 10 * kHourS; t += 600.0) {
      const double arrive1 = t + model_->TravelTime(e, t);
      const double t2 = t + 300.0;
      const double arrive2 = t2 + model_->TravelTime(e, t2);
      EXPECT_LE(arrive1, arrive2 + 1e-6);
    }
  }
}

TEST_F(TrafficModelTest, HigherClassRoadsAreFaster) {
  EXPECT_GT(BaseSpeedForType(graph::RoadType::kHighway),
            BaseSpeedForType(graph::RoadType::kPrimary));
  EXPECT_GT(BaseSpeedForType(graph::RoadType::kPrimary),
            BaseSpeedForType(graph::RoadType::kResidential));
}

TEST(WeakLabelTest, PopLabelWindows) {
  // Monday 08:00 -> morning peak.
  EXPECT_EQ(PopWeakLabel(8 * kHourS), kMorningPeak);
  // Monday 17:00 -> afternoon peak.
  EXPECT_EQ(PopWeakLabel(17 * kHourS), kAfternoonPeak);
  // Monday 12:00 -> off peak.
  EXPECT_EQ(PopWeakLabel(12 * kHourS), kOffPeak);
  // Saturday 08:00 -> off peak (weekend).
  EXPECT_EQ(PopWeakLabel(5 * kDayS + 8 * kHourS), kOffPeak);
  // Negative times wrap.
  EXPECT_EQ(PopWeakLabel(8 * kHourS - 7 * kDayS), kMorningPeak);
}

TEST(WeakLabelTest, TciLevelsOrdered) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  TrafficModel model(network.get(), TrafficConfig{});
  // Peak center should have a strictly higher level than free flow.
  const int peak = TciWeakLabel(model, 8 * kHourS);
  const int night = TciWeakLabel(model, 3 * kHourS);
  EXPECT_GT(peak, night);
  EXPECT_EQ(night, 0);
  EXPECT_LT(peak, kNumTciLabels);
}

TEST(WeakLabelTest, SchemeDispatch) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  TrafficModel model(network.get(), TrafficConfig{});
  EXPECT_EQ(NumWeakLabels(WeakLabelScheme::kPeakOffPeak), 3);
  EXPECT_EQ(NumWeakLabels(WeakLabelScheme::kCongestionIndex), 4);
  EXPECT_EQ(WeakLabelFor(WeakLabelScheme::kPeakOffPeak, model, 8 * kHourS),
            kMorningPeak);
}

class DatasetTest : public ::testing::Test {
 protected:
  DatasetTest() {
    auto preset = AalborgPreset();
    ScaleDataset(preset, 0.15);
    auto ds = BuildPresetDataset(preset);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = std::make_unique<CityDataset>(std::move(*ds));
  }

  std::unique_ptr<CityDataset> data_;
};

TEST_F(DatasetTest, AllPathsValid) {
  for (const auto& s : data_->unlabeled) {
    EXPECT_TRUE(data_->network->ValidatePath(s.path).ok());
  }
  for (const auto& s : data_->labeled) {
    EXPECT_TRUE(data_->network->ValidatePath(s.path).ok());
  }
}

TEST_F(DatasetTest, LabelsWellFormed) {
  for (const auto& s : data_->labeled) {
    EXPECT_GT(s.travel_time_s, 0.0);
    EXPECT_GE(s.rank_score, 0.0);
    EXPECT_LE(s.rank_score, 1.0);
    EXPECT_GE(s.group, 0);
  }
}

TEST_F(DatasetTest, EachGroupHasExactlyOneRecommendedTopRankedPath) {
  std::map<int, int> recommended_per_group;
  std::map<int, double> best_score;
  for (const auto& s : data_->labeled) {
    recommended_per_group[s.group] += s.recommended;
    best_score[s.group] = std::max(best_score[s.group], s.rank_score);
    if (s.recommended) {
      EXPECT_DOUBLE_EQ(s.rank_score, 1.0);
    }
  }
  for (const auto& [g, count] : recommended_per_group) {
    EXPECT_EQ(count, 1) << "group " << g;
    EXPECT_DOUBLE_EQ(best_score[g], 1.0) << "group " << g;
  }
}

TEST_F(DatasetTest, UnlabeledPathsRepeatAcrossDepartures) {
  // departures_per_trajectory > 1 means the same path appears with
  // multiple departure times (the raw material for WSC positives).
  std::map<graph::Path, std::set<int64_t>> departures;
  for (const auto& s : data_->unlabeled) {
    departures[s.path].insert(s.depart_time_s);
  }
  int repeated = 0;
  for (const auto& [path, times] : departures) {
    if (times.size() >= 2) ++repeated;
  }
  EXPECT_GT(repeated, 0);
}

TEST_F(DatasetTest, PeakTravelSlowerOnAverage) {
  // Use the deterministic model (not the noisy observations): the same
  // path must be slower at 8am Monday than 3am Monday.
  const auto& s = data_->unlabeled.front();
  const double peak = data_->traffic->PathTravelTime(s.path, 8 * kHourS);
  const double night = data_->traffic->PathTravelTime(s.path, 3 * kHourS);
  EXPECT_GT(peak, night);
}

TEST(DepartureSamplerTest, PeakFractionRespected) {
  DatasetConfig cfg;
  cfg.peak_demand_fraction = 1.0;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const int64_t t = SampleDepartureTime(cfg, rng);
    EXPECT_NE(PopWeakLabel(t), kOffPeak);
  }
}

TEST(PresetTest, AllPresetsBuild) {
  for (auto preset : AllPresets()) {
    ScaleDataset(preset, 0.08);
    auto ds = BuildPresetDataset(preset);
    EXPECT_TRUE(ds.ok()) << preset.name << ": " << ds.status().ToString();
    EXPECT_FALSE(ds->unlabeled.empty());
    EXPECT_FALSE(ds->labeled.empty());
  }
}

TEST(GpsTest, TraceFollowsPath) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  TrafficModel model(network.get(), TrafficConfig{});
  // Build a real path via shortest path.
  auto sp = graph::ShortestPath(*network, 0, network->num_nodes() - 1,
                                [&](int e) { return network->edge(e).length_m; });
  ASSERT_TRUE(sp.ok());
  GpsConfig gps;
  gps.noise_m = 5.0;
  Rng rng(4);
  auto trace = SynthesizeTrace(*network, model, sp->edges, 0.0, gps, rng);
  ASSERT_GT(trace.size(), 2u);
  // Timestamps increase.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].t, trace[i - 1].t);
  }
}

TEST(GpsTest, MapMatchRecoversMostOfThePath) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  TrafficModel model(network.get(), TrafficConfig{});
  auto sp = graph::ShortestPath(*network, 0, network->num_nodes() - 1,
                                [&](int e) { return network->edge(e).length_m; });
  ASSERT_TRUE(sp.ok());
  GpsConfig gps;
  gps.noise_m = 8.0;
  gps.sample_interval_s = 10.0;
  Rng rng(4);
  auto trace = SynthesizeTrace(*network, model, sp->edges, 0.0, gps, rng);
  auto matched = MapMatch(*network, trace, gps);
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_TRUE(network->ValidatePath(*matched).ok());
  // The matched path shares a majority of edges with the true path.
  const int shared = graph::SharedEdgeCount(*matched, sp->edges);
  EXPECT_GE(shared, static_cast<int>(sp->edges.size()) / 2);
}

TEST(GpsTest, MapMatchEmptyTraceFails) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  EXPECT_FALSE(MapMatch(*network, {}, GpsConfig{}).ok());
}

TEST(GpsTest, MapMatchRejectsCorruptTimestamps) {
  auto net = GenerateCity(SmallCity());
  auto network = std::make_shared<graph::RoadNetwork>(std::move(*net));
  TrafficModel model(network.get(), TrafficConfig{});
  auto sp = graph::ShortestPath(*network, 0, network->num_nodes() - 1,
                                [&](int e) { return network->edge(e).length_m; });
  ASSERT_TRUE(sp.ok());
  GpsConfig gps;
  gps.noise_m = 8.0;
  gps.sample_interval_s = 10.0;
  Rng rng(4);
  auto trace = SynthesizeTrace(*network, model, sp->edges, 0.0, gps, rng);
  ASSERT_GT(trace.size(), 2u);

  // Out-of-order clock: the trace was corrupted in transit.
  auto swapped = trace;
  std::swap(swapped[0].t, swapped[1].t);
  EXPECT_EQ(MapMatch(*network, swapped, gps).status().code(),
            StatusCode::kInvalidArgument);

  // Non-finite timestamp.
  auto poisoned = trace;
  poisoned.back().t = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MapMatch(*network, poisoned, gps).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Regime shifts: the drift simulator's post-shift worlds.
// ---------------------------------------------------------------------------

class RegimeTest : public ::testing::Test {
 protected:
  RegimeTest() {
    auto net = GenerateCity(SmallCity());
    network_ = std::make_shared<graph::RoadNetwork>(std::move(*net));
  }

  std::shared_ptr<graph::RoadNetwork> network_;
};

TEST_F(RegimeTest, MaterializationIsDeterministicAndSeedSensitive) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kIncident;
  cfg.seed = 3;
  cfg.edge_fraction = 0.05;
  const RegimeShift a = MakeRegimeShift(*network_, cfg);
  const RegimeShift b = MakeRegimeShift(*network_, cfg);
  ASSERT_EQ(a.edge_speed_scale, b.edge_speed_scale);
  EXPECT_FALSE(a.IsIdentity());
  // Sorted by edge id, all scales equal to the configured slowdown.
  for (size_t i = 1; i < a.edge_speed_scale.size(); ++i) {
    EXPECT_LT(a.edge_speed_scale[i - 1].first, a.edge_speed_scale[i].first);
  }
  for (const auto& [edge, scale] : a.edge_speed_scale) {
    EXPECT_DOUBLE_EQ(scale, cfg.speed_scale);
    EXPECT_DOUBLE_EQ(a.EdgeScale(edge), cfg.speed_scale);
  }
  cfg.seed = 4;
  const RegimeShift c = MakeRegimeShift(*network_, cfg);
  EXPECT_NE(a.edge_speed_scale, c.edge_speed_scale)
      << "a different seed must select different edges";
}

TEST_F(RegimeTest, IncidentSlowsExactlyTheAffectedEdges) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kIncident;
  cfg.seed = 9;
  cfg.edge_fraction = 0.04;
  cfg.speed_scale = 0.35;
  auto shift = std::make_shared<const RegimeShift>(
      MakeRegimeShift(*network_, cfg));
  ASSERT_FALSE(shift->edge_speed_scale.empty());
  TrafficModel base(network_.get(), TrafficConfig{});
  TrafficModel shifted(network_.get(), TrafficConfig{}, shift);
  for (int e = 0; e < network_->num_edges(); ++e) {
    const double ratio = shifted.FreeFlowSpeed(e) / base.FreeFlowSpeed(e);
    if (shift->EdgeScale(e) < 1.0) {
      EXPECT_NEAR(ratio, 0.35, 1e-12) << "edge " << e;
    } else {
      EXPECT_DOUBLE_EQ(ratio, 1.0) << "edge " << e;
    }
  }
}

TEST_F(RegimeTest, ClosureIsNearImpassable) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kClosure;
  cfg.seed = 2;
  const RegimeShift shift = MakeRegimeShift(*network_, cfg);
  ASSERT_FALSE(shift.edge_speed_scale.empty());
  for (const auto& [edge, scale] : shift.edge_speed_scale) {
    EXPECT_LT(scale, 0.1) << "edge " << edge;
    EXPECT_GT(scale, 0.0) << "edge " << edge;
  }
}

TEST_F(RegimeTest, RushHourShiftMovesThePeakWindows) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kRushHourShift;
  cfg.hour_shift = 1.5;
  auto shift = std::make_shared<const RegimeShift>(
      MakeRegimeShift(*network_, cfg));
  EXPECT_TRUE(shift->edge_speed_scale.empty());
  EXPECT_DOUBLE_EQ(shift->am_shift_h, 1.5);
  TrafficModel base(network_.get(), TrafficConfig{});
  TrafficModel shifted(network_.get(), TrafficConfig{}, shift);
  // Monday 08:00: the old AM peak center is congested in the base world
  // but calm after the +1.5h migration; Monday 09:30 is the new center.
  EXPECT_GT(base.CityCongestionIndex(8 * kHourS),
            shifted.CityCongestionIndex(8 * kHourS));
  EXPECT_GT(shifted.CityCongestionIndex(9.5 * kHourS),
            shifted.CityCongestionIndex(8 * kHourS));
  EXPECT_NEAR(shifted.CityCongestionIndex(9.5 * kHourS),
              base.CityCongestionIndex(8 * kHourS), 1e-9);
}

TEST_F(RegimeTest, SeasonalDemandScalesPeakSeverity) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kSeasonalDemand;
  cfg.demand_scale = 1.5;
  auto shift = std::make_shared<const RegimeShift>(
      MakeRegimeShift(*network_, cfg));
  EXPECT_DOUBLE_EQ(shift->severity_scale, 1.5);
  TrafficModel base(network_.get(), TrafficConfig{});
  TrafficModel shifted(network_.get(), TrafficConfig{}, shift);
  int strictly_worse = 0;
  for (int e = 0; e < std::min(40, network_->num_edges()); ++e) {
    const double b = base.CongestionMultiplier(e, 8 * kHourS);
    const double s = shifted.CongestionMultiplier(e, 8 * kHourS);
    EXPECT_LE(s, b + 1e-12) << "edge " << e;
    if (s < b - 1e-9) ++strictly_worse;
  }
  EXPECT_GT(strictly_worse, 0);
  // Off-peak is untouched: demand scaling only bites where there is peak.
  EXPECT_DOUBLE_EQ(shifted.CongestionMultiplier(0, 3 * kHourS),
                   base.CongestionMultiplier(0, 3 * kHourS));
}

TEST_F(RegimeTest, ComposeMergesEdgeScalesShiftsAndSeverity) {
  RegimeShiftConfig inc;
  inc.kind = RegimeKind::kIncident;
  inc.seed = 5;
  RegimeShiftConfig rush;
  rush.kind = RegimeKind::kRushHourShift;
  rush.hour_shift = -1.0;
  RegimeShiftConfig demand;
  demand.kind = RegimeKind::kSeasonalDemand;
  demand.demand_scale = 0.6;
  const RegimeShift a = MakeRegimeShift(*network_, inc);
  const RegimeShift combined = Compose(
      Compose(a, MakeRegimeShift(*network_, rush)),
      MakeRegimeShift(*network_, demand));
  EXPECT_EQ(combined.edge_speed_scale, a.edge_speed_scale);
  EXPECT_DOUBLE_EQ(combined.am_shift_h, -1.0);
  EXPECT_DOUBLE_EQ(combined.pm_shift_h, -1.0);
  EXPECT_DOUBLE_EQ(combined.severity_scale, 0.6);
  // Overlapping incidents multiply on the shared edges.
  const RegimeShift twice = Compose(a, a);
  for (size_t i = 0; i < a.edge_speed_scale.size(); ++i) {
    EXPECT_DOUBLE_EQ(twice.edge_speed_scale[i].second,
                     a.edge_speed_scale[i].second *
                         a.edge_speed_scale[i].second);
  }
}

TEST_F(DatasetTest, ShiftedDatasetStreamsTheSameNetworkUnderNewTraffic) {
  RegimeShiftConfig cfg;
  cfg.kind = RegimeKind::kIncident;
  cfg.seed = 13;
  cfg.edge_fraction = 0.05;
  const RegimeShift shift = MakeRegimeShift(*data_->network, cfg);
  DatasetConfig fresh_cfg;
  fresh_cfg.num_unlabeled_trajectories = 30;
  fresh_cfg.departures_per_trajectory = 2;
  fresh_cfg.num_labeled_groups = 20;
  fresh_cfg.alternatives_per_group = 2;
  fresh_cfg.seed = 99;
  auto fresh = GenerateShiftedDataset(*data_, shift, fresh_cfg);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->name, data_->name + "-shifted");
  EXPECT_EQ(fresh->network.get(), data_->network.get())
      << "topology carries over; only traffic changes";
  ASSERT_NE(fresh->traffic->regime(), nullptr);
  EXPECT_FALSE(fresh->traffic->regime()->IsIdentity());
  EXPECT_FALSE(fresh->unlabeled.empty());
  EXPECT_FALSE(fresh->labeled.empty());
  for (const auto& s : fresh->unlabeled) {
    EXPECT_TRUE(fresh->network->ValidatePath(s.path).ok());
  }

  // Bitwise reproducible: the same base + shift + config streams the
  // same trajectories.
  auto again = GenerateShiftedDataset(*data_, shift, fresh_cfg);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->unlabeled.size(), fresh->unlabeled.size());
  for (size_t i = 0; i < fresh->unlabeled.size(); ++i) {
    EXPECT_EQ(again->unlabeled[i].path, fresh->unlabeled[i].path);
    EXPECT_EQ(again->unlabeled[i].depart_time_s,
              fresh->unlabeled[i].depart_time_s);
    EXPECT_DOUBLE_EQ(again->unlabeled[i].travel_time_s,
                     fresh->unlabeled[i].travel_time_s);
  }

  // Composing onto an already-shifted dataset stacks the regimes.
  auto stacked_traffic = MakeShiftedTraffic(*fresh, shift);
  ASSERT_NE(stacked_traffic->regime(), nullptr);
  for (const auto& [edge, scale] : shift.edge_speed_scale) {
    EXPECT_DOUBLE_EQ(stacked_traffic->regime()->EdgeScale(edge),
                     scale * scale);
  }
}

// Property sweep: observed travel times stay within a plausible factor of
// the deterministic model across presets.
class DatasetNoiseTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetNoiseTest, ObservationsNearModel) {
  auto presets = AllPresets();
  auto preset = presets[GetParam()];
  ScaleDataset(preset, 0.08);
  auto ds = BuildPresetDataset(preset);
  ASSERT_TRUE(ds.ok());
  for (const auto& s : ds->labeled) {
    const double model_time = ds->traffic->PathTravelTime(
        s.path, static_cast<double>(s.depart_time_s));
    EXPECT_GT(s.travel_time_s, model_time * 0.5);
    EXPECT_LT(s.travel_time_s, model_time * 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCities, DatasetNoiseTest,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// City fleets.
// ---------------------------------------------------------------------------

// Full parameter signature of a fleet city; two cities with equal
// signatures generate bitwise-identical worlds.
std::string CitySig(const FleetCity& c) {
  std::string s = std::to_string(c.city_id) + "|" + c.name + "|" +
                  c.preset.name;
  auto add = [&s](double v) {
    uint64_t b = 0;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof b);
    s += "," + std::to_string(b);
  };
  const CityConfig& g = c.preset.city;
  s += "|" + std::to_string(g.grid_width) + "x" +
       std::to_string(g.grid_height) + ",s" + std::to_string(g.seed);
  add(g.spacing_m);
  add(g.drop_edge_prob);
  add(g.one_way_prob);
  add(c.preset.traffic.peak_severity);
  add(c.preset.traffic.signal_delay_s);
  s += "|d" + std::to_string(c.preset.data.seed) + "," +
       std::to_string(c.preset.data.num_unlabeled_trajectories) + "," +
       std::to_string(c.preset.data.num_labeled_groups);
  add(c.preset.data.observation_noise);
  for (const RegimeShiftConfig& sh : c.shifts) {
    s += "|k" + std::to_string(static_cast<int>(sh.kind)) + ",s" +
         std::to_string(sh.seed);
    add(sh.edge_fraction);
    add(sh.speed_scale);
    add(sh.hour_shift);
    add(sh.demand_scale);
  }
  return s;
}

TEST(FleetTest, CitiesAreAPureFunctionOfSeedAndId) {
  for (int id : {0, 1, 5}) {
    EXPECT_EQ(CitySig(MakeFleetCity(404, 1.0, id)),
              CitySig(MakeFleetCity(404, 1.0, id)));
  }
  // A different fleet seed derives a different world.
  EXPECT_NE(CitySig(MakeFleetCity(404, 1.0, 0)),
            CitySig(MakeFleetCity(405, 1.0, 0)));
}

TEST(FleetTest, CitiesAreIndependentOfFleetSize) {
  FleetConfig small;
  small.num_cities = 1;
  small.seed = 42;
  FleetConfig big = small;
  big.num_cities = 6;
  CityFleet one(small);
  CityFleet six(big);
  // City 0 of a 1-city fleet IS city 0 of a 6-city fleet: scaling
  // benches compare like with like.
  EXPECT_EQ(CitySig(one.city(0)), CitySig(six.city(0)));
  EXPECT_EQ(six.size(), 6);
}

TEST(FleetTest, CitiesAreDistinctAcrossIds) {
  CityFleet fleet(FleetConfig{.num_cities = 4, .seed = 7});
  for (int a = 0; a < fleet.size(); ++a) {
    for (int b = a + 1; b < fleet.size(); ++b) {
      EXPECT_NE(CitySig(fleet.city(a)), CitySig(fleet.city(b)))
          << "cities " << a << " and " << b << " collide";
      EXPECT_NE(fleet.city(a).name, fleet.city(b).name);
    }
  }
  // Every city carries a full drift schedule (one shift of each kind).
  for (const FleetCity& c : fleet.cities()) {
    ASSERT_EQ(c.shifts.size(), 4u);
    std::vector<int> kinds;
    for (const auto& sh : c.shifts) kinds.push_back(static_cast<int>(sh.kind));
    std::sort(kinds.begin(), kinds.end());
    EXPECT_EQ(kinds, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(FleetTest, BuildDatasetIsReproducible) {
  FleetConfig fc;
  fc.num_cities = 1;
  fc.seed = 9;
  fc.dataset_scale = 0.05;
  CityFleet fleet(fc);
  auto a = fleet.BuildDataset(0);
  auto b = fleet.BuildDataset(0);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->unlabeled.size(), b->unlabeled.size());
  ASSERT_FALSE(a->unlabeled.empty());
  for (size_t i = 0; i < a->unlabeled.size(); ++i) {
    EXPECT_EQ(a->unlabeled[i].path, b->unlabeled[i].path);
    EXPECT_EQ(a->unlabeled[i].depart_time_s, b->unlabeled[i].depart_time_s);
  }
}

TEST(FleetTest, ConfigFromEnvOverrides) {
  setenv("TPR_SHARDS", "5", 1);
  setenv("TPR_FLEET_SEED", "123", 1);
  setenv("TPR_FLEET_SCALE", "0.5", 1);
  FleetConfig fc = FleetConfigFromEnv(FleetConfig{});
  EXPECT_EQ(fc.num_cities, 5);
  EXPECT_EQ(fc.seed, 123u);
  EXPECT_DOUBLE_EQ(fc.dataset_scale, 0.5);
  // Invalid values keep the defaults.
  setenv("TPR_SHARDS", "0", 1);
  setenv("TPR_FLEET_SCALE", "bogus", 1);
  fc = FleetConfigFromEnv(FleetConfig{});
  EXPECT_EQ(fc.num_cities, 3);
  EXPECT_DOUBLE_EQ(fc.dataset_scale, 1.0);
  // Out of range is invalid too: a shard count past INT_MAX must not
  // wrap, and a negative seed must not wrap to a huge one. Any
  // non-negative 64-bit seed and any positive scale are in range.
  const FleetConfig dflt;
  for (const char* bad : {"0", "-3", "99999999999"}) {
    SCOPED_TRACE(bad);
    setenv("TPR_SHARDS", bad, 1);
    setenv("TPR_FLEET_SEED", bad, 1);
    setenv("TPR_FLEET_SCALE", bad, 1);
    fc = FleetConfigFromEnv(FleetConfig{});
    const double parsed = std::strtod(bad, nullptr);
    EXPECT_EQ(fc.num_cities, dflt.num_cities);
    EXPECT_EQ(fc.seed,
              parsed >= 0.0 ? static_cast<uint64_t>(parsed) : dflt.seed);
    EXPECT_DOUBLE_EQ(fc.dataset_scale,
                     parsed > 0.0 ? parsed : dflt.dataset_scale);
  }
  unsetenv("TPR_SHARDS");
  unsetenv("TPR_FLEET_SEED");
  unsetenv("TPR_FLEET_SCALE");
}

}  // namespace
}  // namespace tpr::synth
