#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/features.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "route/router.h"
#include "route/shard.h"
#include "serve/service.h"
#include "synth/fleet.h"
#include "synth/presets.h"
#include "util/rng.h"

namespace tpr::route {
namespace {

using core::FeatureSpace;
using core::TemporalPathEncoder;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tpr_route_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Fixture: one tiny city's feature space, shared by every shard. Router
// behaviour never depends on WHAT a shard serves, so all shards serving
// the same tiny world keeps the suite fast.
// ---------------------------------------------------------------------------

class RouteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto preset = synth::AalborgPreset();
    synth::ScaleDataset(preset, 0.1);
    auto ds = synth::BuildPresetDataset(preset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    data_ = new std::shared_ptr<synth::CityDataset>(
        std::make_shared<synth::CityDataset>(std::move(*ds)));
    core::FeatureConfig fc;
    fc.temporal_graph.slots_per_day = 48;
    fc.node2vec.walks_per_node = 2;
    fc.node2vec.epochs = 1;
    auto fs = core::BuildFeatureSpace(*data_, fc);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    features_ = new std::shared_ptr<const FeatureSpace>(
        std::make_shared<const FeatureSpace>(std::move(*fs)));
  }

  static void TearDownTestSuite() {
    delete features_;
    features_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(true);
    obs::ResetAllMetrics();
  }
  void TearDown() override {
    fault::ClearPlan();
    obs::SetMetricsEnabled(false);
  }

  static core::EncoderConfig TinyEncoder() {
    core::EncoderConfig cfg;
    cfg.d_hidden = 16;
    cfg.projection_dim = 8;
    return cfg;
  }

  static serve::ServiceConfig TinyService(const std::string& shard) {
    serve::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.queue_capacity = 64;
    cfg.block_when_full = true;
    cfg.max_retries = 1;
    cfg.backoff_base_ms = 0.01;
    cfg.backoff_max_ms = 0.05;
    cfg.cache_capacity = 64;
    cfg.shard = shard;
    cfg.metrics_prefix = shard.empty() ? "" : shard + ".";
    return cfg;
  }

  static void Install(const std::string& spec) {
    auto plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::InstallPlan(*std::move(plan));
  }

  serve::PathQuery Query(int sample, uint64_t id) {
    const auto& s =
        (*data_)->unlabeled[static_cast<size_t>(sample) %
                            (*data_)->unlabeled.size()];
    serve::PathQuery q;
    q.path = s.path;
    q.depart_time_s = s.depart_time_s;
    q.id = id;
    return q;
  }

  std::shared_ptr<const FeatureSpace> features() { return *features_; }

  /// A started service serving generation 1, scoped to `shard`.
  std::unique_ptr<serve::InferenceService> MakeService(
      const std::string& shard) {
    auto svc = std::make_unique<serve::InferenceService>(
        features(), TinyEncoder(), TinyService(shard));
    svc->InstallModel(
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
    EXPECT_TRUE(svc->Start().ok());
    return svc;
  }

  static std::shared_ptr<synth::CityDataset>* data_;
  static std::shared_ptr<const FeatureSpace>* features_;
};

std::shared_ptr<synth::CityDataset>* RouteTest::data_ = nullptr;
std::shared_ptr<const FeatureSpace>* RouteTest::features_ = nullptr;

// ---------------------------------------------------------------------------
// Pure-hash routing.
// ---------------------------------------------------------------------------

TEST_F(RouteTest, RoutingIsCanonicalOverTheCitySet) {
  auto s0 = MakeService("");
  // Endpoints registered in two different orders must induce the same
  // city -> shard-index mapping (canonical = sorted by city id).
  const std::vector<int> cities = {7, 2, 11, 5};
  std::vector<ShardEndpoint> fwd, rev;
  for (int c : cities) fwd.push_back({c, "", s0.get()});
  for (auto it = cities.rbegin(); it != cities.rend(); ++it) {
    rev.push_back({*it, "", s0.get()});
  }
  Router a(fwd, RouterConfig{});
  Router b(rev, RouterConfig{});
  std::vector<int> sorted = cities;
  std::sort(sorted.begin(), sorted.end());
  for (int c : cities) {
    ASSERT_EQ(a.ShardForCity(c), b.ShardForCity(c));
    // Shard index is the city's rank in the sorted set.
    const auto rank = std::find(sorted.begin(), sorted.end(), c);
    EXPECT_EQ(a.ShardForCity(c),
              static_cast<int>(rank - sorted.begin()));
    EXPECT_EQ(a.Health(a.ShardForCity(c)).name,
              "shard" + std::to_string(c));
  }
  EXPECT_EQ(a.ShardForCity(99), -1);
  EXPECT_EQ(a.ShardForCity(-3), -1);
}

TEST_F(RouteTest, RoutingIdenticalAcrossRouterThreads) {
  auto svc = MakeService("");
  std::vector<ShardEndpoint> eps;
  for (int c = 0; c < 8; ++c) eps.push_back({c * 3, "", svc.get()});
  Router router(eps, RouterConfig{});

  std::vector<int> single(64);
  for (int c = 0; c < 64; ++c) single[c] = router.ShardForCity(c);

  std::vector<std::vector<int>> per_thread(4, std::vector<int>(64, -2));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < 64; ++c) {
        per_thread[static_cast<size_t>(t)][static_cast<size_t>(c)] =
            router.ShardForCity(c);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& got : per_thread) EXPECT_EQ(got, single);
}

// ---------------------------------------------------------------------------
// Health machine: quarantine, deterministic re-probe, recovery.
// ---------------------------------------------------------------------------

TEST_F(RouteTest, QuarantineShedsAndReprobesDeterministically) {
  RouterConfig rc;
  rc.quarantine_after = 3;
  rc.backoff_initial = 4;
  rc.backoff_max = 16;

  // Two identical runs must produce the identical error trace and the
  // identical probe schedule.
  std::vector<std::string> traces[2];
  std::vector<uint64_t> probe_at[2];
  for (int run = 0; run < 2; ++run) {
    fault::ClearPlan();
    Install("route-dispatch@shard0:p=1");
    auto svc = MakeService("shard0");
    Router router({{0, "shard0", svc.get()}}, rc);
    for (uint64_t i = 0; i < 60; ++i) {
      RouteResult r = router.Dispatch({0, Query(0, 100 + i), 0});
      traces[run].push_back(RouteErrorName(r.error));
      probe_at[run].push_back(router.Health(0).next_probe_at);
    }
    svc->Shutdown();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(probe_at[0], probe_at[1]);

  // Shape of one run: 3 dispatch faults, then quarantine sheds with
  // periodic failed probes (faults), never a success while p=1.
  int faults = 0, sheds = 0;
  for (const auto& e : traces[0]) {
    if (e == "dispatch-fault") ++faults;
    if (e == "shard-quarantined") ++sheds;
  }
  EXPECT_EQ(faults + sheds, 60);
  EXPECT_GE(faults, 4);  // 3 to quarantine + at least one failed probe
  EXPECT_GT(sheds, 40);  // backoff keeps most requests shed
}

TEST_F(RouteTest, MalformedQueriesNeverQuarantineAHealthyShard) {
  RouterConfig rc;
  rc.quarantine_after = 3;
  auto svc = MakeService("shard0");
  Router router({{0, "shard0", svc.get()}}, rc);

  // More than quarantine_after malformed requests in a row: each is
  // refused with InvalidArgument and none counts against the shard.
  for (uint64_t i = 0; i < 2 * static_cast<uint64_t>(rc.quarantine_after);
       ++i) {
    serve::PathQuery q = Query(0, 500 + i);
    if (i % 2 == 0) {
      q.path.clear();
    } else {
      q.path.back() = (*data_)->network->num_edges();
    }
    RouteResult r = router.Dispatch({0, q, 0});
    EXPECT_EQ(r.error, RouteError::kShardRejected);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
  const ShardHealth h = router.Health(0);
  EXPECT_EQ(h.state, ShardState::kHealthy);
  EXPECT_EQ(h.failures, 0u);
  EXPECT_EQ(h.consecutive_failures, 0);
  EXPECT_EQ(router.Dispatch({0, Query(0, 600), 0}).error, RouteError::kNone);
  svc->Shutdown();
}

TEST_F(RouteTest, ShardRecoversWhenProbeSucceeds) {
  RouterConfig rc;
  rc.quarantine_after = 2;
  rc.backoff_initial = 2;
  rc.backoff_max = 4;
  Install("route-dispatch@shard0:p=1");
  auto svc = MakeService("shard0");
  Router router({{0, "shard0", svc.get()}}, rc);

  // Drive into quarantine.
  for (uint64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(router.Dispatch({0, Query(0, 200 + i), 0}).error,
              RouteError::kDispatchFault);
  }
  ASSERT_EQ(router.Health(0).state, ShardState::kQuarantined);

  // Heal the world; the next admitted probe recovers the shard and
  // subsequent requests flow normally.
  fault::ClearPlan();
  bool recovered = false;
  for (uint64_t i = 0; i < 16 && !recovered; ++i) {
    RouteResult r = router.Dispatch({0, Query(0, 300 + i), 0});
    if (r.error == RouteError::kNone) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      recovered = true;
    } else {
      EXPECT_EQ(r.error, RouteError::kShardQuarantined);
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(router.Health(0).state, ShardState::kHealthy);
  EXPECT_EQ(router.Dispatch({0, Query(1, 400), 0}).error, RouteError::kNone);
  svc->Shutdown();
}

// ---------------------------------------------------------------------------
// Partial availability: bombing one shard never perturbs the others.
// ---------------------------------------------------------------------------

TEST_F(RouteTest, HealthyShardsAreBitwiseUnaffectedByASickShard) {
  // Per-city trace of everything the determinism contract covers:
  // route error, serve status, rung, generation, embedding bytes.
  auto run = [&](bool bombed) {
    std::map<int, std::string> traces;
    fault::ClearPlan();
    if (bombed) {
      Install(
          "route-dispatch@shard0:p=0.6,seed=11;"
          "encoder-forward@shard0:p=0.8,seed=12");
    }
    std::vector<std::unique_ptr<serve::InferenceService>> svcs;
    std::vector<ShardEndpoint> eps;
    for (int c = 0; c < 3; ++c) {
      svcs.push_back(MakeService("shard" + std::to_string(c)));
      eps.push_back({c, "shard" + std::to_string(c), svcs.back().get()});
    }
    Router router(eps, RouterConfig{});
    for (int c = 0; c < 3; ++c) {
      std::string& t = traces[c];
      for (uint64_t i = 0; i < 24; ++i) {
        const uint64_t id = (static_cast<uint64_t>(c + 1) << 32) | i;
        RouteResult r =
            router.Dispatch({c, Query(static_cast<int>(i), id), 0});
        t += RouteErrorName(r.error);
        t += "|" + std::to_string(static_cast<int>(r.status.code()));
        if (r.status.ok()) {
          t += "|" + std::string(serve::RungName(r.serve.rung)) + "|g" +
               std::to_string(r.serve.generation);
          for (float v : r.serve.embedding) {
            uint32_t bits;
            static_assert(sizeof(bits) == sizeof(v));
            __builtin_memcpy(&bits, &v, sizeof(bits));
            t += "," + std::to_string(bits);
          }
        }
        t += "\n";
      }
    }
    for (auto& svc : svcs) svc->Shutdown();
    return traces;
  };

  auto clean = run(false);
  auto bombed = run(true);
  // The sick shard visibly degraded...
  EXPECT_NE(clean[0], bombed[0]);
  // ...while the healthy shards' full request traces are byte-identical.
  EXPECT_EQ(clean[1], bombed[1]);
  EXPECT_EQ(clean[2], bombed[2]);
}

TEST_F(RouteTest, CrossCityLegsDegradeIndependently) {
  Install("route-dispatch@shard0:p=1");
  auto s0 = MakeService("shard0");
  auto s1 = MakeService("shard1");
  Router router({{0, "shard0", s0.get()}, {1, "shard1", s1.get()}},
                RouterConfig{});

  std::vector<CityRequest> legs;
  legs.push_back({0, Query(0, 1), 0});
  legs.push_back({1, Query(1, 2), 0});
  legs.push_back({42, Query(2, 3), 0});  // unmapped city
  auto results = router.DispatchMulti(legs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].error, RouteError::kDispatchFault);
  EXPECT_EQ(results[0].shard, "shard0");
  EXPECT_EQ(results[1].error, RouteError::kNone);
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.ToString();
  EXPECT_EQ(results[1].serve.embedding.size(), 16u);
  EXPECT_EQ(results[2].error, RouteError::kNoShardForCity);
  EXPECT_EQ(results[2].shard_index, -1);
  s0->Shutdown();
  s1->Shutdown();
}

// ---------------------------------------------------------------------------
// CityShard bundle: namespacing + per-shard isolation.
// ---------------------------------------------------------------------------

TEST_F(RouteTest, CityShardBundlesNamespacedStacks) {
  const std::string root = ScratchDir("bundle");
  core::ProbeSet probe;  // empty probe: no traffic-gate scoring needed

  CityShardConfig c0;
  c0.city_id = 0;
  c0.root = root;
  c0.service = TinyService("");
  CityShardConfig c1 = c0;
  c1.city_id = 1;

  CityShard shard0(features(), TinyEncoder(), probe, c0);
  CityShard shard1(features(), TinyEncoder(), probe, c1);

  EXPECT_EQ(shard0.name(), "shard0");
  EXPECT_EQ(shard1.name(), "shard1");
  EXPECT_TRUE(std::filesystem::is_directory(root + "/shard-0/models"));
  EXPECT_TRUE(std::filesystem::is_directory(root + "/shard-1/models"));
  ASSERT_TRUE(shard0.Init().ok());
  ASSERT_TRUE(shard1.Init().ok());

  for (CityShard* s : {&shard0, &shard1}) {
    s->service().InstallModel(
        std::make_shared<TemporalPathEncoder>(features(), TinyEncoder()), 1);
    ASSERT_TRUE(s->service().Start().ok());
  }

  // Traffic on shard 0 only: its metric namespace moves, shard 1's
  // stays untouched — two services in one process no longer fold into
  // the same counters.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        shard0.service().SubmitAndWait(Query(static_cast<int>(i), 500 + i))
            .status.ok());
  }
  EXPECT_EQ(obs::GetCounter("shard0.serve.requests").value(), 4u);
  EXPECT_EQ(obs::GetCounter("shard1.serve.requests").value(), 0u);

  // Health snapshots are per shard.
  serve::ServiceHealth h0 = shard0.service().Health();
  EXPECT_TRUE(h0.started);
  EXPECT_EQ(h0.generation, 1u);
  EXPECT_EQ(h0.breaker_state, 0);
  shard0.service().Shutdown();
  shard1.service().Shutdown();
  EXPECT_FALSE(shard0.service().Health().started);
}

// ---------------------------------------------------------------------------
// Fleet-driven routing sanity: one shard per fleet city.
// ---------------------------------------------------------------------------

TEST_F(RouteTest, FleetCitiesAllRoute) {
  synth::FleetConfig fc;
  fc.num_cities = 5;
  fc.seed = 77;
  synth::CityFleet fleet(fc);
  auto svc = MakeService("");
  std::vector<ShardEndpoint> eps;
  for (const auto& city : fleet.cities()) {
    eps.push_back({city.city_id, "", svc.get()});
  }
  Router router(eps, RouterConfig{});
  for (const auto& city : fleet.cities()) {
    EXPECT_GE(router.ShardForCity(city.city_id), 0);
  }
  EXPECT_EQ(router.num_shards(), 5);
  svc->Shutdown();
}

}  // namespace
}  // namespace tpr::route
