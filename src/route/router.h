#ifndef TPR_ROUTE_ROUTER_H_
#define TPR_ROUTE_ROUTER_H_

// Deterministic routing tier over per-city serving shards.
//
// The Router fronts a fleet of fault-isolated InferenceService shards,
// one per city. Its job splits in two:
//
//   routing     request -> shard is the city's rank in the canonical
//               (sorted) city set, found by binary search: the same
//               cities always route the same way, independent of the
//               order shards were registered or which of N router
//               threads asks.
//   failover    each shard carries a health state machine driven ONLY
//               by deterministic signals — injected "route-dispatch"
//               fault verdicts (keyed by request id, evaluated under
//               the shard's fault scope) and admission errors other
//               than a malformed query (InvalidArgument) — folded
//               in per-shard dispatch order. `quarantine_after`
//               consecutive failures quarantine the shard; requests
//               then shed with a typed per-shard error until a
//               deterministically jittered re-probe backoff (counted in
//               LOGICAL dispatches at that shard, never wall clock)
//               admits one probe request back through.
//
// Partial availability is the core guarantee: a sick shard degrades
// through its own service's rungs or sheds with a typed error, while
// every other shard's request stream is untouched — the fleet soak
// asserts healthy shards' traces are byte-identical to a no-fault run.
//
// Determinism contract: for a fixed fault spec and a fixed per-shard
// request order, every routing decision, health transition, and
// re-probe schedule is identical across runs and router thread counts.
// Shard state is guarded per shard, so the contract holds whenever each
// shard's requests arrive in a fixed order (e.g. one submitter per city,
// or cities partitioned across threads). ServiceHealth::queue_depth is
// exposed for operators but NEVER consulted for routing — it is the one
// wall-clock-raced signal in the snapshot.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/service.h"
#include "util/status.h"

namespace tpr::route {

struct RouterConfig {
  /// Consecutive dispatch failures (route-dispatch fault or admission
  /// error; a malformed query never counts) that quarantine a shard.
  int quarantine_after = 3;

  /// Re-probe backoff, in logical dispatches at the quarantined shard:
  /// the first probe is admitted `backoff_initial + jitter` dispatches
  /// after quarantine; each failed probe doubles the window up to
  /// `backoff_max`. Jitter is deterministic (seeded by shard + attempt).
  uint64_t backoff_initial = 8;
  uint64_t backoff_max = 64;

  /// Seeds the re-probe jitter streams.
  uint64_t seed = 31;
};

/// One shard as the router sees it: a city, a name (also the shard's
/// fault scope + metric prefix stem), and its service.
struct ShardEndpoint {
  int city_id = 0;
  /// Fault-scope name, e.g. "shard0"; must match the service's
  /// ServiceConfig::shard for @-qualified fault rules to line up.
  std::string name;
  /// Must outlive the router.
  serve::InferenceService* service = nullptr;
};

enum class ShardState { kHealthy = 0, kQuarantined = 1 };

const char* ShardStateName(ShardState s);

/// Typed routing outcome, distinguishing who refused the request.
enum class RouteError {
  kNone = 0,          // admitted to the shard
  kNoShardForCity,    // city not in the routing table
  kShardQuarantined,  // shed: shard quarantined, not yet probe time
  kDispatchFault,     // injected route-dispatch fault for this request
  kShardRejected,     // shard admission refused (shed/stopping/fault/
                      // malformed query)
};

const char* RouteErrorName(RouteError e);

/// Router-level health snapshot of one shard. The route_* fields fold
/// deterministically in per-shard dispatch order; `service` is the
/// shard's own snapshot (its queue_depth is advisory — see service.h).
struct ShardHealth {
  int city_id = 0;
  std::string name;
  ShardState state = ShardState::kHealthy;
  uint64_t dispatches = 0;       // logical time: attempts at this shard
  uint64_t admitted = 0;
  uint64_t failures = 0;         // faults + rejections folded
  uint64_t shed = 0;             // refused while quarantined
  int consecutive_failures = 0;
  uint64_t quarantines = 0;      // times the shard entered quarantine
  uint64_t next_probe_at = 0;    // dispatch index of the next probe
  serve::ServiceHealth service;
};

/// A request addressed to a city.
struct CityRequest {
  int city_id = 0;
  serve::PathQuery query;
  double deadline_ms = 0;  // <= 0: no deadline
};

/// Admission outcome of one routed request.
struct RoutedSubmit {
  Status status;                   // OK when admitted
  RouteError error = RouteError::kNone;
  int shard_index = -1;            // -1 only for kNoShardForCity
  std::string shard;               // shard name ("" when unmapped)
  std::future<serve::ServeResult> result;  // valid when status.ok()
};

/// Submit + wait outcome of one leg.
struct RouteResult {
  Status status;
  RouteError error = RouteError::kNone;
  int city_id = 0;
  int shard_index = -1;
  std::string shard;
  serve::ServeResult serve;  // valid when status.ok()
};

class Router {
 public:
  /// Endpoints may arrive in any order; the routing table is canonical
  /// over the sorted city set. InvalidArgument-checks (via TPR_CHECK)
  /// duplicate cities and null services.
  Router(std::vector<ShardEndpoint> shards, const RouterConfig& config);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Pure lookup: shard index for a city, -1 when unmapped. Stable
  /// across construction orders and identical on every thread.
  int ShardForCity(int city_id) const;

  /// Routes + health-gates + admits one request. Never blocks on the
  /// embedding result; callers pipeline futures for throughput.
  RoutedSubmit Submit(const CityRequest& req);

  /// Submit + wait.
  RouteResult Dispatch(const CityRequest& req);

  /// A cross-city query: every leg routes independently, any leg may
  /// independently degrade or shed, and the composition reports each
  /// leg's own typed outcome in input order.
  std::vector<RouteResult> DispatchMulti(const std::vector<CityRequest>& legs);

  ShardHealth Health(int shard_index) const;
  std::vector<ShardHealth> FleetHealth() const;

 private:
  /// Mutable per-shard routing state, guarded by its own mutex so
  /// shards never serialize against each other.
  struct ShardRt {
    mutable std::mutex mu;
    ShardState state = ShardState::kHealthy;
    uint64_t dispatches = 0;
    uint64_t admitted = 0;
    uint64_t failures = 0;
    uint64_t shed = 0;
    int consecutive_failures = 0;
    uint64_t quarantines = 0;
    uint64_t probe_attempts = 0;  // failed probes this quarantine
    uint64_t next_probe_at = 0;
    obs::MetricScope metrics;  // "<name>." prefix
  };

  /// Fold one dispatch outcome into the shard's health machine.
  /// Caller holds rt.mu.
  void RecordOutcome(int shard_index, ShardRt& rt, bool success);

  /// Next re-probe dispatch index: doubling window + deterministic
  /// jitter from (seed, city, quarantine episode, attempt).
  uint64_t NextProbeAt(const ShardRt& rt, int city_id) const;

  const RouterConfig config_;
  std::vector<ShardEndpoint> shards_;  // sorted by city_id
  std::unique_ptr<ShardRt[]> rt_;      // parallel to shards_
};

}  // namespace tpr::route

#endif  // TPR_ROUTE_ROUTER_H_
