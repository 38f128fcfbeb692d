#include "route/router.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tpr::route {

const char* ShardStateName(ShardState s) {
  switch (s) {
    case ShardState::kHealthy: return "healthy";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "?";
}

const char* RouteErrorName(RouteError e) {
  switch (e) {
    case RouteError::kNone: return "none";
    case RouteError::kNoShardForCity: return "no-shard-for-city";
    case RouteError::kShardQuarantined: return "shard-quarantined";
    case RouteError::kDispatchFault: return "dispatch-fault";
    case RouteError::kShardRejected: return "shard-rejected";
  }
  return "?";
}

Router::Router(std::vector<ShardEndpoint> shards, const RouterConfig& config)
    : config_(config), shards_(std::move(shards)) {
  TPR_CHECK(!shards_.empty());
  TPR_CHECK(config_.quarantine_after > 0);
  TPR_CHECK(config_.backoff_initial > 0);
  TPR_CHECK(config_.backoff_max >= config_.backoff_initial);
  // Canonical order: sorted by city id. Shard index is the city's rank,
  // so routing is a pure function of the city SET — registration order
  // never leaks into it.
  std::sort(shards_.begin(), shards_.end(),
            [](const ShardEndpoint& a, const ShardEndpoint& b) {
              return a.city_id < b.city_id;
            });
  for (size_t i = 0; i < shards_.size(); ++i) {
    TPR_CHECK(shards_[i].service != nullptr);
    TPR_CHECK(i == 0 || shards_[i - 1].city_id < shards_[i].city_id);
    if (shards_[i].name.empty()) {
      shards_[i].name = "shard" + std::to_string(shards_[i].city_id);
    }
  }

  rt_ = std::make_unique<ShardRt[]>(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    rt_[i].metrics = obs::MetricScope(shards_[i].name + ".");
    rt_[i].metrics.gauge("route.state")
        .Set(static_cast<double>(static_cast<int>(ShardState::kHealthy)));
  }
}

int Router::ShardForCity(int city_id) const {
  const auto it = std::lower_bound(
      shards_.begin(), shards_.end(), city_id,
      [](const ShardEndpoint& s, int city) { return s.city_id < city; });
  if (it == shards_.end() || it->city_id != city_id) return -1;
  return static_cast<int>(it - shards_.begin());
}

uint64_t Router::NextProbeAt(const ShardRt& rt, int city_id) const {
  uint64_t window = config_.backoff_initial;
  for (uint64_t i = 0; i < rt.probe_attempts && window < config_.backoff_max;
       ++i) {
    window <<= 1;
  }
  window = std::min(window, config_.backoff_max);
  // Deterministic jitter: a fresh stream per (shard, quarantine episode,
  // probe attempt). Spreads simultaneous re-probes across a half-window
  // without ever consulting a clock.
  Rng jitter(MixSeed(MixSeed(config_.seed, static_cast<uint64_t>(city_id)),
                     rt.quarantines * 4096 + rt.probe_attempts));
  return rt.dispatches + window + jitter.UniformInt(window / 2 + 1);
}

void Router::RecordOutcome(int shard_index, ShardRt& rt, bool success) {
  const ShardEndpoint& sh = shards_[static_cast<size_t>(shard_index)];
  if (success) {
    rt.consecutive_failures = 0;
    if (rt.state == ShardState::kQuarantined) {
      rt.state = ShardState::kHealthy;
      rt.probe_attempts = 0;
      rt.next_probe_at = 0;
      rt.metrics.counter("route.recoveries").Add();
    }
  } else {
    ++rt.failures;
    rt.metrics.counter("route.failures").Add();
    if (rt.state == ShardState::kQuarantined) {
      // A failed probe: back off again, doubling the window.
      ++rt.probe_attempts;
      rt.next_probe_at = NextProbeAt(rt, sh.city_id);
    } else if (++rt.consecutive_failures >= config_.quarantine_after) {
      rt.state = ShardState::kQuarantined;
      ++rt.quarantines;
      rt.probe_attempts = 0;
      rt.next_probe_at = NextProbeAt(rt, sh.city_id);
      rt.metrics.counter("route.quarantines").Add();
    }
  }
  rt.metrics.gauge("route.state")
      .Set(static_cast<double>(static_cast<int>(rt.state)));
}

RoutedSubmit Router::Submit(const CityRequest& req) {
  RoutedSubmit out;
  const int idx = ShardForCity(req.city_id);
  if (idx < 0) {
    out.error = RouteError::kNoShardForCity;
    out.status = Status::NotFound(
        "no shard for city " + std::to_string(req.city_id));
    obs::GetCounter("route.unmapped").Add();
    return out;
  }
  const ShardEndpoint& sh = shards_[static_cast<size_t>(idx)];
  ShardRt& rt = rt_[idx];
  out.shard_index = idx;
  out.shard = sh.name;

  std::lock_guard<std::mutex> lock(rt.mu);
  // Logical time at this shard: every attempt — admitted, faulted, or
  // shed — advances it, so quarantine/probe schedules depend only on
  // the per-shard dispatch order.
  ++rt.dispatches;
  rt.metrics.counter("route.dispatches").Add();

  if (rt.state == ShardState::kQuarantined &&
      rt.dispatches < rt.next_probe_at) {
    ++rt.shed;
    rt.metrics.counter("route.shed").Add();
    out.error = RouteError::kShardQuarantined;
    out.status = Status::Unavailable(
        sh.name + ": quarantined (probe at dispatch " +
        std::to_string(rt.next_probe_at) + ")");
    return out;
  }
  const bool probing = rt.state == ShardState::kQuarantined;
  if (probing) rt.metrics.counter("route.probes").Add();

  // The router's own fault site, evaluated under the shard's scope so
  // plans can bomb exactly one shard's dispatch path. Keyed by request
  // id: the verdict is a property of the request, not of timing.
  bool dispatch_fault;
  {
    fault::ScopedShard scope(sh.name);
    dispatch_fault = fault::ShouldFail(fault::kRouteDispatch, req.query.id);
  }
  if (dispatch_fault) {
    RecordOutcome(idx, rt, /*success=*/false);
    out.error = RouteError::kDispatchFault;
    out.status = Status::Unavailable(sh.name + ": route-dispatch fault");
    return out;
  }

  auto admitted = sh.service->Submit(req.query, req.deadline_ms);
  if (!admitted.ok()) {
    // A malformed query is the caller's fault, not the shard's: it must
    // not count toward quarantine.
    if (admitted.status().code() != StatusCode::kInvalidArgument) {
      RecordOutcome(idx, rt, /*success=*/false);
    }
    out.error = RouteError::kShardRejected;
    out.status = Status(admitted.status().code(),
                        sh.name + ": " + admitted.status().message());
    return out;
  }
  RecordOutcome(idx, rt, /*success=*/true);
  ++rt.admitted;
  rt.metrics.counter("route.admitted").Add();
  out.status = Status::OK();
  out.result = std::move(admitted).value();
  return out;
}

RouteResult Router::Dispatch(const CityRequest& req) {
  RouteResult out;
  out.city_id = req.city_id;
  RoutedSubmit sub = Submit(req);
  out.status = std::move(sub.status);
  out.error = sub.error;
  out.shard_index = sub.shard_index;
  out.shard = std::move(sub.shard);
  if (out.status.ok()) {
    out.serve = sub.result.get();
    out.status = out.serve.status;
  }
  return out;
}

std::vector<RouteResult> Router::DispatchMulti(
    const std::vector<CityRequest>& legs) {
  // Admit every leg first (pipelining the shards), then collect. Each
  // leg degrades or sheds on its own; one sick city never poisons the
  // others' legs.
  std::vector<RoutedSubmit> subs;
  subs.reserve(legs.size());
  for (const CityRequest& leg : legs) subs.push_back(Submit(leg));
  std::vector<RouteResult> out(legs.size());
  for (size_t i = 0; i < legs.size(); ++i) {
    out[i].city_id = legs[i].city_id;
    out[i].status = std::move(subs[i].status);
    out[i].error = subs[i].error;
    out[i].shard_index = subs[i].shard_index;
    out[i].shard = std::move(subs[i].shard);
    if (out[i].status.ok()) {
      out[i].serve = subs[i].result.get();
      out[i].status = out[i].serve.status;
    }
  }
  return out;
}

ShardHealth Router::Health(int shard_index) const {
  TPR_CHECK(shard_index >= 0 && shard_index < num_shards());
  const ShardEndpoint& sh = shards_[static_cast<size_t>(shard_index)];
  const ShardRt& rt = rt_[shard_index];
  ShardHealth h;
  h.city_id = sh.city_id;
  h.name = sh.name;
  {
    std::lock_guard<std::mutex> lock(rt.mu);
    h.state = rt.state;
    h.dispatches = rt.dispatches;
    h.admitted = rt.admitted;
    h.failures = rt.failures;
    h.shed = rt.shed;
    h.consecutive_failures = rt.consecutive_failures;
    h.quarantines = rt.quarantines;
    h.next_probe_at = rt.next_probe_at;
  }
  h.service = sh.service->Health();
  return h;
}

std::vector<ShardHealth> Router::FleetHealth() const {
  std::vector<ShardHealth> out;
  out.reserve(shards_.size());
  for (int i = 0; i < num_shards(); ++i) out.push_back(Health(i));
  return out;
}

}  // namespace tpr::route
