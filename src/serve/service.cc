#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace tpr::serve {
namespace {

// Salts decorrelating the keyed fault verdicts of the different sites a
// single request touches (rung-0 attempts vs alloc vs rung-2 compute),
// and the canary routing hash from all of them.
constexpr uint64_t kAllocSalt = 0xA110C5EEDULL;
constexpr uint64_t kCacheSalt = 0xCAC4E5EEDULL;
constexpr uint64_t kRouteSalt = 0xCA9A995EEDULL;

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

batch::BatchConfig FormerConfig(const ServiceConfig& config) {
  batch::BatchConfig bc;
  bc.max_batch = config.batch_max;
  bc.max_ticks = config.batch_ticks;
  bc.coalesce = config.batch_coalesce;
  bc.time_bucket_s = config.time_bucket_s;
  return bc;
}

constexpr char kModelTag[] = "tpr-serve-model";

}  // namespace

void InferenceService::ObserveRungLatency(Rung rung, double seconds) const {
  if (!obs::MetricsEnabled()) return;
  switch (rung) {
    case Rung::kFull:
      metrics_.histogram("serve.rung_full_seconds").Observe(seconds);
      break;
    case Rung::kQuantized:
      metrics_.histogram("serve.rung_quantized_seconds").Observe(seconds);
      break;
    case Rung::kCached:
      metrics_.histogram("serve.rung_cached_seconds").Observe(seconds);
      break;
    case Rung::kFallback:
      metrics_.histogram("serve.rung_fallback_seconds").Observe(seconds);
      break;
  }
}

const char* RungName(Rung r) {
  switch (r) {
    case Rung::kFull:
      return "full";
    case Rung::kQuantized:
      return "quantized";
    case Rung::kCached:
      return "cached";
    case Rung::kFallback:
      return "fallback";
  }
  return "?";
}

const char* CanaryVerdictName(CanaryVerdict v) {
  switch (v) {
    case CanaryVerdict::kPromoted:
      return "promoted";
    case CanaryVerdict::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

InferenceService::InferenceService(
    std::shared_ptr<const core::FeatureSpace> features,
    const core::EncoderConfig& encoder_config, const ServiceConfig& config)
    : features_(std::move(features)),
      encoder_config_(encoder_config),
      config_(config),
      quant_enabled_(quant::QuantEnabledFromEnv()),
      metrics_(config_.metrics_prefix),
      // BatchFormer checks batch_max, batch_ticks and time_bucket_s > 0.
      former_(FormerConfig(config_)) {
  TPR_CHECK(features_ != nullptr);
  TPR_CHECK(config_.num_workers > 0);
  TPR_CHECK(config_.queue_capacity > 0);
  TPR_CHECK(config_.max_retries >= 0);
  TPR_CHECK(config_.canary_permille >= 0 && config_.canary_permille <= 1000);
  TPR_CHECK(config_.canary_promote_after > 0);
}

InferenceService::~InferenceService() { Shutdown(); }

Status InferenceService::SaveModel(const core::TemporalPathEncoder& encoder,
                                   const std::string& dir,
                                   uint64_t generation) {
  ckpt::Writer w;
  w.Str(kModelTag);
  w.U64(generation);
  w.I32(encoder.representation_dim());
  ckpt::WriteParamValues(w, encoder.Parameters());
  return ckpt::CheckpointDir(dir).Save(generation, w.bytes());
}

StatusOr<InferenceService::DecodedModel> InferenceService::DecodeModelPayload(
    std::string_view payload,
    std::shared_ptr<const core::FeatureSpace> features,
    const core::EncoderConfig& config) {
  ckpt::Reader r(payload);
  std::string tag;
  uint64_t generation = 0;
  int32_t dim = 0;
  TPR_RETURN_IF_ERROR(r.Str(&tag));
  if (tag != kModelTag) {
    return Status::FailedPrecondition("not a serve model checkpoint");
  }
  TPR_RETURN_IF_ERROR(r.U64(&generation));
  TPR_RETURN_IF_ERROR(r.I32(&dim));
  if (dim != config.d_hidden) {
    return Status::FailedPrecondition(
        "serve model dim " + std::to_string(dim) + " != configured " +
        std::to_string(config.d_hidden));
  }
  auto encoder =
      std::make_shared<core::TemporalPathEncoder>(std::move(features), config);
  TPR_RETURN_IF_ERROR(ckpt::ReadParamValuesInto(r, encoder->Parameters()));
  DecodedModel out;
  out.encoder = std::move(encoder);
  out.generation = generation;
  return out;
}

Status InferenceService::LoadModel(const std::string& dir) {
  fault::ScopedShard shard_scope(config_.shard);  // ckpt-read site
  auto loaded = ckpt::CheckpointDir(dir).LoadLatest();
  if (!loaded.ok()) {
    metrics_.counter("serve.model_load_failures").Add(1);
    return loaded.status();
  }
  auto decoded = DecodeModelPayload(loaded->payload, features_, encoder_config_);
  if (!decoded.ok()) {
    metrics_.counter("serve.model_load_failures").Add(1);
    return decoded.status();
  }
  // The int8 twin is optional sidecar state: published beside the
  // checkpoint by tpr::rollout. Absent, unreadable, or shaped for
  // another encoder, the generation serves with the quantized rung dark
  // — never a load failure.
  std::shared_ptr<const quant::QuantizedEncoder> twin;
  if (quant_enabled_) {
    auto model = quant::LoadQuantizedModel(dir, loaded->seq);
    // A twin of another shape would misread the feature rows or panels.
    if (model.ok() && model->generation == decoded->generation &&
        quant::CheckTwinShape(*model, *decoded->encoder).ok()) {
      twin = std::make_shared<const quant::QuantizedEncoder>(
          features_, std::move(model).value());
    } else if (model.status().code() != StatusCode::kNotFound) {
      metrics_.counter("serve.quant_twin_load_failures").Add(1);
    }
  }
  InstallModel(std::move(decoded->encoder), decoded->generation,
               std::move(twin));
  return Status::OK();
}

std::shared_ptr<InferenceService::GenState> InferenceService::MakeGenState(
    std::shared_ptr<const core::TemporalPathEncoder> encoder,
    uint64_t generation,
    std::shared_ptr<const quant::QuantizedEncoder> quant) const {
  auto gen = std::make_shared<GenState>();
  gen->model = std::move(encoder);
  gen->quant = quant_enabled_ ? std::move(quant) : nullptr;
  gen->generation = generation;
  gen->cache = std::make_unique<EmbeddingLruCache>(config_.cache_capacity);
  return gen;
}

void InferenceService::InstallModel(
    std::shared_ptr<const core::TemporalPathEncoder> encoder,
    uint64_t generation,
    std::shared_ptr<const quant::QuantizedEncoder> quant) {
  TPR_CHECK(encoder != nullptr);
  auto gen = MakeGenState(std::move(encoder), generation, std::move(quant));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (canary_ != nullptr) {
      // The incumbent the canary was being compared against is gone, so
      // the comparison is void: roll the canary back rather than keep
      // scoring it against a different baseline.
      ResolveCanaryLocked(CanaryVerdict::kRolledBack,
                          "superseded by InstallModel");
    }
    live_ = std::move(gen);
  }
  metrics_.gauge("serve.model_generation").Set(static_cast<double>(generation));
}

Status InferenceService::BeginCanary(
    std::shared_ptr<const core::TemporalPathEncoder> encoder,
    uint64_t generation,
    std::shared_ptr<const quant::QuantizedEncoder> quant) {
  if (encoder == nullptr) {
    return Status::InvalidArgument("null canary encoder");
  }
  auto gen = MakeGenState(std::move(encoder), generation, std::move(quant));
  std::lock_guard<std::mutex> lock(mu_);
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no incumbent model to canary against");
  }
  if (canary_ != nullptr) {
    return Status::FailedPrecondition("a canary is already in flight");
  }
  canary_ = std::move(gen);
  metrics_.counter("serve.canaries").Add(1);
  metrics_.gauge("serve.canary_generation").Set(static_cast<double>(generation));
  return Status::OK();
}

std::optional<CanaryResolution> InferenceService::TakeCanaryResolution() {
  std::lock_guard<std::mutex> lock(mu_);
  if (resolutions_.empty()) return std::nullopt;
  CanaryResolution res = std::move(resolutions_.front());
  resolutions_.pop_front();
  return res;
}

ServiceHealth InferenceService::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceHealth h;
  h.started = started_ && !stopping_;
  h.queue_depth = static_cast<int>(waiting_.size());
  h.canary_installed = canary_ != nullptr;
  if (live_ != nullptr) {
    h.generation = live_->generation;
    switch (live_->breaker.state) {
      case Breaker::State::kClosed:
        h.breaker_state = 0;
        break;
      case Breaker::State::kOpen:
        h.breaker_state = 1;
        break;
      case Breaker::State::kHalfOpen:
        h.breaker_state = 2;
        break;
    }
    h.consecutive_failures = live_->breaker.consecutive_failures;
  }
  return h;
}

CanaryStatus InferenceService::canary_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  CanaryStatus s;
  if (canary_ != nullptr) {
    s.installed = true;
    s.generation = canary_->generation;
    s.routed = canary_->routed;
    s.clean = canary_->clean;
  }
  return s;
}

void InferenceService::ResolveCanaryLocked(CanaryVerdict verdict,
                                           const std::string& reason) {
  CanaryResolution res;
  res.generation = canary_->generation;
  res.verdict = verdict;
  res.reason = reason;
  res.routed = canary_->routed;
  res.clean = canary_->clean;
  if (verdict == CanaryVerdict::kPromoted) {
    // The canary slot — fresh breaker, warm cache, its own metrics —
    // becomes the incumbent wholesale; nothing about its state resets.
    live_ = std::move(canary_);
    metrics_.counter("serve.canary_promotions").Add(1);
    metrics_.gauge("serve.model_generation")
        .Set(static_cast<double>(live_->generation));
  } else {
    metrics_.counter("serve.canary_rollbacks").Add(1);
  }
  canary_.reset();
  metrics_.gauge("serve.canary_generation").Set(0);
  resolutions_.push_back(std::move(res));
}

uint64_t InferenceService::model_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_ != nullptr ? live_->generation : 0;
}

std::shared_ptr<const core::TemporalPathEncoder>
InferenceService::live_model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_ != nullptr ? live_->model : nullptr;
}

bool InferenceService::RoutesToCanary(uint64_t id) const {
  // Pure hash of the request id: the same id routes the same way at any
  // worker count, on any run. (Whether a canary is actually installed is
  // a separate question — this is only the routing predicate.)
  return MixSeed(kRouteSalt, id) % 1000 <
         static_cast<uint64_t>(config_.canary_permille);
}

Status InferenceService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_ == nullptr) {
    return Status::FailedPrecondition("no model installed");
  }
  if (started_) return Status::FailedPrecondition("already started");
  started_ = true;
  stopping_ = false;
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void InferenceService::Shutdown() {
  std::unordered_map<uint64_t, Request> orphaned;
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Claim the unprocessed requests AND the worker threads under the
    // lock so racing Shutdown calls (or Shutdown vs destructor) each join
    // a disjoint — possibly empty — set of threads instead of
    // double-joining. Every unprocessed request — pending in the former
    // or sitting in a formed-but-unpopped batch — is still parked in
    // waiting_ (workers extract members atomically with the pop), so
    // failing waiting_ covers ready_'s batches too.
    orphaned.swap(waiting_);
    ready_.clear();
    workers.swap(workers_);
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& entry : orphaned) {
    ServeResult result = entry.second.BaseResult();
    result.status = Status::Unavailable("service shutting down");
    entry.second.promise.set_value(std::move(result));
  }
  for (auto& t : workers) t.join();
  if (!workers.empty()) metrics_.gauge("serve.queue_depth").Set(0);
}

bool InferenceService::PredictRung0Skip(const Request& req) const {
  // An injected batch-flush drop degrades the request's whole group
  // before any encode — like alloc, no rung-0 attempt.
  return fault::WouldFail(fault::kAlloc, MixSeed(kAllocSalt, req.query.id)) ||
         fault::WouldFail(fault::kBatchFlush, req.fault_key);
}

bool InferenceService::PredictRung0Failure(const Request& req) const {
  for (int a = 0; a <= config_.max_retries; ++a) {
    if (!fault::WouldFail(fault::kEncoderForward,
                          MixSeed(req.fault_key, static_cast<uint64_t>(a)))) {
      return false;
    }
  }
  return true;
}

bool InferenceService::BreakerAdmit(GenState& gen, Request& req,
                                    bool no_attempt, bool predicted_fail) {
  Breaker& b = gen.breaker;
  bool tripped = false;
  switch (b.state) {
    case Breaker::State::kClosed:
      if (no_attempt) break;  // no rung-0 attempt, no signal
      if (predicted_fail) {
        if (++b.consecutive_failures >= config_.breaker_trip_threshold) {
          b.state = Breaker::State::kOpen;
          b.open_skips_remaining = config_.breaker_open_requests;
          metrics_.counter("serve.breaker_trips").Add(1);
          tripped = true;
        }
      } else {
        b.consecutive_failures = 0;
      }
      break;
    case Breaker::State::kOpen:
      req.skip_rung0 = true;
      metrics_.counter("serve.breaker_open_skips").Add(1);
      if (--b.open_skips_remaining <= 0) {
        b.state = Breaker::State::kHalfOpen;
      }
      break;
    case Breaker::State::kHalfOpen:
      // This request is the probe: it goes to rung 0 and its predicted
      // outcome resolves the breaker immediately, in admission order.
      if (no_attempt || predicted_fail) {
        b.state = Breaker::State::kOpen;
        b.open_skips_remaining = config_.breaker_open_requests;
        if (predicted_fail) {
          metrics_.counter("serve.breaker_trips").Add(1);
          tripped = true;
        }
      } else {
        b.state = Breaker::State::kClosed;
        b.consecutive_failures = 0;
      }
      break;
  }
  return tripped;
}

void InferenceService::AdmitToGeneration(Request& req) {
  req.gen = live_;
  if (canary_ != nullptr && RoutesToCanary(req.query.id)) {
    ++canary_->routed;
    metrics_.counter("serve.canary_requests").Add(1);
    // Injected quality regression: the canary rolls back the moment
    // traffic reaches it, and this request is served by the incumbent —
    // canary failures must never cost a user a good answer.
    if (fault::ShouldFail(fault::kCanaryRegression, canary_->generation)) {
      ResolveCanaryLocked(CanaryVerdict::kRolledBack,
                          "injected canary-regression");
    } else {
      req.gen = canary_;
      req.canary = true;
    }
  }
  // The fault key, decided once. A coalesced group shares one encode, so
  // its members share the group hash — the pinned generation rides in
  // its salt, so a group is generation-homogeneous, exactly as in the
  // former. Without coalescing every request is its own group and keys
  // by its id.
  req.fault_key =
      config_.batch_coalesce
          ? batch::BatchFormer::GroupHash(
                req.query.path, former_.EncodeTime(req.query.depart_time_s),
                req.gen->generation)
          : req.query.id;
  // The keyed predictions of this request's rung 0, shared by the
  // breaker fold and the canary's clean count. With no plan installed
  // every prediction is clean.
  const bool no_attempt = PredictRung0Skip(req);
  const bool predicted_fail = !no_attempt && PredictRung0Failure(req);
  GenState& gen = *req.gen;
  const bool tripped = BreakerAdmit(gen, req, no_attempt, predicted_fail);
  if (!req.canary) return;
  if (tripped) {
    // The request stays pinned to the now-detached canary state and
    // serves degraded; every later request routes to the incumbent.
    ResolveCanaryLocked(CanaryVerdict::kRolledBack, "breaker-trip");
  } else if (!req.skip_rung0 && !no_attempt && !predicted_fail &&
             ++gen.clean >=
                 static_cast<uint64_t>(config_.canary_promote_after)) {
    ResolveCanaryLocked(CanaryVerdict::kPromoted, "clean-requests");
  }
}

Status InferenceService::ValidateQuery(const PathQuery& query) const {
  if (query.path.empty()) return Status::InvalidArgument("empty path");
  const int num_edges = features_->data->network->num_edges();
  for (int edge_id : query.path) {
    if (edge_id < 0 || edge_id >= num_edges) {
      return Status::InvalidArgument(
          "edge id " + std::to_string(edge_id) + " outside [0, " +
          std::to_string(num_edges) + ")");
    }
  }
  return Status::OK();
}

StatusOr<std::future<ServeResult>> InferenceService::Submit(
    PathQuery query, double deadline_ms) {
  // A malformed query is the caller's error: refused before admission,
  // so it takes no ticket and no fault verdict.
  TPR_RETURN_IF_ERROR(ValidateQuery(query));
  // Admission (queue-full verdicts, breaker fold predictions) runs on
  // the submitter's thread; scope it so site@shard rules see this shard.
  fault::ScopedShard shard_scope(config_.shard);
  const auto admitted_at = std::chrono::steady_clock::now();
  Request req;
  req.query = std::move(query);
  if (deadline_ms > 0) {
    req.has_deadline = true;
    req.deadline =
        admitted_at + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              deadline_ms));
  }
  std::future<ServeResult> future = req.promise.get_future();
  bool wake_worker = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return Status::Unavailable("service not accepting requests");
    }
    req.ticket = next_ticket_++;
    metrics_.counter("serve.requests").Add(1);
    // Injected admission failure: behaves exactly like a full queue.
    if (fault::ShouldFail(fault::kQueueFull, req.ticket)) {
      metrics_.counter("serve.shed").Add(1);
      return Status::ResourceExhausted("queue full (injected)");
    }
    // The capacity bound covers every unprocessed request — pending in
    // the former or waiting on a formed batch.
    if (waiting_.size() >= static_cast<size_t>(config_.queue_capacity)) {
      if (!config_.block_when_full) {
        metrics_.counter("serve.shed").Add(1);
        return Status::ResourceExhausted(
            "queue full (" + std::to_string(waiting_.size()) + ")");
      }
      not_full_.wait(lock, [this] {
        return stopping_ ||
               waiting_.size() < static_cast<size_t>(config_.queue_capacity);
      });
      if (stopping_) {
        return Status::Unavailable("service shutting down");
      }
    }
    AdmitToGeneration(req);
    const uint64_t ticket = req.ticket;
    const bool was_pending = former_.has_pending();
    auto flushed = former_.Arrive(ticket, req.query.path,
                                  req.query.depart_time_s, req.gen->generation);
    waiting_.emplace(ticket, std::move(req));
    // One logical tick per admission; ages partial batches out. An
    // arrival can fill a batch OR age one out, never both (a size flush
    // empties the former).
    if (auto aged = former_.Tick()) {
      TPR_CHECK(!flushed.has_value());
      flushed = std::move(aged);
    }
    metrics_.gauge("serve.queue_depth")
        .Set(static_cast<double>(waiting_.size()));
    if (flushed.has_value()) {
      ready_.push_back(std::move(*flushed));
      wake_worker = true;
    } else {
      // The first pending arrival on a shard where no worker is encoding
      // a batch of several wakes one to drain it. Later arrivals join the
      // same partial batch and need no signal: either that wake is still
      // on its way, or a worker re-checks when its batch finishes.
      wake_worker = !was_pending && batching_workers_ == 0;
    }
  }
  if (wake_worker) not_empty_.notify_one();
  return future;
}

ServeResult InferenceService::SubmitAndWait(PathQuery query,
                                            double deadline_ms) {
  auto submitted = Submit(std::move(query), deadline_ms);
  if (!submitted.ok()) {
    ServeResult result;
    result.status = submitted.status();
    return result;
  }
  return submitted->get();
}

void InferenceService::WorkerLoop() {
  fault::ScopedShard shard_scope(config_.shard);
  // A finished batch of several leaves batching_workers_ under the next
  // iteration's lock, after its requests were freed outside it.
  bool batching = false;
  for (;;) {
    batch::FormedBatch batch;
    std::vector<std::vector<Request>> members;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (batching) --batching_workers_;
      // A partial batch waits in the former only while some worker is
      // encoding a batch of several requests: arrivals are outpacing the
      // workers, so the next ones batch (and coalesce) behind it. Behind
      // lone requests the shard is keeping up, and this worker takes
      // everything pending at once.
      not_empty_.wait(lock, [this] {
        return stopping_ || !ready_.empty() ||
               (batching_workers_ == 0 && former_.has_pending());
      });
      if (stopping_) return;  // ready_ cleared by Shutdown
      if (ready_.empty()) ready_.push_back(*former_.FlushAll());
      batch = std::move(ready_.front());
      ready_.pop_front();
      // Extract the members atomically with the pop: a request is either
      // in waiting_ (and fails Unavailable at Shutdown) or owned by
      // exactly one worker — never both.
      members.reserve(batch.groups.size());
      for (const auto& group : batch.groups) {
        std::vector<Request> reqs;
        reqs.reserve(group.tickets.size());
        for (uint64_t ticket : group.tickets) {
          auto it = waiting_.find(ticket);
          TPR_CHECK(it != waiting_.end());
          reqs.push_back(std::move(it->second));
          waiting_.erase(it);
        }
        members.push_back(std::move(reqs));
      }
      batching = batch.groups.size() > 1 || members.front().size() > 1;
      if (batching) ++batching_workers_;
      metrics_.gauge("serve.queue_depth")
          .Set(static_cast<double>(waiting_.size()));
    }
    not_full_.notify_all();
    ProcessBatch(batch, members);
  }
}

void InferenceService::ProcessBatch(batch::FormedBatch& batch,
                                    std::vector<std::vector<Request>>& members) {
  Stopwatch sw;
  const size_t n_groups = batch.groups.size();
  size_t total = 0;
  for (const auto& m : members) total += m.size();
  metrics_.counter("serve.batches").Add(1);
  metrics_.counter("serve.batched_requests").Add(total);
  metrics_.counter("serve.batch_coalesced").Add(total - n_groups);

  // Every member of a group carries the group's fault key, fixed at
  // admission (AdmitToGeneration).
  std::vector<uint64_t> keys(n_groups);
  for (size_t gi = 0; gi < n_groups; ++gi) {
    keys[gi] = members[gi].front().fault_key;
  }

  // Injected worker slowness, once per batch, keyed by its first group.
  // Latency only — deadlines are outside the determinism contract.
  SleepMs(fault::DelayMs(fault::kSlowWorker, keys.front()));

  // Resolve the fates decided before any encode: breaker-open skips,
  // injected scratch-alloc failures, and injected batch-flush drops (the
  // whole group degrades with no rung-0 attempt — like alloc, not a
  // breaker signal). They step down at the exact request time. Everyone
  // else queues for the batched rung-0 ladder.
  std::vector<std::vector<Request*>> pending(n_groups);
  std::vector<size_t> live;
  live.reserve(n_groups);
  for (size_t gi = 0; gi < n_groups; ++gi) {
    const bool flush_drop = fault::ShouldFail(fault::kBatchFlush, keys[gi]);
    for (Request& req : members[gi]) {
      if (req.skip_rung0 || flush_drop ||
          fault::ShouldFail(fault::kAlloc,
                            MixSeed(kAllocSalt, req.query.id))) {
        req.promise.set_value(DegradedLadder(req, req.BaseResult(),
                                             req.query.depart_time_s, sw));
      } else {
        pending[gi].push_back(&req);
      }
    }
    if (!pending[gi].empty()) live.push_back(gi);
  }

  // Rung 0: the whole round's surviving groups go through ONE packed
  // forward per model generation, with retries. Verdicts and backoff
  // jitter are keyed by the group's fault key — a pure function of the
  // request, so its outcome is identical whichever batch it rode in.
  for (int a = 0; a <= config_.max_retries && !live.empty(); ++a) {
    // Members out of time resolve before the attempt.
    for (size_t gi : live) {
      auto& mem = pending[gi];
      mem.erase(std::remove_if(mem.begin(), mem.end(),
                               [&](Request* r) {
                                 if (!r->expired()) return false;
                                 r->promise.set_value(DeadlineResult(*r, a));
                                 return true;
                               }),
                mem.end());
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](size_t gi) { return pending[gi].empty(); }),
               live.end());
    if (live.empty()) break;

    std::vector<size_t> ready;
    std::vector<size_t> failed;
    for (size_t gi : live) {
      if (a > 0) metrics_.counter("serve.retries").Add(1);
      if (fault::ShouldFail(fault::kEncoderForward,
                            MixSeed(keys[gi], static_cast<uint64_t>(a)))) {
        failed.push_back(gi);
      } else {
        ready.push_back(gi);
      }
    }

    if (!ready.empty()) {
      // A batch may mix groups pinned to different generations
      // (incumbent + canary — each group is generation-homogeneous: a
      // coalesced group's hash salt is its generation, any other group
      // is one request): one packed forward per model.
      std::vector<std::pair<GenState*, std::vector<size_t>>> parts;
      for (size_t gi : ready) {
        GenState* gen = pending[gi].front()->gen.get();
        bool found = false;
        for (auto& p : parts) {
          if (p.first == gen) {
            p.second.push_back(gi);
            found = true;
            break;
          }
        }
        if (!found) parts.emplace_back(gen, std::vector<size_t>{gi});
      }
      // Each generation's part is one encode: the packed forward costs
      // its true row count whatever the mix of path lengths.
      for (const auto& part : parts) {
        const std::vector<size_t>& gis = part.second;
        std::vector<core::PathTimeItem> items;
        items.reserve(gis.size());
        bool all_deadlined = true;
        for (size_t gi : gis) {
          items.push_back(core::PathTimeItem{&batch.groups[gi].path,
                                             batch.groups[gi].encode_time_s});
          for (Request* r : pending[gi]) all_deadlined &= r->has_deadline;
        }
        // Cancel the shared forward only when EVERY waiting member is
        // out of time; one expired member must not cancel the others.
        std::function<bool()> cancelled;
        if (all_deadlined) {
          cancelled = [&gis, &pending] {
            const auto now = std::chrono::steady_clock::now();
            for (size_t gi : gis) {
              for (Request* r : pending[gi]) {
                if (now < r->deadline) return false;
              }
            }
            return true;
          };
        }
        auto encoded =
            part.first->model->EncodeValueBatchCancellable(items, cancelled);
        for (size_t i = 0; i < gis.size(); ++i) {
          const size_t gi = gis[i];
          for (Request* r : pending[gi]) {
            if (!encoded.has_value() || r->expired()) {
              r->promise.set_value(DeadlineResult(*r, a + 1));
              continue;
            }
            ServeResult res = r->BaseResult();
            res.status = Status::OK();
            res.rung = Rung::kFull;
            res.attempts = a + 1;
            res.embedding = (*encoded)[i];
            ObserveRungLatency(Rung::kFull, sw.ElapsedSeconds());
            r->promise.set_value(std::move(res));
          }
          pending[gi].clear();
        }
      }
    }

    live = std::move(failed);
    // Deterministic jittered exponential backoff before the retry round:
    // the failed groups retry together, so sleep once for the slowest.
    if (!live.empty() && a < config_.max_retries) {
      const double base = std::min(
          config_.backoff_max_ms,
          config_.backoff_base_ms * static_cast<double>(1ULL << a));
      double delay = 0.0;
      for (size_t gi : live) {
        Rng jitter(MixSeed(config_.seed,
                           MixSeed(keys[gi], static_cast<uint64_t>(a))));
        delay = std::max(delay, base * (0.5 + 0.5 * jitter.Uniform()));
      }
      SleepMs(delay);
    }
  }

  // Exhausted groups: every remaining member steps down the ladder at
  // the group encode time, so a quantized group serves every member the
  // bytes one group encode would.
  for (size_t gi : live) {
    for (Request* r : pending[gi]) {
      ServeResult res = r->BaseResult();
      res.attempts = config_.max_retries + 1;
      r->promise.set_value(DegradedLadder(
          *r, std::move(res), batch.groups[gi].encode_time_s, sw));
    }
  }
}

ServeResult InferenceService::DeadlineResult(const Request& req,
                                             int attempts) const {
  metrics_.counter("serve.deadline_exceeded").Add(1);
  ServeResult result = req.BaseResult();
  result.status = Status::DeadlineExceeded(
      "deadline elapsed (ticket " + std::to_string(req.ticket) + ")");
  result.attempts = attempts;
  return result;
}

ServeResult InferenceService::DegradedLadder(const Request& req,
                                             ServeResult result,
                                             int64_t quant_time_s,
                                             const Stopwatch& sw) {
  const PathQuery& q = req.query;

  // Rung 1: the int8-quantized twin at `quant_time_s` — the cheap path
  // that still honours the paper's departure-time conditioning. The
  // verdict keys by the request's fault key, like rung 0, so the members
  // of a group share it. Never a breaker signal: the breaker describes
  // the fp32 model's health.
  if (req.gen->quant != nullptr) {
    if (req.expired()) return DeadlineResult(req, result.attempts);
    if (!fault::ShouldFail(fault::kQuantEncode, req.fault_key)) {
      metrics_.counter("serve.quant_hits").Add(1);
      result.status = Status::OK();
      result.rung = Rung::kQuantized;
      result.embedding = req.gen->quant->EncodeValue(q.path, quant_time_s);
      ObserveRungLatency(result.rung, sw.ElapsedSeconds());
      return result;
    }
  }

  // Rung 2: bucket-level cache. Values are computed at the bucket's
  // representative time, so every request mapping to the key sees the
  // same bytes whether it hits or recomputes. Rung-0 successes never
  // populate this cache: they are exact-time embeddings and would make
  // the cached bytes depend on which request got there first. (A
  // coalesced group encodes at the bucket-representative time, but
  // routing it through the same no-Put rule keeps the cache's
  // provenance single-sourced.)
  if (req.expired()) return DeadlineResult(req, result.attempts);
  EmbeddingLruCache& cache = *req.gen->cache;
  int64_t bucket = 0;
  const std::string key = CacheKey(q, &bucket);
  if (auto hit = cache.Get(key)) {
    metrics_.counter("serve.cache_hits").Add(1);
    result.status = Status::OK();
    result.rung = Rung::kCached;
    result.embedding = *std::move(hit);
    ObserveRungLatency(result.rung, sw.ElapsedSeconds());
    return result;
  }
  metrics_.counter("serve.cache_misses").Add(1);
  // Keyed by the cache key, not the request id: every request for this
  // (path, bucket) gets the same recompute verdict, so which of them
  // arrives first cannot change anyone's outcome.
  const uint64_t cache_fault_key =
      MixSeed(kCacheSalt, std::hash<std::string>{}(key));
  if (!fault::ShouldFail(fault::kEncoderForward, cache_fault_key)) {
    const int64_t bucket_time = bucket * config_.time_bucket_s;
    auto encoded = req.gen->model->EncodeValueBatchCancellable(
        {core::PathTimeItem{&q.path, bucket_time}},
        [&req] { return req.expired(); });
    if (!encoded.has_value()) return DeadlineResult(req, result.attempts);
    cache.Put(key, encoded->front());
    result.status = Status::OK();
    result.rung = Rung::kCached;
    result.embedding = std::move(encoded->front());
    ObserveRungLatency(result.rung, sw.ElapsedSeconds());
    return result;
  }

  // Rung 3: frozen node2vec mean-pool. Pure arithmetic — always succeeds.
  if (req.expired()) return DeadlineResult(req, result.attempts);
  result.status = Status::OK();
  result.rung = Rung::kFallback;
  result.embedding = FallbackEmbedding(q);
  ObserveRungLatency(result.rung, sw.ElapsedSeconds());
  return result;
}

std::string InferenceService::CacheKey(const PathQuery& query,
                                       int64_t* bucket) const {
  *bucket = query.depart_time_s / config_.time_bucket_s;
  std::string key;
  key.reserve(query.path.size() * sizeof(int) + sizeof(int64_t));
  key.append(reinterpret_cast<const char*>(bucket), sizeof(*bucket));
  key.append(reinterpret_cast<const char*>(query.path.data()),
             query.path.size() * sizeof(int));
  return key;
}

std::vector<float> InferenceService::FallbackEmbedding(
    const PathQuery& query) const {
  const auto& network = *features_->data->network;
  const int d_road = features_->road_embeddings.dim;
  const int dim = encoder_config_.d_hidden;
  std::vector<float> pooled(static_cast<size_t>(2 * d_road), 0.0f);
  for (int edge_id : query.path) {
    const auto& e = network.edge(edge_id);
    const auto& from_vec = features_->road_embeddings[e.from];
    const auto& to_vec = features_->road_embeddings[e.to];
    for (int j = 0; j < d_road; ++j) {
      pooled[static_cast<size_t>(j)] += from_vec[static_cast<size_t>(j)];
      pooled[static_cast<size_t>(d_road + j)] += to_vec[static_cast<size_t>(j)];
    }
  }
  if (!query.path.empty()) {
    const float inv = 1.0f / static_cast<float>(query.path.size());
    for (float& v : pooled) v *= inv;
  }
  // Shape to the encoder's representation_dim so downstream consumers
  // never see a rung-dependent dimensionality.
  std::vector<float> out(static_cast<size_t>(dim), 0.0f);
  const size_t n = std::min(out.size(), pooled.size());
  std::copy(pooled.begin(), pooled.begin() + static_cast<long>(n),
            out.begin());
  return out;
}

}  // namespace tpr::serve
