#ifndef TPR_SERVE_SERVICE_H_
#define TPR_SERVE_SERVICE_H_

// In-process embedding inference service over the trained WSCCL temporal
// path encoder.
//
// Requests pass admission control (shed or block when the bounded
// backlog of unprocessed requests is full), are grouped into batches by
// a deterministic tpr::batch::BatchFormer, and are processed by
// dedicated worker threads. Each carries an optional deadline that is
// propagated into the encoder forward pass as cooperative cancellation.
// Transient rung-0 failures are retried with deterministic jittered
// exponential backoff; sustained failure trips a per-model-generation
// circuit breaker. Every request that is admitted resolves — in the
// worst case via the degradation ladder:
//
//   rung 0 (kFull)      full temporal encoder at the group encode time
//                       (the exact request time unless coalescing)
//   rung 1 (kQuantized) int8 post-training-quantized twin of the pinned
//                       generation — keeps the temporal signal at ~4x
//                       smaller weights
//   rung 2 (kCached)    LRU-cached embedding keyed by (path, time bucket),
//                       computed at the bucket-representative time
//   rung 3 (kFallback)  node2vec mean-pool over the path's edge endpoint
//                       embeddings, shaped to representation_dim
//
// One code path serves every request below rung 0, one request at a
// time. A request that degrades before any rung-0 attempt (breaker-open
// skip, injected alloc failure or batch-flush drop) takes rung 1 at its
// exact request time; each member of a group whose rung-0 attempts all
// failed takes it at the group encode time, and since an int8 row does
// not depend on its batch (quant.h), such members get the bytes of one
// group encode.
//
// The quantized rung serves only when the generation carries an int8
// twin (published by tpr::rollout, or loaded from the quant-<seq>.q8
// artifact beside the checkpoint); TPR_QUANT=0/off, read once at
// construction, drops every twin. Its fault site is "quant-encode",
// keyed by the request's fault key (below), so outage plans can fail
// rung 0 (encoder-forward) while the int8 rung keeps answering, and a
// p-mode rule fails a whole coalesced group at once, like batch-flush
// does for rung 0. The site is asked once per degraded request, so
// fault.quant-encode.injected counts requests, and an nth= or after=
// rule on it counts per-request calls.
// Quantized failures are NEVER breaker signals: the breaker describes
// the fp32 model's health only.
//
// Micro-batching. There is one pipeline: admissions feed the former
// (flush by size or logical-ticks age, or at once when no worker of the
// shard is encoding a batch of several) and workers run each flushed
// batch through ONE rung-0 forward per model generation: the packed,
// tape-free lockstep forward of core/inference_plan.h, whose rows are
// bitwise the single-item encodes, so batching never changes an
// embedding.
// batch_max = 1 (the default) is the per-request mode: every request is
// its own group, encoded at its exact departure time and flushed on
// arrival. A larger batch_max batches up to that many groups per
// forward; batch_coalesce (opt-in) also folds duplicate (path,
// time-bucket, generation) keys into one encode at the
// bucket-representative time. Every request keeps its own deadline,
// retry accounting, breaker fold, and canary routing.
//
// Fault keys. Each request's fault key is fixed at admission: its id,
// or — when coalescing — its group hash (the members of a group share
// one encode, so they share its verdicts). Rung-0 attempt verdicts,
// backoff jitter, and the batch-flush and quant-encode verdicts all key
// off it, so a request's outcome never depends on which batch it rode
// in.
//
// Generations. The service holds up to TWO live model generations — the
// incumbent and an optional canary — each with its own rung-2 cache,
// circuit breaker, and metrics (their state describes one set of
// parameters and never leaks across generations). Model swaps are
// RCU-style: writers build a fresh immutable generation slot and swap
// the shared pointer; every request *pins* its generation at admission,
// so workers read the model without a lock and an in-flight request is
// always served by exactly one generation even while swaps race past it.
//
// Canarying. While a canary is installed, a deterministic keyed
// fraction of requests (hash of the request id — never wall clock or
// thread identity) routes to it. The canary auto-resolves in admission
// (ticket) order, with or without a fault plan: the admission of its
// `canary_promote_after`-th predicted-clean rung-0 request promotes it
// to incumbent (later admissions go to the new incumbent); a canary
// breaker trip or an injected `canary-regression` fault rolls it back —
// incumbent traffic is never disturbed either way. tpr::rollout drives
// this loop end to end (validation gate, manifest lineage, quarantine).
//
// Determinism contract (what the soak tests assert): with a fixed
// TPR_FAULT spec (or none), seed, and single submitter, the (status,
// rung, generation, embedding bytes) outcome of every request — and
// every canary promotion/rollback decision — is identical across runs
// and worker counts. This falls out of four choices: fault verdicts are
// keyed by the request's fault key (never by wall clock, thread, or
// batch membership), cache values are
// pure functions of the cache key (so hit vs recompute is invisible),
// the circuit breaker folds keyed failure *predictions* in admission
// order — workers never report outcomes back to it — and canary
// routing/resolution are likewise folded at admission. Deadlines are
// wall-clock dependent and therefore outside the contract; a request
// that misses its deadline never feeds the breaker.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/batch.h"
#include "core/encoder.h"
#include "core/features.h"
#include "obs/metrics.h"
#include "quant/quant.h"
#include "serve/lru_cache.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace tpr::serve {

/// One embedding request: a path and a departure time. `id` is the
/// stable request identity — fault verdicts, backoff jitter, and canary
/// routing key off it, so replaying the same ids reproduces the same
/// outcomes.
struct PathQuery {
  graph::Path path;
  int64_t depart_time_s = 0;
  uint64_t id = 0;
};

/// Which rung of the degradation ladder produced the embedding.
enum class Rung { kFull = 0, kQuantized = 1, kCached = 2, kFallback = 3 };

const char* RungName(Rung r);

/// Outcome of one admitted request.
struct ServeResult {
  Status status;                  // OK, DeadlineExceeded, or Unavailable
  Rung rung = Rung::kFull;        // valid when status.ok()
  std::vector<float> embedding;   // representation_dim values when ok
  int attempts = 0;               // rung-0 encoder attempts made
  uint64_t ticket = 0;            // admission order, 0-based
  uint64_t generation = 0;        // model generation that served it
  bool canary = false;            // served by the canary generation
};

/// How a canary resolved.
enum class CanaryVerdict { kPromoted, kRolledBack };

const char* CanaryVerdictName(CanaryVerdict v);

/// One resolved canary episode, consumed by the rollout controller.
struct CanaryResolution {
  uint64_t generation = 0;
  CanaryVerdict verdict = CanaryVerdict::kPromoted;
  std::string reason;   // "clean-requests", "breaker-trip", ...
  uint64_t routed = 0;  // requests routed to the canary
  uint64_t clean = 0;   // clean rung-0 outcomes folded
};

/// Snapshot of the in-flight canary (if any).
struct CanaryStatus {
  bool installed = false;
  uint64_t generation = 0;
  uint64_t routed = 0;
  uint64_t clean = 0;
};

struct ServiceConfig {
  int num_workers = 4;
  int queue_capacity = 256;
  /// Full queue: true blocks the submitter (backpressure), false sheds
  /// with ResourceExhausted (load shedding).
  bool block_when_full = false;
  /// Rung-0 encoder attempts = 1 + max_retries.
  int max_retries = 2;
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  /// Consecutive rung-0 request failures that open the breaker.
  int breaker_trip_threshold = 5;
  /// Requests sent straight to rung 1 while open, before one half-open
  /// probe is allowed back into rung 0.
  int breaker_open_requests = 16;
  size_t cache_capacity = 1024;
  /// Width of the rung-2 cache's time buckets.
  int64_t time_bucket_s = 900;
  /// Drives backoff jitter (mixed with request id and attempt).
  uint64_t seed = 7;
  /// Per-mille of requests routed to an installed canary, decided by a
  /// pure hash of the request id.
  int canary_permille = 200;
  /// Clean rung-0 canary requests that promote the canary to incumbent.
  int canary_promote_after = 64;
  /// Micro-batching: the size-flush threshold in distinct groups per
  /// batch, i.e. the most items one rung-0 encode packs. 1 (default) is the
  /// per-request mode: every request flushes on arrival as a batch of
  /// one. Must be >= 1. Deadline/retry/breaker/canary semantics are per
  /// request at any size (see tpr::batch).
  int batch_max = 1;
  /// Age-flush threshold in logical ticks (one tick per admission).
  int batch_ticks = 128;
  /// Opt-in: coalesce duplicate (path, time-bucket, generation) requests
  /// into one encode at the bucket-representative time whose result
  /// fans out to all waiters; their fault verdicts key by the group
  /// hash. Off (default), every request encodes at its exact departure
  /// time and its verdicts key by its id.
  bool batch_coalesce = false;
  /// Shard identity (fleet mode). Non-empty `shard` installs a
  /// fault::ScopedShard around admission, model loads, and worker
  /// processing, so `site@shard` TPR_FAULT rules can target exactly this
  /// instance. Empty (default) leaves the caller's scope untouched.
  std::string shard;
  /// Obs namespace for every metric this instance records
  /// ("shard0." -> "shard0.serve.requests"). Empty (default) keeps the
  /// historical global names — which also means two unprefixed instances
  /// in one process fold into the same counters; give fleet instances
  /// distinct prefixes.
  std::string metrics_prefix;
};

/// Point-in-time health snapshot, exported for routing tiers. Breaker
/// state and consecutive_failures describe the incumbent generation and
/// fold deterministically (admission order); queue_depth is an
/// instantaneous load signal and is NOT part of the determinism
/// contract — routers must not let it influence decisions they need
/// reproduced bitwise.
struct ServiceHealth {
  bool started = false;
  uint64_t generation = 0;       // incumbent model generation (0 = none)
  int queue_depth = 0;           // admitted, not yet taken by a worker
  int breaker_state = 0;         // 0 closed, 1 open, 2 half-open
  int consecutive_failures = 0;  // incumbent rung-0 failures folded
  bool canary_installed = false;
};

/// Multi-threaded inference service. Construction wires the pipeline but
/// takes no model; call LoadModel (or InstallModel) then Start. All
/// public methods are thread-safe.
class InferenceService {
 public:
  InferenceService(std::shared_ptr<const core::FeatureSpace> features,
                   const core::EncoderConfig& encoder_config,
                   const ServiceConfig& config);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Writes `encoder`'s parameters as serve model generation `generation`
  /// into `dir` (a ckpt::CheckpointDir of envelope-wrapped files).
  static Status SaveModel(const core::TemporalPathEncoder& encoder,
                          const std::string& dir, uint64_t generation);

  /// A serve-model checkpoint payload decoded into a fresh encoder.
  struct DecodedModel {
    std::shared_ptr<const core::TemporalPathEncoder> encoder;
    uint64_t generation = 0;
  };

  /// Decodes a SaveModel payload (already envelope-unwrapped) into a
  /// fresh encoder built from `config`. FailedPrecondition on a foreign
  /// tag, a representation-dim mismatch, or a parameter-shape mismatch.
  static StatusOr<DecodedModel> DecodeModelPayload(
      std::string_view payload,
      std::shared_ptr<const core::FeatureSpace> features,
      const core::EncoderConfig& config);

  /// Loads the newest valid model generation from `dir` into a fresh
  /// encoder built from the constructor's EncoderConfig. On any failure
  /// (injected ckpt-read fault, torn file, shape mismatch) the currently
  /// installed model — if any — keeps serving and the error is returned.
  /// Like InstallModel, a successful load starts the generation with a
  /// fresh circuit breaker and an empty rung-2 cache: breaker state and
  /// cached embeddings described the old parameters.
  Status LoadModel(const std::string& dir);

  /// Installs an already-built encoder as the incumbent model generation
  /// `generation`. ALWAYS starts with a fresh circuit breaker and an
  /// empty rung-2 cache — the same stale-state contract as LoadModel —
  /// and rolls back any in-flight canary (the comparison baseline it was
  /// canarying against is gone). In-flight requests pinned to the
  /// previous generation complete against it.
  /// `quant` (optional) is the generation's int8 twin; it shares the
  /// generation number and serves the quantized rung.
  void InstallModel(std::shared_ptr<const core::TemporalPathEncoder> encoder,
                    uint64_t generation,
                    std::shared_ptr<const quant::QuantizedEncoder> quant =
                        nullptr);

  /// Installs `encoder` as the canary generation: a keyed fraction of
  /// subsequent requests route to it (see ServiceConfig). The canary
  /// auto-resolves — promote on canary_promote_after clean requests,
  /// roll back on breaker trip or injected canary-regression fault —
  /// and the resolution is queued for TakeCanaryResolution.
  /// FailedPrecondition without an incumbent or with a canary already
  /// in flight.
  Status BeginCanary(std::shared_ptr<const core::TemporalPathEncoder> encoder,
                     uint64_t generation,
                     std::shared_ptr<const quant::QuantizedEncoder> quant =
                         nullptr);

  /// Oldest unconsumed canary resolution, or nullopt. The rollout
  /// controller polls this to record lineage.
  std::optional<CanaryResolution> TakeCanaryResolution();

  CanaryStatus canary_status() const;

  /// Health snapshot for routing tiers (see ServiceHealth).
  ServiceHealth Health() const;

  /// Spawns the worker threads. FailedPrecondition without a model.
  Status Start();

  /// Stops admission, fails queued-but-unprocessed requests with
  /// Unavailable, wakes submitters blocked on a full queue (they shed
  /// with Unavailable instead of deadlocking), and joins the workers.
  /// Idempotent and safe to race from several threads; the destructor
  /// calls it.
  void Shutdown();

  /// Admission control. On success the future resolves to the request's
  /// ServeResult. The error paths: InvalidArgument for a malformed query
  /// (empty path, or an edge id outside [0, num_edges)), refused before
  /// admission with no ticket and no fault verdict; shedding
  /// (ResourceExhausted — queue full and block_when_full is false, or an
  /// injected queue-full fault); Unavailable after Shutdown.
  /// `deadline_ms` <= 0 means no deadline; otherwise it is relative to
  /// the moment of admission and propagates into the worker as
  /// cooperative cancellation.
  StatusOr<std::future<ServeResult>> Submit(PathQuery query,
                                            double deadline_ms = 0);

  /// Submit + wait, folding admission errors into ServeResult::status.
  ServeResult SubmitAndWait(PathQuery query, double deadline_ms = 0);

  /// Generation of the incumbent model (0 before any install).
  uint64_t model_generation() const;

  /// The incumbent encoder (nullptr before any install). The rollout
  /// controller probes it to score candidates against the live model.
  std::shared_ptr<const core::TemporalPathEncoder> live_model() const;

  int representation_dim() const { return encoder_config_.d_hidden; }

  /// Pure routing predicate: would request `id` route to a canary?
  /// Exposed so tests and the rollout bench can predict traffic splits.
  bool RoutesToCanary(uint64_t id) const;

 private:
  // Breaker state machine. Guarded by mu_ (admission path) so the fold
  // order is exactly the ticket order.
  struct Breaker {
    enum class State { kClosed, kOpen, kHalfOpen };
    State state = State::kClosed;
    int consecutive_failures = 0;
    int open_skips_remaining = 0;
  };

  /// One serving generation: an immutable model plus the mutable
  /// per-generation state (rung-2 cache, breaker, canary bookkeeping).
  /// The model and cache pointers are immutable after construction and
  /// read lock-free by pinned requests; breaker/routed/clean are
  /// guarded by mu_.
  struct GenState {
    std::shared_ptr<const core::TemporalPathEncoder> model;
    /// Int8 twin serving the quantized rung; null when the generation
    /// was published without one (gate failure, TPR_QUANT off, no
    /// artifact on disk).
    std::shared_ptr<const quant::QuantizedEncoder> quant;
    uint64_t generation = 0;
    std::unique_ptr<EmbeddingLruCache> cache;
    Breaker breaker;
    uint64_t routed = 0;  // canary: requests routed here
    uint64_t clean = 0;   // canary: clean rung-0 outcomes
  };

  struct Request {
    PathQuery query;
    uint64_t ticket = 0;
    std::shared_ptr<GenState> gen;  // pinned at admission
    bool canary = false;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    bool skip_rung0 = false;  // breaker-open: straight to rung 1
    // Keys every fault verdict of the request (see the header comment):
    // the id, or the group hash when coalescing. Fixed at admission.
    uint64_t fault_key = 0;
    std::promise<ServeResult> promise;

    bool expired() const {
      return has_deadline && std::chrono::steady_clock::now() >= deadline;
    }
    /// An outcome carrying this request's identity fields.
    ServeResult BaseResult() const {
      ServeResult r;
      r.ticket = ticket;
      r.generation = gen->generation;
      r.canary = canary;
      return r;
    }
  };

  /// Builds a fresh generation slot (fresh breaker, empty cache).
  std::shared_ptr<GenState> MakeGenState(
      std::shared_ptr<const core::TemporalPathEncoder> encoder,
      uint64_t generation,
      std::shared_ptr<const quant::QuantizedEncoder> quant) const;

  /// Pure prediction: will this request degrade WITHOUT a rung-0 attempt
  /// (injected scratch-alloc failure, or an injected batch-flush drop of
  /// its group)? Neither counts as a breaker signal.
  bool PredictRung0Skip(const Request& req) const;

  /// Pure prediction for a request that PredictRung0Skip lets through:
  /// will every rung-0 attempt fail? (p-mode sites only; see fault.h.)
  bool PredictRung0Failure(const Request& req) const;

  /// Admission-time routing + fault key + breaker fold + canary
  /// resolution for the pinned generation; decides skip_rung0. Caller
  /// holds mu_.
  void AdmitToGeneration(Request& req);

  /// The breaker fold: applies this admission's predicted rung-0 outcome
  /// (`no_attempt`, `predicted_fail`) to `gen`'s breaker in ticket order.
  /// It reads only keyed p-mode verdicts (fault::WouldFail), so with no
  /// plan every outcome is clean, and call-order nth/after rules never
  /// reach it. Caller holds mu_. Returns true when this admission
  /// tripped the breaker open.
  bool BreakerAdmit(GenState& gen, Request& req, bool no_attempt,
                    bool predicted_fail);

  /// Resolves the in-flight canary: promote swaps it into the incumbent
  /// slot, rollback drops it. Queues the resolution. Caller holds mu_.
  void ResolveCanaryLocked(CanaryVerdict verdict, const std::string& reason);

  /// Workers pop formed batches, extract their member requests from
  /// waiting_, and run each batch through ONE packed encoder forward per
  /// model generation. Unless some worker is encoding a batch of
  /// several requests, a worker takes the former's partial batch at once
  /// (idle flush): behind lone requests the shard keeps up, behind a
  /// batch of several the next arrivals batch up. Which worker finishes
  /// first is a wall-clock race that changes which batch a request rides
  /// in but never its outcome (verdicts are keyed by fault key).
  void WorkerLoop();
  void ProcessBatch(batch::FormedBatch& batch,
                    std::vector<std::vector<Request>>& members);

  /// DeadlineExceeded outcome for `req` after `attempts` rung-0 attempts.
  ServeResult DeadlineResult(const Request& req, int attempts) const;

  /// Rungs 1-3 of the ladder (quantized -> cache -> fallback): the only
  /// code that serves a request below rung 0. Rung 1 encodes at
  /// `quant_time_s`: the request's exact time before any rung-0 attempt,
  /// its group's encode time after rung 0 is exhausted. `result` carries
  /// the identity fields and the rung-0 attempt count already made.
  ServeResult DegradedLadder(const Request& req, ServeResult result,
                             int64_t quant_time_s, const Stopwatch& sw);

  /// InvalidArgument for an empty path or an edge id outside
  /// [0, num_edges) of the served city.
  Status ValidateQuery(const PathQuery& query) const;

  /// Per-rung latency histogram, resolved through this instance's
  /// metric scope.
  void ObserveRungLatency(Rung rung, double seconds) const;

  /// Rung 3: mean-pooled node2vec endpoint embeddings, zero-padded or
  /// truncated to representation_dim. Pure; cannot fail.
  std::vector<float> FallbackEmbedding(const PathQuery& query) const;

  std::string CacheKey(const PathQuery& query, int64_t* bucket) const;

  std::shared_ptr<const core::FeatureSpace> features_;
  const core::EncoderConfig encoder_config_;
  const ServiceConfig config_;
  const bool quant_enabled_;  // TPR_QUANT at construction; off drops twins
  const obs::MetricScope metrics_;  // prefix = config_.metrics_prefix

  mutable std::mutex mu_;  // batches + tickets + generation slots/breakers
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  // The former collects admissions into groups, waiting_ parks the
  // admitted requests by ticket until their batch flushes into ready_.
  // All guarded by mu_.
  batch::BatchFormer former_;
  std::unordered_map<uint64_t, Request> waiting_;
  std::deque<batch::FormedBatch> ready_;
  std::shared_ptr<GenState> live_;    // incumbent; null before install
  std::shared_ptr<GenState> canary_;  // in-flight canary; usually null
  std::deque<CanaryResolution> resolutions_;
  uint64_t next_ticket_ = 0;
  int batching_workers_ = 0;  // workers encoding a batch of several requests
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tpr::serve

#endif  // TPR_SERVE_SERVICE_H_
