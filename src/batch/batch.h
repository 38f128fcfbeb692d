#ifndef TPR_BATCH_BATCH_H_
#define TPR_BATCH_BATCH_H_

// Deterministic batch formation for the inference service (`tpr::batch`).
//
// A BatchFormer sits between admission and the encoder workers. It
// collects arriving requests into groups keyed by
// (path, encode-time, generation) and flushes a batch when either
//
//   * the pending batch reaches max_batch distinct groups (size flush), or
//   * the oldest pending arrival is max_ticks logical ticks old (age
//     flush) — a tick is an explicit Tick() call, one per admission in
//     tpr::serve, NEVER wall clock.
//
// Batch formation is therefore a pure function of the Arrive/Tick call
// sequence: the same arrival trace produces the same batch boundaries
// and the same coalescing decisions at any worker count, on any run.
// (The service's idle flush — draining a partial batch as soon as no
// worker of the shard is encoding a batch of several — depends on when
// workers finish, so it changes only WHICH batch a request rides in,
// never its outcome; see serve/service.h.)
//
// Coalescing. When `coalesce` is on, requests for the same path in the
// same time bucket share one group: the group is encoded ONCE at the
// bucket-representative time (bucket * time_bucket_s — the exact
// contract of the serve rung-2 cache, so the embedding is a pure
// function of the group key) and the result fans out to every waiter.
// With coalescing off, every request is its own group keyed by ticket
// and encodes at its exact departure time.
//
// The serve layer keys a coalesced group's fault verdicts ("batch-flush",
// grouped "encoder-forward" retries) by the same GroupHash, and a
// non-coalesced request's by its id, which is what keeps per-request
// outcomes independent of batch composition: the verdict for a group is
// the same whether its batch flushed by size, by age, or by idle drain.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "graph/road_network.h"

namespace tpr::batch {

struct BatchConfig {
  /// Size flush threshold: maximum distinct groups per batch (also the
  /// most items one encode packs). Coalesced waiters do not count extra.
  int max_batch = 32;
  /// Age flush threshold in logical ticks. One tick fires per admission,
  /// so this also bounds how many requests an unfilled batch can absorb:
  /// under a duplicate-heavy workload a batch holds up to ~max_ticks
  /// requests coalesced into at most max_batch groups. Sparse traffic
  /// never waits this long — the service's idle drain flushes a partial
  /// batch as soon as no worker of the shard is encoding a batch of
  /// several.
  int max_ticks = 128;
  /// Coalesce duplicate (path, time-bucket) keys into one encode.
  bool coalesce = true;
  /// Time-bucket width for coalescing keys (mirror of the serving
  /// config's rung-2 bucket).
  int64_t time_bucket_s = 900;
};

/// Reads TPR_BATCH_MAX / TPR_BATCH_TICKS over `defaults`. Unset or
/// unparsable variables, and values below 1 or above INT_MAX, leave the
/// default untouched.
BatchConfig FromEnv(BatchConfig defaults = {});

/// One formed group: a path to encode once at `encode_time_s`, fanned
/// out to every ticket that joined it.
struct FormedGroup {
  uint64_t key_hash = 0;
  graph::Path path;
  int64_t encode_time_s = 0;
  std::vector<uint64_t> tickets;
};

/// One flushed batch, in group-arrival order.
struct FormedBatch {
  uint64_t seq = 0;  // 0-based flush sequence number
  std::vector<FormedGroup> groups;

  size_t total_requests() const {
    size_t n = 0;
    for (const auto& g : groups) n += g.tickets.size();
    return n;
  }
};

/// Single-threaded batch former (the service calls it under its lock).
class BatchFormer {
 public:
  explicit BatchFormer(const BatchConfig& config);

  /// The group key for (path, encode_time, salt). Pure; `salt` carries
  /// the caller's extra identity (tpr::serve passes the pinned model
  /// generation so coalesced groups are generation-homogeneous; Arrive
  /// mixes in the ticket when coalescing is off).
  static uint64_t GroupHash(const graph::Path& path, int64_t encode_time_s,
                            uint64_t salt);

  /// The time a request's group encodes at: the bucket-representative
  /// time when coalescing, the exact departure time otherwise.
  int64_t EncodeTime(int64_t depart_time_s) const;

  /// Adds a request. `salt` must be stable for the request (see
  /// GroupHash). Returns the flushed batch when this arrival filled it
  /// to max_batch groups.
  std::optional<FormedBatch> Arrive(uint64_t ticket, const graph::Path& path,
                                    int64_t depart_time_s, uint64_t salt);

  /// Advances logical time by one tick. Returns the flushed batch when
  /// the oldest pending arrival has aged out.
  std::optional<FormedBatch> Tick();

  /// Unconditionally flushes whatever is pending (the service's idle
  /// drain). Returns nullopt when nothing is pending.
  std::optional<FormedBatch> FlushAll();

  bool has_pending() const { return !pending_.empty(); }
  int pending_groups() const { return static_cast<int>(pending_.size()); }
  uint64_t logical_time() const { return logical_time_; }
  const BatchConfig& config() const { return config_; }

 private:
  std::optional<FormedBatch> Flush();

  BatchConfig config_;
  std::deque<FormedGroup> pending_;  // group-arrival order
  uint64_t logical_time_ = 0;
  uint64_t oldest_arrival_time_ = 0;  // logical time of pending_.front()
  uint64_t next_seq_ = 0;
};

}  // namespace tpr::batch

#endif  // TPR_BATCH_BATCH_H_
