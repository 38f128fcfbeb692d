#include "batch/batch.h"

#include <string>

#include "util/env.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tpr::batch {
namespace {

// Salt decorrelating group hashes from every other keyed hash in the
// system (fault verdicts, canary routing, cache keys).
constexpr uint64_t kGroupSalt = 0xBA7C45EEDULL;

}  // namespace

BatchConfig FromEnv(BatchConfig defaults) {
  defaults.max_batch = EnvNumber("TPR_BATCH_MAX", defaults.max_batch, 1);
  defaults.max_ticks = EnvNumber("TPR_BATCH_TICKS", defaults.max_ticks, 1);
  return defaults;
}

BatchFormer::BatchFormer(const BatchConfig& config) : config_(config) {
  TPR_CHECK(config_.max_batch > 0);
  TPR_CHECK(config_.max_ticks > 0);
  TPR_CHECK(config_.time_bucket_s > 0);
}

uint64_t BatchFormer::GroupHash(const graph::Path& path,
                                int64_t encode_time_s, uint64_t salt) {
  uint64_t h = MixSeed(kGroupSalt, salt);
  h = MixSeed(h, static_cast<uint64_t>(encode_time_s));
  for (int edge : path) {
    h = MixSeed(h, static_cast<uint64_t>(static_cast<uint32_t>(edge)) + 1);
  }
  return h;
}

int64_t BatchFormer::EncodeTime(int64_t depart_time_s) const {
  if (!config_.coalesce) return depart_time_s;
  return (depart_time_s / config_.time_bucket_s) * config_.time_bucket_s;
}

std::optional<FormedBatch> BatchFormer::Arrive(uint64_t ticket,
                                               const graph::Path& path,
                                               int64_t depart_time_s,
                                               uint64_t salt) {
  const int64_t encode_time = EncodeTime(depart_time_s);
  const uint64_t key =
      GroupHash(path, encode_time,
                config_.coalesce ? salt : MixSeed(salt, ticket));
  if (config_.coalesce) {
    for (FormedGroup& g : pending_) {
      if (g.key_hash == key && g.encode_time_s == encode_time &&
          g.path == path) {
        g.tickets.push_back(ticket);
        return std::nullopt;  // joined an existing group: no growth
      }
    }
  }
  if (pending_.empty()) oldest_arrival_time_ = logical_time_;
  FormedGroup g;
  g.key_hash = key;
  g.path = path;
  g.encode_time_s = encode_time;
  g.tickets.push_back(ticket);
  pending_.push_back(std::move(g));
  if (pending_.size() >= static_cast<size_t>(config_.max_batch)) {
    return Flush();
  }
  return std::nullopt;
}

std::optional<FormedBatch> BatchFormer::Tick() {
  ++logical_time_;
  if (!pending_.empty() &&
      logical_time_ - oldest_arrival_time_ >=
          static_cast<uint64_t>(config_.max_ticks)) {
    return Flush();
  }
  return std::nullopt;
}

std::optional<FormedBatch> BatchFormer::FlushAll() { return Flush(); }

std::optional<FormedBatch> BatchFormer::Flush() {
  if (pending_.empty()) return std::nullopt;
  FormedBatch batch;
  batch.seq = next_seq_++;
  batch.groups.assign(std::make_move_iterator(pending_.begin()),
                      std::make_move_iterator(pending_.end()));
  pending_.clear();
  return batch;
}

}  // namespace tpr::batch
