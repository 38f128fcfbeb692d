#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Traced-run probes: timed calls into single layers from outside, each
// recorded as bench-owned spans and reduced to per-layer metrics.

#include <cstdint>
#include <vector>

#include "batch/batch.h"
#include "common.h"
#include "core/encoder.h"
#include "core/wsc_trainer.h"

namespace perfbench {

/// `core` encoder and `quant`: EncodeValue per path-length tertile,
/// EncodeValueBatch at b1/b8/b32, and the int8 twin's b32 batch.
void ProbeEncoder(const tpr::core::TemporalPathEncoder& encoder,
                  const std::vector<tpr::core::PathTimeItem>& items,
                  Tracer& tracer, Report& report);

/// `kern`: GemmAcc at the encoder's recurrent gate shape (m = 1 and 32,
/// k = d_hidden, n = 4 * d_hidden) and LstmCellRow over 32 rows.
void ProbeKern(int d_hidden, Tracer& tracer, Report& report);

/// One admission to a shard, as the service saw it.
struct Arrival {
  const tpr::graph::Path* path = nullptr;
  int64_t depart_time_s = 0;
};

/// `batch`: replays per-shard arrival sequences through standalone
/// BatchFormers (Arrive + Tick per admission).
void ProbeFormer(const std::vector<std::vector<Arrival>>& per_shard,
                 const tpr::batch::BatchConfig& config, Tracer& tracer,
                 Report& report);

/// `nn` / `core` trainer: one minibatch of the trainer's shape, timed
/// call by call (Encode, losses, Backward, Reduce, ClipGradNorm,
/// Adam::Step) on a private encoder, on the calling thread.
void ProbeStep(std::shared_ptr<const tpr::core::FeatureSpace> features,
               const tpr::core::WscConfig& config, uint64_t seed,
               Tracer& tracer, Report& report);

/// Every per-layer metric of BENCHMARK.json with its unit.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

/// Sets every listed per-layer metric that the workload did not
/// measure to 0, so each traced report carries the full metric set.
void FillNotApplicable(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
