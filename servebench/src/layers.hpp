// Standalone layer calls: the served pipeline run stage by stage in one
// thread (the reference the outputs are checked against, and, with spans,
// the traced run's per-layer timings) and sequential cluster infer calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/fdsp.hpp"
#include "net/cluster.hpp"
#include "runtime/cluster.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace servebench {

/// Byte counts and the first failed check of run_stages calls.
struct StageTally {
  std::int64_t raw_bytes = 0;      // fp32 prefix outputs
  std::int64_t encoded_bytes = 0;  // their codec encodings
  std::string failure;
};

/// One image through the served graph as the cluster splits it: TileSplit,
/// the prefix per tile (int8 inside ScopedInt8Compute when `int8`), codec
/// encode, tile-result framing and its reassembly, codec decode, TileMerge
/// and the suffix. Checks each decode against the codec grid computed
/// here. With `spans`, each call is a span under one root per image.
Tensor run_stages(adcnn::core::PartitionedModel& pm, const Tensor& image,
                  bool int8, SpanLog* spans, std::int64_t image_id,
                  StageTally* tally);

/// Per-layer metrics of the nn, compress, core and net layers, timed on
/// `pool` images with nothing else running; `speeds` are the Algorithm 2
/// speeds the serving run left behind.
void measure_layers(adcnn::core::PartitionedModel& pm, bool int8,
                    const std::vector<Tensor>& pool,
                    const std::vector<double>& speeds, SpanLog& spans,
                    Result& r);

/// runtime.infer_us and runtime.stage_us.*: sequential EdgeCluster::infer
/// with nothing else in flight. Outputs go through `repeat` when given.
void measure_infer(adcnn::runtime::EdgeCluster& cluster,
                   const std::vector<Tensor>& pool, SpanLog& spans, Result& r,
                   RepeatCheck* repeat);

/// net.infer_us: the same over a DistributedCluster.
void measure_net_infer(adcnn::net::DistributedCluster& cluster,
                       const std::vector<Tensor>& pool, SpanLog& spans,
                       Result& r, RepeatCheck* repeat);

/// Metrics combining the above: runtime.conv_wave_ratio and the
/// per-image self time of each layer in the stage-by-stage runs.
void finish_layer_metrics(const SpanLog& spans, Result& r);

}  // namespace servebench
