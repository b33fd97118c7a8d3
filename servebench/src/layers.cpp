#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "compress/pipeline.hpp"
#include "core/allocate.hpp"
#include "net/frame.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/profile.hpp"
#include "runtime/message.hpp"

namespace servebench {

namespace {

using namespace adcnn;

constexpr int kStageImages = 128;   // images run stage by stage
constexpr int kLayerReps = 64;      // calls per conv/linear layer
constexpr int kSuffixBatches = 32;  // stacked batches of 4 merged images
constexpr int kAllocateCalls = 256;
constexpr int kInferCalls = 128;

/// (n, ...) tensors of equal shape stacked along dim 0.
Tensor stack(const std::vector<Tensor>& parts) {
  Shape s = parts.front().shape();
  s[0] = 0;
  for (const Tensor& p : parts) s[0] += p.n();
  Tensor out(s);
  float* dst = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(dst, p.data(), static_cast<std::size_t>(p.numel()) * sizeof(float));
    dst += p.numel();
  }
  return out;
}

double median_self_us(const SpanLog& spans, const std::string& name) {
  return median(reduce_self_times(spans.spans()).by_name[name]);
}

}  // namespace

Tensor run_stages(core::PartitionedModel& pm, const Tensor& image, bool int8,
                  SpanLog* spans, std::int64_t image_id, StageTally* tally) {
  nn::Model& m = pm.model;
  const compress::TileCodec codec(pm.clip_range, pm.bits);
  ScopedSpan root(spans, "bench.image", "bench", image_id);
  const std::int64_t parent = root.id();

  Tensor tiles;
  {
    ScopedSpan s(spans, "core.split", "core", image_id, parent);
    tiles = m.net.at(pm.split_index).forward(image, nn::Mode::kEval);
  }
  std::vector<Tensor> decoded;
  for (std::int64_t t = 0; t < tiles.n(); ++t) {
    const Tensor tile = tiles.crop(t, 1, 0, tiles.h(), 0, tiles.w());
    Tensor out;
    {
      std::optional<nn::ScopedInt8Compute> scope;
      if (int8) scope.emplace();
      ScopedSpan s(spans, "nn.prefix_tile", "nn", image_id, parent);
      out = m.forward_range(tile, pm.prefix_begin(), pm.prefix_end());
    }
    std::vector<std::uint8_t> wire;
    {
      ScopedSpan s(spans, "compress.encode", "compress", image_id, parent);
      wire = codec.encode(out);
    }
    runtime::TileResult result;
    result.image_id = image_id;
    result.tile_id = t;
    result.shape = out.shape();
    result.payload = wire;
    const std::vector<std::uint8_t> payload = runtime::serialize(result);
    std::vector<std::uint8_t> frame;
    {
      ScopedSpan s(spans, "net.frame_encode", "net", image_id, parent);
      frame = net::encode_frame(net::FrameType::kTileResult, payload);
    }
    std::optional<net::Frame> received;
    {
      ScopedSpan s(spans, "net.frame_decode", "net", image_id, parent);
      net::FrameReassembler reassembler;
      reassembler.push(frame);
      received = reassembler.next();
    }
    if (!received || received->payload != payload) {
      tally->failure = "tile-result frame did not reassemble to its payload";
    }
    Tensor back;
    {
      ScopedSpan s(spans, "compress.decode", "compress", image_id, parent);
      back = codec.decode(wire, out.shape());
    }
    if (tally->failure.empty()) {
      tally->failure = check_codec_grid(out, back, pm.clip_range, pm.bits);
    }
    tally->raw_bytes += out.numel() * static_cast<std::int64_t>(sizeof(float));
    tally->encoded_bytes += static_cast<std::int64_t>(wire.size());
    decoded.push_back(std::move(back));
  }
  const Tensor gathered = stack(decoded);
  Tensor merged;
  {
    ScopedSpan s(spans, "core.merge", "core", image_id, parent);
    merged = m.net.at(pm.merge_index).forward(gathered, nn::Mode::kEval);
  }
  ScopedSpan s(spans, "nn.suffix_image", "nn", image_id, parent);
  return m.forward_range(merged, pm.suffix_begin(), pm.suffix_end());
}

void measure_layers(core::PartitionedModel& pm, bool int8,
                    const std::vector<Tensor>& pool,
                    const std::vector<double>& speeds, SpanLog& spans,
                    Result& r) {
  nn::Model& m = pm.model;
  StageTally tally;
  for (int i = 0; i < kStageImages; ++i) {
    run_stages(pm, pool[static_cast<std::size_t>(i) % pool.size()], int8,
               &spans, i, &tally);
  }
  r.fail(tally.failure);
  r.set("compress.ratio",
        static_cast<double>(tally.raw_bytes) /
            static_cast<double>(tally.encoded_bytes),
        "ratio");

  // Suffix over a stacked batch of 4 merged images, per image.
  std::vector<Tensor> merged;
  for (int i = 0; i < 4; ++i) {
    Tensor tiles = m.net.at(pm.split_index).forward(pool[static_cast<std::size_t>(i)],
                                                    nn::Mode::kEval);
    std::optional<nn::ScopedInt8Compute> scope;
    if (int8) scope.emplace();
    Tensor pre = m.forward_range(tiles, pm.prefix_begin(), pm.prefix_end());
    merged.push_back(m.net.at(pm.merge_index).forward(pre, nn::Mode::kEval));
  }
  const Tensor batch = stack(merged);
  for (int i = 0; i < kSuffixBatches; ++i) {
    ScopedSpan s(&spans, "nn.suffix_batch", "nn", -1);
    m.forward_range(batch, pm.suffix_begin(), pm.suffix_end());
  }

  // Each conv and linear layer alone, on the input it sees in a
  // whole-image forward; FLOPs from nn/profile for the same input.
  const std::vector<nn::LayerProfileEntry> profile = nn::profile_layers(m, 1);
  Tensor x = pool.front();
  for (int li = 0; li < static_cast<int>(m.net.size()); ++li) {
    nn::Layer& layer = m.net.at(static_cast<std::size_t>(li));
    if (layer.is_noop()) continue;
    std::optional<nn::ScopedInt8Compute> scope;
    if (int8 && li >= pm.prefix_begin() && li < pm.prefix_end()) scope.emplace();
    const bool timed = dynamic_cast<nn::Conv2d*>(&layer) != nullptr ||
                       dynamic_cast<nn::Linear*>(&layer) != nullptr;
    if (timed) {
      const std::string span_name = "nn.layer." + layer.name();
      for (int rep = 0; rep < kLayerReps; ++rep) {
        ScopedSpan s(&spans, span_name, "nn", -1);
        layer.forward(x, nn::Mode::kEval);
      }
      const double us = median_self_us(spans, span_name);
      r.set("nn.layer_us." + layer.name(), us, "us");
      r.set("nn.layer_gflops." + layer.name(),
            static_cast<double>(profile[static_cast<std::size_t>(li)].flops) /
                (us * 1e3),
            "GFLOP/s");
    }
    x = layer.forward(x, nn::Mode::kEval);
  }

  // Algorithm 3 on the observed speeds, checked against the exhaustive
  // optimum.
  core::AllocRequest req;
  req.speeds = speeds;
  req.tiles = pm.grid.rows * pm.grid.cols;
  std::vector<std::int64_t> alloc;
  for (int i = 0; i < kAllocateCalls; ++i) {
    ScopedSpan s(&spans, "core.allocate", "core", -1);
    alloc = core::allocate_tiles(req);
  }
  const double greedy = core::makespan(alloc, speeds);
  const double best =
      core::makespan(core::allocate_tiles_bruteforce(req), speeds);
  if (!(std::fabs(greedy - best) <= 1e-12 * best)) {
    r.fail("allocate_tiles makespan " + std::to_string(greedy) +
           " != brute-force optimum " + std::to_string(best));
  }

  const SelfTimes st = reduce_self_times(spans.spans());
  const auto med = [&](const char* name) {
    const auto it = st.by_name.find(name);
    return it == st.by_name.end() ? 0.0 : median(it->second);
  };
  r.set("nn.prefix_tile_us", med("nn.prefix_tile"), "us");
  r.set("nn.suffix_image_us", med("nn.suffix_image"), "us");
  r.set("nn.suffix_batch_us_per_image", med("nn.suffix_batch") / 4.0, "us");
  r.set("compress.encode_us", med("compress.encode"), "us");
  r.set("compress.decode_us", med("compress.decode"), "us");
  r.set("core.split_us", med("core.split"), "us");
  r.set("core.merge_us", med("core.merge"), "us");
  r.set("core.allocate_us", med("core.allocate"), "us");
  r.set("net.frame_encode_us", med("net.frame_encode"), "us");
  r.set("net.frame_decode_us", med("net.frame_decode"), "us");
}

void measure_infer(runtime::EdgeCluster& cluster,
                   const std::vector<Tensor>& pool, SpanLog& spans, Result& r,
                   RepeatCheck* repeat) {
  std::vector<double> stage[6];
  for (int i = 0; i < kInferCalls; ++i) {
    const std::size_t input = static_cast<std::size_t>(i) % pool.size();
    runtime::InferStats st;
    Tensor out;
    {
      ScopedSpan s(&spans, "runtime.infer", "runtime", i);
      out = cluster.infer(pool[input], &st);
    }
    r.fail(check_no_zero_fill(st));
    if (repeat) r.fail(repeat->observe(input, out));
    const runtime::StageTimings& t = st.stages;
    const double v[6] = {t.partition_s, t.allocate_s,  t.scatter_s,
                         t.gather_s,    t.zero_fill_s, t.suffix_s};
    for (int k = 0; k < 6; ++k) stage[k].push_back(v[k] * 1e6);
  }
  const char* names[6] = {"partition", "allocate",  "scatter",
                          "gather",    "zero_fill", "suffix"};
  for (int k = 0; k < 6; ++k) {
    // zero_fill reads exactly 0 while no tile misses T_L: a note, not a
    // metric.
    if (std::strcmp(names[k], "zero_fill") == 0) {
      r.notes["runtime.stage_us.zero_fill"] = median(stage[k]);
    } else {
      r.set(std::string("runtime.stage_us.") + names[k], median(stage[k]), "us");
    }
  }
  r.set("runtime.infer_us", median_self_us(spans, "runtime.infer"), "us");
}

void measure_net_infer(net::DistributedCluster& cluster,
                       const std::vector<Tensor>& pool, SpanLog& spans,
                       Result& r, RepeatCheck* repeat) {
  for (int i = 0; i < kInferCalls; ++i) {
    const std::size_t input = static_cast<std::size_t>(i) % pool.size();
    runtime::InferStats st;
    Tensor out;
    {
      ScopedSpan s(&spans, "net.infer", "net", i);
      out = cluster.infer(pool[input], &st);
    }
    r.fail(check_no_zero_fill(st));
    if (repeat) r.fail(repeat->observe(input, out));
  }
  r.set("net.infer_us", median_self_us(spans, "net.infer"), "us");
}

void finish_layer_metrics(const SpanLog& spans, Result& r) {
  // 4 tiles over 4 equal-speed nodes: one tile per node per image.
  const double prefix = r.metrics.at("nn.prefix_tile_us").value;
  r.set("runtime.conv_wave_ratio",
        r.metrics.at("runtime.stage_us.gather").value / prefix, "ratio");

  // Self time per image of each layer in the stage-by-stage runs.
  const SelfTimes st = reduce_self_times(spans.spans());
  const std::pair<const char*, const char*> stage_spans[] = {
      {"core.split", "core"},        {"nn.prefix_tile", "nn"},
      {"compress.encode", "compress"}, {"net.frame_encode", "net"},
      {"net.frame_decode", "net"},   {"compress.decode", "compress"},
      {"core.merge", "core"},        {"nn.suffix_image", "nn"}};
  std::map<std::string, double> per_layer = {
      {"nn", 0.0}, {"compress", 0.0}, {"core", 0.0}, {"net", 0.0}};
  for (const auto& [name, layer] : stage_spans) {
    const auto it = st.by_name.find(name);
    if (it == st.by_name.end()) continue;
    for (double us : it->second) per_layer[layer] += us;
  }
  for (const auto& [layer, us] : per_layer) {
    r.set("trace.self_us_per_image." + layer, us / kStageImages, "us");
  }
}

}  // namespace servebench
