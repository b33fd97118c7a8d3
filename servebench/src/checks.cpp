#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace servebench {

namespace {

std::string shape_mismatch(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) return "";
  return "shape " + a.shape().to_string() + " != " + b.shape().to_string();
}

std::int64_t argmax(const Tensor& t) {
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

}  // namespace

std::string check_bitwise(const Tensor& out, const Tensor& expect) {
  if (auto why = shape_mismatch(out, expect); !why.empty()) return why;
  if (std::memcmp(out.data(), expect.data(),
                  static_cast<std::size_t>(out.numel()) * sizeof(float)) != 0) {
    return "not bit-identical (max diff " +
           std::to_string(Tensor::max_abs_diff(out, expect)) + ")";
  }
  return "";
}

std::string check_within(const Tensor& out, const Tensor& ref, float tol) {
  if (auto why = shape_mismatch(out, ref); !why.empty()) return why;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    // Written so that a NaN fails too.
    if (!(std::fabs(out[i] - ref[i]) <= tol)) {
      return "element " + std::to_string(i) + " is " + std::to_string(out[i]) +
             ", reference " + std::to_string(ref[i]) + ", tolerance " +
             std::to_string(tol);
    }
  }
  return "";
}

std::string check_argmax(const Tensor& out, const Tensor& ref, float tol) {
  if (auto why = shape_mismatch(out, ref); !why.empty()) return why;
  const std::int64_t top = argmax(ref);
  float second = -INFINITY;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    if (i != top) second = std::max(second, ref[i]);
  }
  if (ref[top] - second <= 2.0f * tol) return "";  // too close to call
  if (argmax(out) != top) {
    return "argmax " + std::to_string(argmax(out)) + " != reference " +
           std::to_string(top) + " at margin " +
           std::to_string(ref[top] - second);
  }
  return "";
}

std::string check_no_zero_fill(const adcnn::runtime::InferStats& stats) {
  if (stats.tiles_missing == 0) return "";
  return std::to_string(stats.tiles_missing) + " of " +
         std::to_string(stats.tiles_total) + " tiles zero-filled (image " +
         std::to_string(stats.image_id) + ")";
}

std::string check_accounting(std::int64_t attempted, std::int64_t delivered,
                             std::int64_t failed) {
  if (attempted == delivered + failed) return "";
  return "attempted " + std::to_string(attempted) + " != delivered " +
         std::to_string(delivered) + " + failed " + std::to_string(failed);
}

std::string check_count(const char* what, std::int64_t counted,
                        std::int64_t expected) {
  if (counted == expected) return "";
  return std::string(what) + ": program counted " + std::to_string(counted) +
         ", expected " + std::to_string(expected);
}

std::string check_codec_grid(const Tensor& x, const Tensor& decoded,
                             float range, int bits) {
  if (auto why = shape_mismatch(x, decoded); !why.empty()) return why;
  const float step = range / static_cast<float>((1 << bits) - 1);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float clipped = std::clamp(x[i], 0.0f, range);
    const float want = static_cast<float>(std::lround(clipped / step)) * step;
    if (decoded[i] != want) {
      return "element " + std::to_string(i) + ": decoded " +
             std::to_string(decoded[i]) + ", grid value " +
             std::to_string(want) + " for input " + std::to_string(x[i]);
    }
  }
  return "";
}

std::string RepeatCheck::observe(std::size_t input, const Tensor& out) {
  const auto [it, inserted] = first_.emplace(input, out);
  if (inserted) return "";
  const std::string why = check_bitwise(out, it->second);
  if (why.empty()) return "";
  return "input " + std::to_string(input) + " served twice, outputs differ: " +
         why;
}

}  // namespace servebench
