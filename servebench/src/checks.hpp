// Output checks of the serving benchmark. Each returns an empty string
// when the output passes and otherwise says what is wrong, so the
// benchmark can report the first failure and the check tests can show
// that every check rejects a wrong input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "runtime/central_node.hpp"
#include "tensor/tensor.hpp"

namespace servebench {

using adcnn::Tensor;

/// fp32 outputs may differ from the unoptimized whole-graph forward by BN
/// folding rounding (~4e-6) and by the few FakeQuant levels that rounding
/// pushes across a rounding boundary (one level moves a logit by up to
/// ~0.02); the README records the measured spread.
inline constexpr float kFp32Tolerance = 0.05f;
/// int8-prefix outputs against the same fp32 reference (max seen ~0.25).
inline constexpr float kInt8Epsilon = 0.5f;

/// Same shape and the same bits.
std::string check_bitwise(const Tensor& out, const Tensor& expect);
/// Same shape and every element within `tol` of `ref`.
std::string check_within(const Tensor& out, const Tensor& ref, float tol);
/// Argmax of `out` equals argmax of `ref` whenever the reference's top-two
/// margin exceeds 2 * tol (a guarantee when check_within(tol) holds).
std::string check_argmax(const Tensor& out, const Tensor& ref, float tol);
/// The image's tiles all arrived: nothing was zero-filled at T_L.
std::string check_no_zero_fill(const adcnn::runtime::InferStats& stats);
/// attempted = delivered + failed.
std::string check_accounting(std::int64_t attempted, std::int64_t delivered,
                             std::int64_t failed);
/// A count the benchmark derived itself equals the program's count.
std::string check_count(const char* what, std::int64_t counted,
                        std::int64_t expected);
/// `decoded` is `x` snapped to the codec grid, computed here: clip to
/// [0, range], round to one of 2^bits - 1 equal steps.
std::string check_codec_grid(const Tensor& x, const Tensor& decoded,
                             float range, int bits);

/// Every output of one input is bit-identical, whatever batch, batch
/// position or cluster served it. Keeps the first output of each input.
class RepeatCheck {
 public:
  std::string observe(std::size_t input, const Tensor& out);
  const std::map<std::size_t, Tensor>& first() const { return first_; }

 private:
  std::map<std::size_t, Tensor> first_;
};

}  // namespace servebench
