// Shows that each output check of the serving benchmark can fail: every
// check accepts a correct input and rejects a wrong one. Exit code 0 when
// all cases behave, 1 otherwise.
//
//   bash servebench/run.sh --check-tests
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "../src/checks.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace servebench;
using adcnn::Rng;
using adcnn::Shape;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%-64s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

bool passes(const std::string& why) { return why.empty(); }

Tensor logits(float a, float b, float c, float d) {
  return Tensor::from_data(Shape{1, 4}, {a, b, c, d});
}

}  // namespace

int main() {
  Rng rng(7);
  const Tensor ref = logits(2.0f, 0.5f, -1.0f, 0.25f);
  const Tensor other_image = logits(-0.7f, 1.9f, 0.3f, 0.1f);

  // Logit tolerance (fp32 and int8 both use check_within).
  Tensor close = ref;
  close[0] += 0.9f * kFp32Tolerance;
  Tensor perturbed = ref;
  perturbed[2] += 1.1f * kFp32Tolerance;
  expect(passes(check_within(close, ref, kFp32Tolerance)),
         "fp32 logit inside the tolerance passes");
  expect(!passes(check_within(perturbed, ref, kFp32Tolerance)),
         "fp32 logit perturbed beyond the tolerance fails");
  Tensor int8_off = ref;
  int8_off[1] -= 1.5f * kInt8Epsilon;
  expect(!passes(check_within(int8_off, ref, kInt8Epsilon)),
         "int8 logit beyond epsilon fails");
  Tensor nan = ref;
  nan[3] = 0.0f / 0.0f;
  expect(!passes(check_within(nan, ref, kFp32Tolerance)), "NaN logit fails");

  // The output of a different image.
  expect(!passes(check_within(other_image, ref, kInt8Epsilon)),
         "another image's output fails the tolerance check");
  expect(!passes(check_bitwise(other_image, ref)),
         "another image's output fails the bitwise check");
  expect(!passes(check_argmax(other_image, ref, kInt8Epsilon)),
         "another image's argmax fails at a wide margin");
  expect(passes(check_argmax(logits(0.5f, 0.45f, 0.0f, 0.0f),
                             logits(0.45f, 0.5f, 0.0f, 0.0f), kInt8Epsilon)),
         "argmax flip inside 2*epsilon of the margin is allowed");
  expect(!passes(check_bitwise(Tensor::zeros(Shape{1, 5}), ref)),
         "wrong output shape fails");

  // Served against the stage-by-stage replica: one ulp is a failure.
  Tensor ulp = ref;
  ulp[1] = std::nextafter(ulp[1], 10.0f);
  expect(passes(check_bitwise(ref, ref)), "identical output passes bitwise");
  expect(!passes(check_bitwise(ulp, ref)), "one-ulp change fails bitwise");

  // A zero-filled tile.
  adcnn::runtime::InferStats stats;
  stats.tiles_total = 4;
  expect(passes(check_no_zero_fill(stats)), "no missing tile passes");
  stats.tiles_missing = 1;
  expect(!passes(check_no_zero_fill(stats)), "a zero-filled tile fails");

  // An int8 output that changes with batch position.
  RepeatCheck repeat;
  expect(passes(repeat.observe(3, ref)), "first output of an input is kept");
  expect(passes(repeat.observe(3, ref)), "same output at another position passes");
  expect(!passes(repeat.observe(3, ulp)),
         "output changed with batch position fails");
  expect(passes(repeat.observe(4, other_image)), "a different input is separate");

  // An image missing from the counts.
  expect(passes(check_accounting(10, 9, 1)), "attempted = delivered + failed passes");
  expect(!passes(check_accounting(10, 9, 0)), "an image missing from the counts fails");
  expect(!passes(check_count("downlink bytes", 4100, 4096)),
         "downlink bytes off the computed total fail");

  // Codec output off the clip-and-round grid.
  const float range = 3.0f;
  const int bits = 4;
  const float step = range / 15.0f;
  const Tensor x = Tensor::rand(Shape{1, 2, 4, 4}, rng, -1.0f, 4.0f);
  Tensor grid(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float c = std::min(std::max(x[i], 0.0f), range);
    grid[i] = static_cast<float>(std::lround(c / step)) * step;
  }
  expect(passes(check_codec_grid(x, grid, range, bits)), "on-grid decode passes");
  Tensor off = grid;
  off[5] += 0.5f * step;
  expect(!passes(check_codec_grid(x, off, range, bits)), "off-grid decode fails");
  expect(!passes(check_codec_grid(x, x, range, bits)),
         "decode that skipped quantization fails");

  std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS", g_failures);
  return g_failures ? 1 : 0;
}
