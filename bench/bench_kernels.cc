// Micro-benchmarks (google-benchmark) for the compute kernels behind the
// detector: GEMM, im2col, convolution forward/backward, the YOLO loss,
// NMS, IoU and the synthetic renderer / mosaic augmentation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "eval/box.h"
#include "eval/detection.h"
#include "nn/conv_layer.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/gemm_pack.h"
#include "tensor/im2col.h"

namespace thali {
namespace {

// Pins the global pool to `threads` for the duration of one benchmark
// run, restoring single-thread afterwards so the plain (unsuffixed)
// benches always measure the 1-thread baseline.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int threads) { SetMaxParallelism(threads); }
  ~ScopedParallelism() { SetMaxParallelism(1); }
};

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Verbatim copy of the pre-packed-GEMM scalar kernel (the repo's seed
// C += alpha*A*B loop nest) so packed-vs-seed speedups can be measured
// inside one binary, under identical compiler flags.
void SeedGemmNnAccum(int64_t m, int64_t n, int64_t k, float alpha,
                     const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc) {
  constexpr int64_t kBlockK = 128;
  constexpr int64_t kBlockM = 64;
  for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
    const int64_t k1 = std::min(k, k0 + kBlockK);
    for (int64_t mb = 0; mb < m; mb += kBlockM) {
      const int64_t mb1 = std::min(m, mb + kBlockM);
      for (int64_t i = mb; i < mb1; ++i) {
        float* ci = c + i * ldc;
        for (int64_t p = k0; p < k1; ++p) {
          const float aip = alpha * a[i * lda + p];
          const float* bp = b + p * ldb;
          for (int64_t j = 0; j < n; ++j) {
            ci[j] += aip * bp[j];
          }
        }
      }
    }
  }
}

void BM_GemmSeedScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    SeedGemmNnAccum(n, n, n, 1.0f, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmSeedScalar)->Arg(256);

// Packed inference GEMM on one conv shape (m = filters, k = c*ks*ks,
// n = out_h*out_w), weights pre-packed outside the timed loop exactly as
// ConvLayer::PrepackWeights does. Registered dynamically in main() for
// every distinct conv shape of the yolov4-thali model.
void GemmPackedShapeBench(benchmark::State& state, int64_t m, int64_t n,
                          int64_t k) {
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n)), c(static_cast<size_t>(m * n));
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());
  for (auto _ : state) {
    GemmPrepacked(m, n, k, packed.data(), false, b.data(), n, 0.0f, c.data(),
                  n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}

void BM_GemmPacked(benchmark::State& state) {
  GemmPackedShapeBench(state, state.range(0), state.range(1), state.range(2));
}
BENCHMARK(BM_GemmPacked)->ArgNames({"m", "n", "k"})->Args({256, 256, 256});

// Quantized int8 GEMM on the same conv shapes, operands prepared outside
// the timed loop like the fp32 packed bench (ConvLayer quantizes weights
// once at prepack; the per-item activation quantize+pack is measured by
// the end-to-end BM_ThaliInference instead). Items processed counts
// multiply-accumulate ops (2*m*n*k), so GOPS compares directly against
// BM_GemmPacked's GFLOP/s.
void GemmInt8ShapeBench(benchmark::State& state, int64_t m, int64_t n,
                        int64_t k) {
  Rng rng(1);
  const int64_t kp = Int8PackedK(k);
  std::vector<float> w(static_cast<size_t>(m * k));
  for (auto& v : w) v = rng.NextGaussian();
  std::vector<int8_t> qw(static_cast<size_t>(m * kp));
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wcolsum(static_cast<size_t>(m));
  Int8QuantizeWeights(w.data(), m, k, qw.data(), wscale.data(),
                      wcolsum.data());
  float in_scale = 0.0f;
  int32_t in_zp = 0;
  Int8RangeToScaleZp(-3.0f, 3.0f, &in_scale, &in_zp);
  std::vector<float> x(static_cast<size_t>(k * n));
  for (auto& v : x) v = rng.NextGaussian();
  std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
  Int8QuantizeActivations(x.data(), k * n, 1.0f / in_scale, in_zp,
                          qcol.data());
  std::vector<uint8_t> packed(static_cast<size_t>(Int8PackedActBytes(k, n)));
  Int8PackActCols(qcol.data(), k, n, packed.data());
  std::vector<float> bias(static_cast<size_t>(m), 0.1f);
  Int8Epilogue epi;
  epi.in_scale = in_scale;
  epi.in_zp = in_zp;
  epi.wscale = wscale.data();
  epi.wcolsum = wcolsum.data();
  epi.bias = bias.data();
  epi.activation = GemmActivation::kLeaky;
  std::vector<float> c(static_cast<size_t>(m * n));
  std::vector<int32_t> acc(static_cast<size_t>(m * n));
  for (auto _ : state) {
    Int8GemmPrepacked(m, n, k, qw.data(), packed.data(), epi, c.data(), n,
                      acc.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}

void BM_GemmInt8(benchmark::State& state) {
  GemmInt8ShapeBench(state, state.range(0), state.range(1), state.range(2));
}
BENCHMARK(BM_GemmInt8)->ArgNames({"m", "n", "k"})->Args({256, 256, 256});

// Batch-1 end-to-end yolov4-thali inference (img/s), fp32 fused plan vs
// the calibrated THALI_INT8 plan. The int8 run pays the per-item
// activation quantize + u8 im2col + panel pack inside Forward, so this
// is the deployment-facing speedup number.
void BM_ThaliInference(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  internal::SetInt8ForTesting(int8 ? 1 : 0);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  internal::SetInt8ForTesting(-1);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  THALI_CHECK_OK(net.FoldBatchNorm());
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  if (int8) {
    net.set_calib_phase(CalibPhase::kRange);
    net.Forward(input, /*train=*/false);
    net.set_calib_phase(CalibPhase::kOff);
    for (int i = 0; i < net.num_layers(); ++i) {
      if (net.layer(i).plan().int8_candidate) {
        static_cast<ConvLayer&>(net.layer(i)).FinalizeCalibration(100.0);
      }
    }
    // Arm the candidates (resolving them to int8) and the quantize-once
    // chains: the dtype pass only emits u8 edges between armed convs.
    THALI_CHECK_OK(net.ReplanInference());
  }
  net.Forward(input, /*train=*/false);  // warm: lazy prepack outside timing
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(input, /*train=*/false).data());
  }
  state.SetItemsProcessed(state.iterations());  // images
}
BENCHMARK(BM_ThaliInference)->ArgNames({"int8"})->Arg(0)->Arg(1);

void BM_Im2Col(benchmark::State& state) {
  const int c = 32, h = 24, w = 24, k = 3;
  Rng rng(2);
  std::vector<float> im(static_cast<size_t>(c) * h * w);
  for (auto& v : im) v = rng.NextGaussian();
  std::vector<float> col(static_cast<size_t>(c) * k * k * h * w);
  for (auto _ : state) {
    Im2Col(im.data(), c, h, w, k, 1, 1, col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_ConvForward(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  Network net(24, 24, channels, 1);
  ConvLayer::Options o;
  o.filters = channels;
  o.ksize = 3;
  o.stride = 1;
  o.pad = 1;
  o.batch_normalize = true;
  o.activation = Activation::kMish;
  net.Add(std::make_unique<ConvLayer>(o));
  THALI_CHECK_OK(net.Finalize());
  Rng rng(3);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(rng);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(input).data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(64);

// Inference-mode conv forward with batch norm already folded (the
// deployment configuration): the pre-packed GEMM with the fused
// bias+leaky epilogue.
void BM_ConvForwardInference(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  Network net(24, 24, channels, 1);
  ConvLayer::Options o;
  o.filters = channels;
  o.ksize = 3;
  o.stride = 1;
  o.pad = 1;
  o.batch_normalize = false;  // as after FoldBatchNorm
  o.activation = Activation::kLeaky;
  net.Add(std::make_unique<ConvLayer>(o));
  THALI_CHECK_OK(net.Finalize(ExecMode::kInference));
  Rng rng(3);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(rng);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(input).data());
  }
}
BENCHMARK(BM_ConvForwardInference)->ArgNames({"channels"})->Arg(64);

void BM_ConvTrainStep(benchmark::State& state) {
  Network net(24, 24, 16, 2);
  ConvLayer::Options o;
  o.filters = 32;
  o.ksize = 3;
  o.stride = 1;
  o.pad = 1;
  o.batch_normalize = true;
  o.activation = Activation::kLeaky;
  net.Add(std::make_unique<ConvLayer>(o));
  THALI_CHECK_OK(net.Finalize());
  Rng rng(4);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(rng);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  for (auto _ : state) {
    net.Forward(input, /*train=*/true);
    net.layer(0).delta().Fill(0.01f);
    net.Backward(input);
    net.ZeroGrads();
  }
}
BENCHMARK(BM_ConvTrainStep);

void BM_YoloLoss(benchmark::State& state) {
  YoloLayer::Options yo;
  yo.anchors = {{10, 10}, {26, 26}, {55, 55}};
  yo.mask = {0, 1, 2};
  yo.classes = 10;
  Network net(12, 12, 45, 4);
  net.Add(std::make_unique<YoloLayer>(yo));
  THALI_CHECK_OK(net.Finalize());
  Rng rng(5);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  net.Forward(input, true);
  TruthBatch truths(4);
  for (auto& t : truths) {
    t.push_back({Box{0.5f, 0.5f, 0.4f, 0.4f}, 3});
    t.push_back({Box{0.2f, 0.7f, 0.2f, 0.25f}, 7});
  }
  auto* yolo = static_cast<YoloLayer*>(&net.layer(0));
  for (auto _ : state) {
    net.ZeroDeltas();
    benchmark::DoNotOptimize(yolo->ComputeLoss(truths, 96, 96));
  }
}
BENCHMARK(BM_YoloLoss);

void BM_Iou(benchmark::State& state) {
  Rng rng(6);
  std::vector<Box> boxes(1000);
  for (auto& b : boxes) {
    b = Box{rng.NextFloat(), rng.NextFloat(), rng.NextFloat(0.05f, 0.4f),
            rng.NextFloat(0.05f, 0.4f)};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Iou(boxes[i % 1000], boxes[(i * 7 + 13) % 1000]));
    ++i;
  }
}
BENCHMARK(BM_Iou);

void BM_CiouGrad(benchmark::State& state) {
  Box p{0.5f, 0.5f, 0.3f, 0.25f};
  Box t{0.55f, 0.45f, 0.28f, 0.3f};
  float g[4];
  for (auto _ : state) {
    benchmark::DoNotOptimize(CiouGrad(p, t, g));
  }
}
BENCHMARK(BM_CiouGrad);

void BM_Nms(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<Detection> dets(static_cast<size_t>(n));
  for (auto& d : dets) {
    d.box = Box{rng.NextFloat(), rng.NextFloat(), rng.NextFloat(0.05f, 0.3f),
                rng.NextFloat(0.05f, 0.3f)};
    d.class_id = rng.NextInt(0, 9);
    d.confidence = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Nms(dets, 0.45f));
  }
}
BENCHMARK(BM_Nms)->Arg(100)->Arg(1000);

void BM_RenderSingleDish(benchmark::State& state) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(8);
  int cls = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        renderer.RenderSingleDish(cls++ % 10, rng).image.data());
  }
}
BENCHMARK(BM_RenderSingleDish);

void BM_RenderPlatter(benchmark::State& state) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        renderer.RenderRandomPlatter(3, rng).image.data());
  }
}
BENCHMARK(BM_RenderPlatter);

void BM_MosaicAugment(benchmark::State& state) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(10);
  std::array<Sample, 4> parts;
  for (int i = 0; i < 4; ++i) {
    RenderedScene s = renderer.RenderSingleDish(i, rng);
    parts[static_cast<size_t>(i)] = Sample{s.image, s.truths};
  }
  AugmentOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MosaicCombine(parts, opts, rng).image.data());
  }
}
BENCHMARK(BM_MosaicAugment);

// --- Threaded variants: the second benchmark argument is the thread
// count, so `--benchmark_filter=Threaded` sweeps the scaling curve.

void BM_GemmThreaded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedParallelism parallelism(static_cast<int>(state.range(1)));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmThreaded)
    ->ArgNames({"n", "threads"})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void BM_ConvForwardThreaded(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  ScopedParallelism parallelism(static_cast<int>(state.range(1)));
  Network net(24, 24, channels, 4);  // batch 4: exercises batch parallelism
  ConvLayer::Options o;
  o.filters = channels;
  o.ksize = 3;
  o.stride = 1;
  o.pad = 1;
  o.batch_normalize = true;
  o.activation = Activation::kMish;
  net.Add(std::make_unique<ConvLayer>(o));
  THALI_CHECK_OK(net.Finalize());
  Rng rng(3);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(rng);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(input).data());
  }
}
BENCHMARK(BM_ConvForwardThreaded)
    ->ArgNames({"channels", "threads"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

void BM_ConvTrainStepThreaded(benchmark::State& state) {
  ScopedParallelism parallelism(static_cast<int>(state.range(0)));
  Network net(24, 24, 16, 4);
  ConvLayer::Options o;
  o.filters = 32;
  o.ksize = 3;
  o.stride = 1;
  o.pad = 1;
  o.batch_normalize = true;
  o.activation = Activation::kLeaky;
  net.Add(std::make_unique<ConvLayer>(o));
  THALI_CHECK_OK(net.Finalize());
  Rng rng(4);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(rng);
  Tensor input(net.input_shape());
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  for (auto _ : state) {
    net.Forward(input, /*train=*/true);
    net.layer(0).delta().Fill(0.01f);
    net.Backward(input);
    net.ZeroGrads();
  }
}
BENCHMARK(BM_ConvTrainStepThreaded)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_RenderDatasetThreaded(benchmark::State& state) {
  ScopedParallelism parallelism(static_cast<int>(state.range(0)));
  DatasetSpec spec;
  spec.num_images = 32;
  for (auto _ : state) {
    FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);
    benchmark::DoNotOptimize(ds.item(0).image.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.num_images);
}
BENCHMARK(BM_RenderDatasetThreaded)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

}  // namespace

// Registers one BM_GemmPacked instance per distinct conv GEMM shape of
// the yolov4-thali model (m = filters, n = out_h*out_w, k = c*ks*ks), so
// the sweep always tracks the real network rather than a hand-kept list.
void RegisterYoloShapeBenches() {
  YoloThaliOptions yo;
  Rng rng(1);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(yo), /*batch_override=*/1,
                                   rng, ExecMode::kInference);
  if (!built.ok()) return;
  std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
  for (int i = 0; i < built->net->num_layers(); ++i) {
    const Layer& l = built->net->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    const int64_t m = conv.options().filters;
    const int64_t k = l.input_shape().dim(1) * conv.options().ksize *
                      conv.options().ksize;
    const int64_t n = l.output_shape().dim(2) * l.output_shape().dim(3);
    if (!seen.insert({m, n, k}).second) continue;
    const std::string suffix = "yolo_m" + std::to_string(m) + "_n" +
                               std::to_string(n) + "_k" + std::to_string(k);
    benchmark::RegisterBenchmark(
        ("BM_GemmPacked/" + suffix).c_str(),
        [m, n, k](benchmark::State& st) {
          GemmPackedShapeBench(st, m, n, k);
        });
    benchmark::RegisterBenchmark(
        ("BM_GemmInt8/" + suffix).c_str(), [m, n, k](benchmark::State& st) {
          GemmInt8ShapeBench(st, m, n, k);
        });
  }
}

}  // namespace thali

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  thali::RegisterYoloShapeBenches();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
