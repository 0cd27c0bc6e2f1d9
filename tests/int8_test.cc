// Tests for the per-channel int8 quantization stack (tensor/gemm_int8,
// the kQuantInt8 conv path, calibration and its persistence): the
// quantizer math, bitwise conformance of the scalar and AVX2 kernel
// families on every conv GEMM shape of yolov4-thali, plan selection,
// the THALI_INT8=0 fp32 pin, and end-to-end accuracy against fp32.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/cpu_features.h"
#include "base/file_util.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/detector.h"
#include "core/trainer.h"
#include "darknet/calibration_io.h"
#include "darknet/cfg.h"
#include "darknet/weights_io.h"
#include "darknet/model_zoo.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/qtensor.h"

namespace thali {
namespace {

// Restores every global knob a test may flip, so a failure cannot leak
// int8 mode, a forced kernel family, or parallelism into later tests.
class Int8Test : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMaxParallelism(1);
    internal::SetInt8ForTesting(-1);
    internal::SetInt8GemmKernelForTesting(nullptr);
    internal::SetInt8EpilogueForTesting(nullptr);
    internal::SetFusionForTesting(-1);
  }
};

TEST_F(Int8Test, QuantizeWeightsRoundsClampsAndSumsColumns) {
  // Row 0: maxabs 2.54 -> scale 0.02, quantized values land on exact
  // multiples. Row 1: all zeros -> scale 1, all-zero row.
  const float w[2 * 3] = {2.54f, -1.27f, 0.635f, 0.0f, 0.0f, 0.0f};
  const int64_t kp = Int8PackedK(3);
  ASSERT_EQ(kp, 4);
  std::vector<int8_t> qw(static_cast<size_t>(2 * kp), 99);
  float scale[2];
  int32_t colsum[2];
  Int8QuantizeWeights(w, 2, 3, qw.data(), scale, colsum);
  EXPECT_FLOAT_EQ(scale[0], 2.54f / 127.0f);
  EXPECT_EQ(qw[0], 127);
  EXPECT_EQ(qw[1], -64);  // -63.5 rounds to even
  EXPECT_EQ(qw[2], 32);   // 31.75 rounds to 32
  EXPECT_EQ(qw[3], 0);    // kp padding is zero
  EXPECT_EQ(colsum[0], 127 - 64 + 32);
  EXPECT_FLOAT_EQ(scale[1], 1.0f);
  EXPECT_EQ(colsum[1], 0);
  for (int64_t p = 0; p < kp; ++p) EXPECT_EQ(qw[static_cast<size_t>(kp + p)], 0);
}

TEST_F(Int8Test, RangeToScaleZpWidensToIncludeZero) {
  float s = 0.0f;
  int32_t zp = -1;
  // All-positive range: lo widens to 0, zp = 0.
  Int8RangeToScaleZp(0.5f, 2.54f, &s, &zp);
  EXPECT_FLOAT_EQ(s, 2.54f / 127.0f);
  EXPECT_EQ(zp, 0);
  // All-negative range: hi widens to 0, zp = 127.
  Int8RangeToScaleZp(-2.54f, -0.5f, &s, &zp);
  EXPECT_FLOAT_EQ(s, 2.54f / 127.0f);
  EXPECT_EQ(zp, 127);
  // Symmetric range: zp in the middle.
  Int8RangeToScaleZp(-1.0f, 1.0f, &s, &zp);
  EXPECT_EQ(zp, 64);  // 63.5 rounds to even
  // Degenerate range still yields a positive scale.
  Int8RangeToScaleZp(0.0f, 0.0f, &s, &zp);
  EXPECT_GT(s, 0.0f);
}

TEST_F(Int8Test, QuantizeActivationsClampsTo7Bit) {
  float s = 0.0f;
  int32_t zp = 0;
  Int8RangeToScaleZp(-1.0f, 1.0f, &s, &zp);
  // Values far outside the calibrated range must clamp into [0, 127]:
  // the kernels' no-saturation guarantee depends on the 7-bit bound.
  const float x[5] = {-100.0f, -1.0f, 0.0f, 1.0f, 100.0f};
  uint8_t u[5];
  Int8QuantizeActivations(x, 5, 1.0f / s, zp, u);
  EXPECT_EQ(u[0], 0);
  EXPECT_EQ(u[2], static_cast<uint8_t>(zp));  // x = 0 is exactly zp
  EXPECT_EQ(u[4], 127);
  for (uint8_t v : u) EXPECT_LE(v, 127);
}

TEST_F(Int8Test, PackActColsMatchesDocumentedLayout) {
  const int64_t k = 6, n = 11;  // kp = 8, one full strip + 3 tail cols
  const int64_t kp = Int8PackedK(k);
  std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      qcol[static_cast<size_t>(p * n + j)] =
          static_cast<uint8_t>(p * 13 + j + 1);
    }
  }
  std::vector<uint8_t> packed(static_cast<size_t>(Int8PackedActBytes(k, n)),
                              0xAA);
  Int8PackActCols(qcol.data(), k, n, packed.data());
  // Strip bytes: (p, j) at (p/4)*32 + (j%8)*4 + p%4.
  for (int64_t p = 0; p < kp; ++p) {
    for (int64_t j = 0; j < 8; ++j) {
      const uint8_t want =
          p < k ? qcol[static_cast<size_t>(p * n + j)] : 0;
      EXPECT_EQ(packed[static_cast<size_t>((p / 4) * 32 + j * 4 + p % 4)],
                want)
          << "p=" << p << " j=" << j;
    }
  }
  // Tail columns: flat k-contiguous kp bytes each.
  const uint8_t* tails = packed.data() + kp * 8;
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t p = 0; p < kp; ++p) {
      const uint8_t want =
          p < k ? qcol[static_cast<size_t>(p * n + 8 + t)] : 0;
      EXPECT_EQ(tails[t * kp + p], want) << "t=" << t << " p=" << p;
    }
  }
}

// The distinct conv GEMM shapes (m = filters, n = out_h*out_w,
// k = c*ks*ks) of the yolov4-thali model, enumerated from the real
// network so the sweep tracks cfg changes.
std::vector<std::array<int64_t, 3>> ThaliConvGemmShapes() {
  Rng rng(1);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  std::set<std::array<int64_t, 3>> seen;
  for (int i = 0; i < built->net->num_layers(); ++i) {
    const Layer& l = built->net->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    const int64_t m = conv.options().filters;
    const int64_t k = l.input_shape().dim(1) * conv.options().ksize *
                      conv.options().ksize;
    const int64_t n = l.output_shape().dim(2) * l.output_shape().dim(3);
    seen.insert({m, n, k});
  }
  return {seen.begin(), seen.end()};
}

// Random quantized operands for one GEMM shape, valid per the scheme:
// weights in [-127, 127], activations 7-bit [0, 127].
struct QuantOperands {
  std::vector<int8_t> qw;       // m x kp
  std::vector<uint8_t> packed;  // kp x n panel
  std::vector<float> wscale;
  std::vector<int32_t> wcolsum;
};

QuantOperands MakeOperands(int64_t m, int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  const int64_t kp = Int8PackedK(k);
  QuantOperands ops;
  ops.qw.resize(static_cast<size_t>(m * kp), 0);
  ops.wscale.resize(static_cast<size_t>(m));
  ops.wcolsum.resize(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    int32_t sum = 0;
    for (int64_t p = 0; p < k; ++p) {
      const int v = rng.NextInt(-127, 127);
      ops.qw[static_cast<size_t>(f * kp + p)] = static_cast<int8_t>(v);
      sum += v;
    }
    ops.wscale[static_cast<size_t>(f)] = 0.01f + 0.001f * static_cast<float>(f % 7);
    ops.wcolsum[static_cast<size_t>(f)] = sum;
  }
  std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
  for (auto& v : qcol) v = static_cast<uint8_t>(rng.NextInt(0, 127));
  ops.packed.resize(static_cast<size_t>(Int8PackedActBytes(k, n)));
  Int8PackActCols(qcol.data(), k, n, ops.packed.data());
  return ops;
}

TEST_F(Int8Test, ScalarAndAvx2AccumulateBitwiseIdenticalOnAllThaliShapes) {
  const Int8GemmKernel* avx2 = Avx2Int8GemmKernel();
  if (avx2 == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  const auto shapes = ThaliConvGemmShapes();
  // yolov4-thali spans 22 distinct conv geometries; the sweep must not
  // silently shrink if the cfg generator changes.
  ASSERT_EQ(shapes.size(), 22u);
  uint64_t seed = 7;
  for (const auto& [m, n, k] : shapes) {
    const int64_t kp = Int8PackedK(k);
    const QuantOperands ops = MakeOperands(m, n, k, seed++);
    std::vector<int32_t> acc_s(static_cast<size_t>(m * n), -1);
    std::vector<int32_t> acc_v(static_cast<size_t>(m * n), -2);
    ScalarInt8GemmKernel().accumulate(0, m, n, kp, ops.qw.data(),
                                      ops.packed.data(), acc_s.data(), n);
    avx2->accumulate(0, m, n, kp, ops.qw.data(), ops.packed.data(),
                     acc_v.data(), n);
    EXPECT_EQ(std::memcmp(acc_s.data(), acc_v.data(),
                          acc_s.size() * sizeof(int32_t)),
              0)
        << "m=" << m << " n=" << n << " k=" << k;
  }
}

TEST_F(Int8Test, KernelFamiliesAgreeOnRegisterTileEdges) {
  const Int8GemmKernel* avx2 = Avx2Int8GemmKernel();
  if (avx2 == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  // Every (m % 6, n % 8, k % 4) residue class around the kernel's 6x8
  // register tile and the k-quad interleave.
  uint64_t seed = 99;
  for (int64_t m = 1; m <= 13; ++m) {
    for (int64_t n = 1; n <= 17; ++n) {
      for (const int64_t k : {1, 3, 4, 5, 32, 33}) {
        const int64_t kp = Int8PackedK(k);
        const QuantOperands ops = MakeOperands(m, n, k, seed++);
        std::vector<int32_t> acc_s(static_cast<size_t>(m * n), 0);
        std::vector<int32_t> acc_v(static_cast<size_t>(m * n), 1);
        ScalarInt8GemmKernel().accumulate(0, m, n, kp, ops.qw.data(),
                                          ops.packed.data(), acc_s.data(), n);
        avx2->accumulate(0, m, n, kp, ops.qw.data(), ops.packed.data(),
                         acc_v.data(), n);
        ASSERT_EQ(std::memcmp(acc_s.data(), acc_v.data(),
                              acc_s.size() * sizeof(int32_t)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(Int8Test, Int8GemmBitwiseIdenticalAcrossThreadsAndKernels) {
  // Big enough that the driver's row parallelism actually splits.
  const int64_t m = 128, n = 576, k = 1152;
  const QuantOperands ops = MakeOperands(m, n, k, 5);
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    bias[static_cast<size_t>(f)] = 0.05f * static_cast<float>(f % 11) - 0.2f;
  }
  Int8Epilogue epi;
  epi.in_scale = 0.03f;
  epi.in_zp = 41;
  epi.wscale = ops.wscale.data();
  epi.wcolsum = ops.wcolsum.data();
  epi.bias = bias.data();
  epi.activation = GemmActivation::kLeaky;

  auto run = [&](const char* kernel, int threads) {
    internal::SetInt8GemmKernelForTesting(kernel);
    SetMaxParallelism(threads);
    std::vector<float> c(static_cast<size_t>(m * n), -9.0f);
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    Int8GemmPrepacked(m, n, k, ops.qw.data(), ops.packed.data(), epi,
                      c.data(), n, acc.data());
    internal::SetInt8GemmKernelForTesting(nullptr);
    return c;
  };
  const std::vector<float> base = run("scalar", 1);
  for (const char* kernel : {"scalar", "avx2"}) {
    for (const int threads : {1, 2, 4}) {
      if (std::string_view(kernel) == "scalar" && threads == 1) continue;
      const std::vector<float> got = run(kernel, threads);
      EXPECT_EQ(
          std::memcmp(got.data(), base.data(), got.size() * sizeof(float)), 0)
          << "kernel=" << kernel << " threads=" << threads;
    }
  }
}

TEST_F(Int8Test, EpilogueFamiliesAgreeBitwiseIncludingMaskedTails) {
  if (Avx2Int8EpilogueOrNull() == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 epilogue on this host";
  }
  Rng rng(909);
  const int64_t m = 9;
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wcolsum(static_cast<size_t>(m));
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    wscale[static_cast<size_t>(f)] = 0.001f + 0.01f * static_cast<float>(f);
    wcolsum[static_cast<size_t>(f)] = rng.NextInt(-4000, 4000);
    bias[static_cast<size_t>(f)] = 0.3f * static_cast<float>(f - 4);
  }
  // Every tail width 0..7 and every activation, with accumulators that
  // land on both sides of zero so the leaky/relu blends are exercised.
  for (const int64_t n : {8, 9, 10, 11, 12, 13, 14, 15, 33}) {
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    for (auto& a : acc) a = rng.NextInt(-300000, 300000);
    for (const GemmActivation act :
         {GemmActivation::kNone, GemmActivation::kLeaky,
          GemmActivation::kRelu}) {
      Int8Epilogue epi;
      epi.in_scale = 0.024f;
      epi.in_zp = 37;
      epi.wscale = wscale.data();
      epi.wcolsum = wcolsum.data();
      epi.bias = bias.data();
      epi.activation = act;
      std::vector<float> c_s(static_cast<size_t>(m * n), -1.0f);
      std::vector<float> c_v(static_cast<size_t>(m * n), -2.0f);
      internal::SetInt8EpilogueForTesting("scalar");
      Int8ApplyEpilogue(epi, 0, m, n, acc.data(), n, c_s.data(), n);
      internal::SetInt8EpilogueForTesting("avx2");
      Int8ApplyEpilogue(epi, 0, m, n, acc.data(), n, c_v.data(), n);
      internal::SetInt8EpilogueForTesting(nullptr);
      ASSERT_EQ(
          std::memcmp(c_s.data(), c_v.data(), c_s.size() * sizeof(float)), 0)
          << "n=" << n << " act=" << static_cast<int>(act);
    }
  }
}

TEST_F(Int8Test, EnvValueSemanticsAreOptIn) {
  EXPECT_FALSE(internal::Int8EnvValueEnables(nullptr));
  EXPECT_FALSE(internal::Int8EnvValueEnables(""));
  EXPECT_FALSE(internal::Int8EnvValueEnables("0"));
  EXPECT_TRUE(internal::Int8EnvValueEnables("1"));
  EXPECT_TRUE(internal::Int8EnvValueEnables("yes"));
}

BuiltNetwork BuildThali(int int8_mode) {
  internal::SetInt8ForTesting(int8_mode);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  internal::SetInt8ForTesting(-1);
  THALI_CHECK_OK(built.status());
  return std::move(built).value();
}

// Folds batch norm on every conv and calibrates the int8 candidates of
// an armed-plan network with one min/max pass over `input`, then
// replans so they resolve to int8 and quantize-once chains take effect.
// Returns the number of convs armed.
int FoldAndCalibrate(Network& net, const Tensor& input) {
  THALI_CHECK_OK(net.FoldBatchNorm());
  net.set_calib_phase(CalibPhase::kRange);
  Tensor in = input;
  net.Forward(in, /*train=*/false);
  net.set_calib_phase(CalibPhase::kOff);
  int armed = 0;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (!net.layer(i).plan().int8_candidate) continue;
    auto& conv = static_cast<ConvLayer&>(net.layer(i));
    conv.FinalizeCalibration(100.0);
    if (conv.has_activation_range()) ++armed;
  }
  THALI_CHECK_OK(net.ReplanInference());
  return armed;
}

TEST_F(Int8Test, PlanSelectsInt8OnlyForEligibleUnpinnedConvs) {
  BuiltNetwork built = BuildThali(1);
  Network& net = *built.net;
  ASSERT_TRUE(net.int8_enabled());
  ASSERT_TRUE(net.exec_plan().fused);
  int quantized_3x3 = 0, quantized_1x1 = 0, quantized_s2 = 0, head_feeders = 0;
  std::vector<int> candidates;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(net.layer(i));
    const ConvLayer::Options& o = conv.options();
    const LayerPlan& lp = net.exec_plan().layers[static_cast<size_t>(i)];
    // Before calibration no conv is armed: every candidate resolves to
    // the fp32 algorithm of its geometry.
    EXPECT_FALSE(IsInt8ConvAlgo(lp.conv_algo)) << "layer " << i;
    if (lp.int8_candidate) candidates.push_back(i);
    if (o.ksize == 3 && o.stride == 1 && o.pad == 1) {
      // Winograd geometry: int8 unless the output is NCHW-pinned, which
      // must stay fp32 Winograd (in yolov4-thali no 3x3 conv is pinned,
      // so every one quantizes).
      EXPECT_EQ(lp.conv_algo, ConvAlgo::kWinograd) << "layer " << i;
      EXPECT_EQ(lp.int8_candidate, lp.out_layout == ActLayout::kCNHW)
          << "layer " << i;
      if (lp.int8_candidate) ++quantized_3x3;
    } else if (o.ksize == 1 && o.stride == 1 && o.pad == 0) {
      // Every 1x1 quantizes, layout pins included — the int8 GEMM reads
      // through strides like kDirect1x1, so even the NCHW-pinned head
      // feeders take the quantized algorithm (their fp32 output is the
      // dequant edge into the yolo heads).
      EXPECT_EQ(lp.conv_algo, ConvAlgo::kDirect1x1) << "layer " << i;
      EXPECT_TRUE(lp.int8_candidate) << "layer " << i;
      ++quantized_1x1;
      if (lp.out_layout == ActLayout::kNCHW) ++head_feeders;
    } else if (o.ksize == 3 && o.stride == 2 && o.pad == 1) {
      // Downsampling stem convs: the u8 im2col walks any stride, so
      // these quantize too (plain im2col until armed — no Winograd form
      // at stride 2).
      EXPECT_EQ(lp.conv_algo, ConvAlgo::kIm2col) << "layer " << i;
      EXPECT_TRUE(lp.int8_candidate) << "layer " << i;
      ++quantized_s2;
    } else {
      EXPECT_FALSE(lp.int8_candidate) << "layer " << i;
    }
  }
  EXPECT_EQ(quantized_3x3, 13);  // every 3x3/s1/p1 conv of the model
  EXPECT_EQ(quantized_1x1, 10);  // every 1x1 conv, head feeders included
  EXPECT_EQ(quantized_s2, 2);    // the stride-2 stem convs 0-1
  EXPECT_EQ(head_feeders, 3);    // one per detection head

  // Before calibration no dtype chain exists: every edge is fp32.
  EXPECT_EQ(net.exec_plan().chained_edges, 0);
  EXPECT_FALSE(net.exec_plan().input_u8);
  for (const LayerPlan& lp : net.exec_plan().layers) {
    EXPECT_EQ(lp.out_dtype, DType::kF32);
    EXPECT_EQ(lp.in_dtype, DType::kF32);
  }

  // Calibration + replan resolves every candidate — and nothing else —
  // to the int8 variant of its geometry.
  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ASSERT_EQ(FoldAndCalibrate(net, input), 25);
  for (int i = 0; i < net.num_layers(); ++i) {
    const LayerPlan& lp = net.exec_plan().layers[static_cast<size_t>(i)];
    const bool candidate = std::find(candidates.begin(), candidates.end(),
                                     i) != candidates.end();
    EXPECT_EQ(lp.int8_candidate, candidate) << "layer " << i;
    EXPECT_EQ(IsInt8ConvAlgo(lp.conv_algo), candidate) << "layer " << i;
    if (!candidate) continue;
    const auto& o = static_cast<const ConvLayer&>(net.layer(i)).options();
    EXPECT_EQ(lp.conv_algo, o.ksize == 1 ? ConvAlgo::kQuantInt8Direct1x1
                                         : ConvAlgo::kQuantInt8)
        << "layer " << i;
  }

  // Int8 off: the plan must contain no candidate and no quantized entry.
  BuiltNetwork off = BuildThali(0);
  EXPECT_FALSE(off.net->int8_enabled());
  for (const LayerPlan& lp : off.net->exec_plan().layers) {
    EXPECT_FALSE(lp.int8_candidate);
    EXPECT_FALSE(IsInt8ConvAlgo(lp.conv_algo));
  }
}

// Full thali forward on fixed input; heads flattened for comparison.
std::vector<float> HeadOutputs(BuiltNetwork& built) {
  Tensor input(built.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  built.net->Forward(input, /*train=*/false);
  std::vector<float> flat;
  for (YoloLayer* head : built.yolo_layers) {
    const Tensor& out = head->output();
    flat.insert(flat.end(), out.data(), out.data() + out.size());
  }
  return flat;
}

TEST_F(Int8Test, Int8OffIsBitwiseIdenticalToDefaultFusedPlan) {
  // THALI_INT8=0 (and unset) must reproduce the fp32 fused plan byte for
  // byte — quantization support may cost default users nothing.
  BuiltNetwork def = BuildThali(-1);
  BuiltNetwork off = BuildThali(0);
  const std::vector<float> a = HeadOutputs(def);
  const std::vector<float> b = HeadOutputs(off);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST_F(Int8Test, Int8ForwardRunsQuantizedAndTracksFp32) {
  // fp32 oracle: same seed, same folded weights, int8 off.
  BuiltNetwork fp32 = BuildThali(0);
  THALI_CHECK_OK(fp32.net->FoldBatchNorm());
  const std::vector<float> ref = HeadOutputs(fp32);

  BuiltNetwork int8 = BuildThali(1);
  Tensor calib_input(int8.net->input_shape());
  Rng irng(17);  // the same input HeadOutputs forwards
  for (int64_t i = 0; i < calib_input.size(); ++i) {
    calib_input[i] = irng.NextGaussian();
  }
  const int armed = FoldAndCalibrate(*int8.net, calib_input);
  ASSERT_GT(armed, 0);
  const std::vector<float> got = HeadOutputs(int8);
  ASSERT_EQ(got.size(), ref.size());

  // The quantized path must have actually run (outputs differ from
  // fp32)...
  EXPECT_NE(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)),
            0);
  // ...while staying close: relative L2 over the head activations.
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(got[i]) - ref[i];
    num += d * d;
    den += static_cast<double>(ref[i]) * ref[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.15)
      << "int8 heads drifted " << std::sqrt(num / den) << " rel-L2 from fp32";

  // Scalar and AVX2 kernel families must agree bitwise end to end.
  internal::SetInt8GemmKernelForTesting("scalar");
  const std::vector<float> scalar_out = HeadOutputs(int8);
  internal::SetInt8GemmKernelForTesting(nullptr);
  EXPECT_EQ(std::memcmp(scalar_out.data(), got.data(),
                        got.size() * sizeof(float)),
            0);
}

TEST_F(Int8Test, ReplanAfterCalibrationChainsMajorityOfThali) {
  BuiltNetwork int8 = BuildThali(1);
  Tensor input(int8.net->input_shape());
  Rng irng(41);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ASSERT_GT(FoldAndCalibrate(*int8.net, input), 0);

  const ExecPlan& plan = int8.net->exec_plan();
  // Every int8 candidate of yolov4-thali resolves to int8 once armed.
  int int8_convs = 0;
  for (const LayerPlan& lp : plan.layers) {
    EXPECT_EQ(IsInt8ConvAlgo(lp.conv_algo), lp.int8_candidate);
    int8_convs += IsInt8ConvAlgo(lp.conv_algo);
  }
  EXPECT_EQ(int8_convs, 25);
  // The acceptance floor: with the stride-2 stem convs
  // quantized and the network input chained as a u8 domain, 49 of the
  // 52 thali layers run quantized (25 quantized convs plus the u8
  // passthroughs between them; only the three yolo heads stay fp32),
  // with real chained edges and the head feeders' outputs as dequant
  // edges.
  EXPECT_GE(plan.quantized_layers, 49) << "of " << int8.net->num_layers();
  EXPECT_GT(plan.chained_edges, 0);
  EXPECT_GE(plan.dequant_edges, 3);  // one per yolo head at minimum
  // The input itself quantizes: layer 0 reads u8 bytes staged by
  // Network::Forward (or the detector's fused letterbox-quantize) in
  // conv 0's calibrated activation domain.
  EXPECT_TRUE(plan.input_u8);
  EXPECT_GT(plan.input_qscale, 0.0f);
  EXPECT_GE(plan.input_qzp, 0);
  EXPECT_LE(plan.input_qzp, 127);
  EXPECT_EQ(plan.layers[0].in_dtype, DType::kU8);
  EXPECT_EQ(plan.layers[0].in_qscale, plan.input_qscale);
  EXPECT_EQ(plan.layers[0].in_qzp, plan.input_qzp);
  int chained_convs = 0;
  for (int i = 0; i < int8.net->num_layers(); ++i) {
    const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
    if (lp.in_dtype == DType::kU8) {
      // A u8 input implies a u8 producer in the same domain.
      const bool conv = std::string_view(int8.net->layer(i).kind()) ==
                        "convolutional";
      if (conv) ++chained_convs;
      EXPECT_GT(lp.in_qscale, 0.0f) << "layer " << i;
      EXPECT_GE(lp.in_qzp, 0) << "layer " << i;
      EXPECT_LE(lp.in_qzp, 127) << "layer " << i;
    }
    if (lp.out_dtype == DType::kU8) {
      EXPECT_GE(lp.quant_root, 0) << "layer " << i;
      EXPECT_EQ(plan.layers[static_cast<size_t>(lp.quant_root)].out_dtype,
                DType::kU8)
          << "layer " << i;
    }
  }
  EXPECT_GT(chained_convs, 0);

  // Dropping the ranges must drop every chain again.
  for (int i = 0; i < int8.net->num_layers(); ++i) {
    if (std::string_view(int8.net->layer(i).kind()) != "convolutional") {
      continue;
    }
    static_cast<ConvLayer&>(int8.net->layer(i)).ResetCalibration();
  }
  THALI_CHECK_OK(int8.net->ReplanInference());
  EXPECT_EQ(int8.net->exec_plan().chained_edges, 0);
  for (const LayerPlan& lp : int8.net->exec_plan().layers) {
    EXPECT_EQ(lp.out_dtype, DType::kF32);
    EXPECT_FALSE(IsInt8ConvAlgo(lp.conv_algo));
  }
  // And the fp32 algorithms the candidates resolve to forward cleanly.
  const std::vector<float> out = HeadOutputs(int8);
  EXPECT_FALSE(out.empty());
}

TEST_F(Int8Test, U8OutEpilogueFamiliesAgreeBitwiseIncludingMish) {
  if (Avx2Int8EpilogueOrNull() == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 epilogue on this host";
  }
  Rng rng(808);
  const int64_t m = 7;
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wcolsum(static_cast<size_t>(m));
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    wscale[static_cast<size_t>(f)] = 0.002f + 0.008f * static_cast<float>(f);
    wcolsum[static_cast<size_t>(f)] = rng.NextInt(-4000, 4000);
    bias[static_cast<size_t>(f)] = 0.25f * static_cast<float>(f - 3);
  }
  // Every tail width and all four fusable activations, requantizing to
  // u8 in an output domain with a nonzero zero point. The mish case
  // pins the scalar FastMish against the AVX2 FastMishVec bit for bit.
  for (const int64_t n : {8, 9, 10, 11, 12, 13, 14, 15, 40}) {
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    for (auto& a : acc) a = rng.NextInt(-300000, 300000);
    for (const GemmActivation act :
         {GemmActivation::kNone, GemmActivation::kLeaky,
          GemmActivation::kRelu, GemmActivation::kMish}) {
      Int8Epilogue epi;
      epi.in_scale = 0.019f;
      epi.in_zp = 52;
      epi.wscale = wscale.data();
      epi.wcolsum = wcolsum.data();
      epi.bias = bias.data();
      epi.activation = act;
      epi.out_inv_scale = 1.0f / 0.05f;
      epi.out_zp = 33;
      std::vector<uint8_t> u_s(static_cast<size_t>(m * n), 0xAA);
      std::vector<uint8_t> u_v(static_cast<size_t>(m * n), 0x55);
      internal::SetInt8EpilogueForTesting("scalar");
      epi.out_u8 = u_s.data();
      Int8ApplyEpilogue(epi, 0, m, n, acc.data(), n, nullptr, n);
      internal::SetInt8EpilogueForTesting("avx2");
      epi.out_u8 = u_v.data();
      Int8ApplyEpilogue(epi, 0, m, n, acc.data(), n, nullptr, n);
      internal::SetInt8EpilogueForTesting(nullptr);
      ASSERT_EQ(std::memcmp(u_s.data(), u_v.data(), u_s.size()), 0)
          << "n=" << n << " act=" << static_cast<int>(act);
      for (uint8_t v : u_s) ASSERT_LE(v, 127);
    }
  }
}

TEST_F(Int8Test, Int8MishConvWithFp32OutputAppliesMish) {
  // A quantized 1x1 mish conv whose consumer stays fp32 cannot fuse mish
  // into the requantize epilogue; the tail must still apply it
  // (FastMishInPlace). yolov4-thali layer 7 is such a conv once conv 10,
  // the only conv reading its domain (through route 8 and maxpool 9),
  // is left unarmed. THALI_NO_ARENA keeps layer 7's output readable
  // after the forward.
  ASSERT_EQ(setenv("THALI_NO_ARENA", "1", 1), 0);
  BuiltNetwork fp32 = BuildThali(0);
  BuiltNetwork int8 = BuildThali(1);
  ASSERT_EQ(unsetenv("THALI_NO_ARENA"), 0);
  const auto& conv7 = static_cast<const ConvLayer&>(int8.net->layer(7));
  ASSERT_EQ(conv7.options().ksize, 1);
  ASSERT_EQ(conv7.options().activation, Activation::kMish);
  ASSERT_EQ(std::string_view(int8.net->layer(10).kind()), "convolutional");

  Tensor input(int8.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ASSERT_GT(FoldAndCalibrate(*int8.net, input), 0);
  static_cast<ConvLayer&>(int8.net->layer(10)).ResetCalibration();
  THALI_CHECK_OK(int8.net->ReplanInference());
  const LayerPlan& lp7 = int8.net->exec_plan().layers[7];
  ASSERT_EQ(lp7.conv_algo, ConvAlgo::kQuantInt8Direct1x1);
  ASSERT_EQ(lp7.out_dtype, DType::kF32);
  EXPECT_EQ(conv7.EpilogueName(), "gemm(bias) mish");

  THALI_CHECK_OK(fp32.net->FoldBatchNorm());
  HeadOutputs(fp32);
  HeadOutputs(int8);
  const Tensor& want = fp32.net->layer(7).output();
  const Tensor& got = int8.net->layer(7).output();
  ASSERT_EQ(got.size(), want.size());
  double num = 0.0, den = 0.0;
  float lo = 0.0f;
  for (int64_t i = 0; i < got.size(); ++i) {
    const double d = static_cast<double>(got[i]) - want[i];
    num += d * d;
    den += static_cast<double>(want[i]) * want[i];
    lo = std::min(lo, got[i]);
  }
  // mish(x) >= -0.3089 everywhere; an unapplied activation leaves the
  // raw (much more negative) pre-activations behind.
  EXPECT_GE(lo, -0.31f);
  EXPECT_LT(std::sqrt(num / den), 0.15) << "relative L2 vs fp32";
}

TEST_F(Int8Test, CalibrationSurvivesRebatchAndMatchesBatchOne) {
  BuiltNetwork int8 = BuildThali(1);
  Tensor input(int8.net->input_shape());
  Rng irng(23);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ASSERT_GT(FoldAndCalibrate(*int8.net, input), 0);

  const std::vector<float> base = HeadOutputs(int8);

  // Batch 4 of identical items: every item must reproduce the batch-1
  // heads bitwise (per-item quantization, no cross-item interaction).
  THALI_CHECK_OK(int8.net->SetBatch(4));
  Tensor batched(int8.net->input_shape());
  const int64_t item = input.size();
  for (int64_t b = 0; b < 4; ++b) {
    std::memcpy(batched.data() + b * item, input.data(),
                static_cast<size_t>(item) * sizeof(float));
  }
  int8.net->Forward(batched, /*train=*/false);
  for (YoloLayer* head : int8.yolo_layers) {
    const Tensor& out = head->output();
    const int64_t per = out.size() / 4;
    for (int64_t b = 1; b < 4; ++b) {
      ASSERT_EQ(std::memcmp(out.data(), out.data() + b * per,
                            static_cast<size_t>(per) * sizeof(float)),
                0)
          << "batch item " << b;
    }
  }

  // ...and back to batch 1: bitwise identical to the first run.
  THALI_CHECK_OK(int8.net->SetBatch(1));
  const std::vector<float> again = HeadOutputs(int8);
  ASSERT_EQ(again.size(), base.size());
  EXPECT_EQ(
      std::memcmp(again.data(), base.data(), base.size() * sizeof(float)), 0);
}

TEST_F(Int8Test, CalibrationRoundTripsThroughFile) {
  BuiltNetwork a = BuildThali(1);
  Tensor input(a.net->input_shape());
  Rng irng(31);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  const int armed = FoldAndCalibrate(*a.net, input);
  ASSERT_GT(armed, 0);

  const std::string path = ::testing::TempDir() + "thali_int8_test.cal";
  THALI_CHECK_OK(SaveCalibration(*a.net, path));

  BuiltNetwork b = BuildThali(1);
  auto loaded = LoadCalibration(*b.net, path);
  THALI_CHECK_OK(loaded.status());
  EXPECT_EQ(*loaded, armed);
  for (int i = 0; i < a.net->num_layers(); ++i) {
    if (std::string_view(a.net->layer(i).kind()) != "convolutional") continue;
    const auto& ca = static_cast<const ConvLayer&>(a.net->layer(i));
    const auto& cb = static_cast<const ConvLayer&>(b.net->layer(i));
    ASSERT_EQ(ca.has_activation_range(), cb.has_activation_range()) << i;
    if (!ca.has_activation_range()) continue;
    EXPECT_EQ(ca.activation_range_min(), cb.activation_range_min()) << i;
    EXPECT_EQ(ca.activation_range_max(), cb.activation_range_max()) << i;
  }

  // A truncated file must fail loudly, not half-arm the network.
  const std::string bad = ::testing::TempDir() + "thali_int8_test_bad.cal";
  THALI_CHECK_OK(WriteStringToFile(bad, "THALICAL\x01"));
  BuiltNetwork c = BuildThali(1);
  EXPECT_FALSE(LoadCalibration(*c.net, bad).ok());
}

TEST_F(Int8Test, CalibrateInt8KeepsMapWithinOnePointOfFp32) {
  // Short transfer-training run, then the trained checkpoint evaluated
  // through the fp32 and the calibrated int8 inference stacks: the
  // acceptance bar is |mAP(int8) - mAP(fp32)| <= 1.0 point.
  SetMaxParallelism(4);
  DatasetSpec spec;
  spec.num_images = 16;
  spec.seed = 321;
  FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);

  YoloThaliOptions yo;
  yo.classes = 10;
  yo.batch = 2;
  yo.max_batches = 12;
  yo.burn_in = 3;
  TransferTrainer::Options topts;
  topts.cfg_text = YoloThaliCfg(yo);
  topts.log_every = 0;
  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK_OK(trainer.status());
  THALI_CHECK_OK(trainer->Train(ds, /*iterations=*/12));
  const std::string wpath = ::testing::TempDir() + "thali_int8_map.weights";
  THALI_CHECK_OK(trainer->SaveWeightsTo(wpath));

  auto build_eval = [&](int int8_mode) {
    internal::SetInt8ForTesting(int8_mode);
    Rng rng(7);
    auto built = BuildNetworkFromCfg(topts.cfg_text, /*batch_override=*/1,
                                     rng, ExecMode::kInference);
    internal::SetInt8ForTesting(-1);
    THALI_CHECK_OK(built.status());
    auto loaded = LoadWeights(*built->net, wpath);
    THALI_CHECK_OK(loaded.status());
    THALI_CHECK_GT(*loaded, 0);
    return std::move(built).value();
  };

  BuiltNetwork fp32 = build_eval(0);
  THALI_CHECK_OK(fp32.net->FoldBatchNorm());
  std::vector<DetectionHead*> fp32_heads(fp32.yolo_layers.begin(),
                                         fp32.yolo_layers.end());
  const float map_fp32 =
      EvaluateDetections(*fp32.net, fp32_heads, ds, ds.val_indices(), 10,
                         EvalOptions{})
          .map;

  BuiltNetwork int8 = build_eval(1);
  std::vector<DetectionHead*> int8_heads(int8.yolo_layers.begin(),
                                         int8.yolo_layers.end());
  Network& int8_net = *int8.net;
  Detector det(std::move(int8.net), int8_heads);
  Detector::Int8CalibrationOptions copts;
  copts.max_images = static_cast<int>(ds.train_indices().size());
  const int armed = det.CalibrateInt8(
      ds, std::span<const int>(ds.train_indices()), copts);
  ASSERT_GT(armed, 0);
  const float map_int8 =
      EvaluateDetections(int8_net, int8_heads, ds, ds.val_indices(), 10,
                         EvalOptions{})
          .map;

  EXPECT_LE(std::fabs(map_int8 - map_fp32), 0.01f)
      << "fp32 mAP " << map_fp32 << " vs int8 mAP " << map_int8;
}

}  // namespace
}  // namespace thali
