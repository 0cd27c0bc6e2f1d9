// Tests for the thread-pool parallelism substrate (base/thread_pool) and
// its determinism contract: every parallelized kernel must produce
// bitwise identical results at any THALI_NUM_THREADS, 1 included.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/trainer.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"

namespace thali {
namespace {

// Every test leaves the global pool at parallelism 4 or restores 1; use a
// fixture so a failing test cannot leak an unexpected parallelism into
// the rest of the suite.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMaxParallelism(1);
    internal::SetFusionForTesting(-1);
    internal::SetInt8ForTesting(-1);
    internal::SetInt8GemmKernelForTesting(nullptr);
  }
};

TEST_F(ParallelTest, ThreadPoolStartupShutdownRunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&count, &done] {
        count.fetch_add(1);
        done.fetch_add(1);
      });
    }
    // Destructor must drain the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  int x = 0;
  pool.Schedule([&x] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST_F(ParallelTest, EmptyAndReversedRangesNeverInvoke) {
  SetMaxParallelism(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); });
  ParallelFor(8, 3, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  SetMaxParallelism(4);
  for (int64_t range : {1, 2, 3, 4, 5, 17, 100}) {
    for (int64_t grain : {1, 2, 7, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(range));
      for (auto& h : hits) h.store(0);
      ParallelFor(0, range, grain, [&](int64_t b, int64_t e, int tid) {
        EXPECT_GE(tid, 0);
        EXPECT_LT(tid, MaxParallelism());
        EXPECT_LE(b, e);
        for (int64_t i = b; i < e; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < range; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "range=" << range << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST_F(ParallelTest, RangeSmallerThanThreadsUsesDistinctTids) {
  SetMaxParallelism(8);
  std::vector<std::atomic<int>> tid_hits(8);
  for (auto& h : tid_hits) h.store(0);
  ParallelFor(0, 3, 1, [&](int64_t b, int64_t e, int tid) {
    EXPECT_EQ(e - b, 1);  // 3 indices over >= 3 strands -> singleton chunks
    tid_hits[static_cast<size_t>(tid)].fetch_add(1);
  });
  EXPECT_EQ(tid_hits[0].load(), 1);
  EXPECT_EQ(tid_hits[1].load(), 1);
  EXPECT_EQ(tid_hits[2].load(), 1);
}

TEST_F(ParallelTest, GrainLargerThanRangeRunsInline) {
  SetMaxParallelism(4);
  int calls = 0;  // no atomic needed: must run on the calling thread only
  ParallelFor(0, 10, 64, [&](int64_t b, int64_t e, int tid) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 10);
    EXPECT_EQ(tid, 0);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, BoundedStrandsRespectCap) {
  SetMaxParallelism(8);
  ParallelForBounded(0, 100, 1, 2, [&](int64_t, int64_t, int tid) {
    EXPECT_LT(tid, 2);
  });
}

TEST_F(ParallelTest, ExceptionPropagatesFromWorkerChunk) {
  SetMaxParallelism(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t b, int64_t e, int) {
                    // Index 99 lives in the last chunk, executed by a
                    // worker (the caller runs chunk 0).
                    for (int64_t i = b; i < e; ++i) {
                      if (i == 99) throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);
}

TEST_F(ParallelTest, ExceptionPropagatesFromCallerChunk) {
  SetMaxParallelism(4);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](int64_t b, int64_t, int) {
                             if (b == 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndCovers) {
  SetMaxParallelism(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 8, 1, [&](int64_t b0, int64_t e0, int) {
    for (int64_t i = b0; i < e0; ++i) {
      ParallelFor(0, 8, 1, [&](int64_t b1, int64_t e1, int tid) {
        EXPECT_EQ(tid, 0);  // nested regions must not re-parallelize
        for (int64_t j = b1; j < e1; ++j) {
          hits[static_cast<size_t>(i * 8 + j)].fetch_add(1);
        }
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Determinism: threaded kernels must be bitwise identical to 1-thread.

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

TEST_F(ParallelTest, GemmBitwiseIdenticalAcrossThreadCounts) {
  // Odd sizes straddle the register-block boundaries.
  const int64_t m = 67, n = 129, kk = 65;
  const auto a = RandomVec(m * kk, 1), b = RandomVec(kk * n, 2);
  const auto at = RandomVec(kk * m, 3), bt = RandomVec(n * kk, 4);
  const auto c0 = RandomVec(m * n, 5);

  struct Case {
    bool ta, tb;
    const std::vector<float>*pa, *pb;
    int64_t lda, ldb;
    float alpha, beta;
  };
  const Case cases[] = {
      {false, false, &a, &b, kk, n, 1.0f, 0.0f},
      {false, false, &a, &b, kk, n, 0.7f, 1.0f},
      {true, false, &at, &b, m, n, 1.0f, 0.5f},
      {false, true, &a, &bt, kk, kk, 1.0f, 1.0f},
      {true, true, &at, &bt, m, kk, 0.3f, 0.0f},
  };
  for (const Case& cs : cases) {
    std::vector<float> c1 = c0, c4 = c0;
    SetMaxParallelism(1);
    Gemm(cs.ta, cs.tb, m, n, kk, cs.alpha, cs.pa->data(), cs.lda,
         cs.pb->data(), cs.ldb, cs.beta, c1.data(), n);
    SetMaxParallelism(4);
    Gemm(cs.ta, cs.tb, m, n, kk, cs.alpha, cs.pa->data(), cs.lda,
         cs.pb->data(), cs.ldb, cs.beta, c4.data(), n);
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0)
        << "ta=" << cs.ta << " tb=" << cs.tb;
  }
}

TEST_F(ParallelTest, PackedGemmBitwiseIdenticalAcrossThreadsAndPaths) {
  // Sizes straddle every cache block (MC=120, NC=512, KC=256). The packed
  // driver at any thread count must match the sequential unpacked oracle
  // bitwise.
  const int64_t m = 131, n = 531, kk = 307;
  const auto a = RandomVec(m * kk, 21), b = RandomVec(kk * n, 22);
  const auto c0 = RandomVec(m * n, 23);

  std::vector<float> c_ref = c0;
  internal::GemmReference(false, false, m, n, kk, 1.0f, a.data(), kk,
                          b.data(), n, 0.5f, c_ref.data(), n);

  for (const int threads : {1, 2, 4}) {
    SetMaxParallelism(threads);
    std::vector<float> c = c0;
    Gemm(false, false, m, n, kk, 1.0f, a.data(), kk, b.data(), n, 0.5f,
         c.data(), n);
    EXPECT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

std::vector<float> HeadOutputs(const BuiltNetwork& built) {
  std::vector<float> flat;
  for (YoloLayer* head : built.yolo_layers) {
    const Tensor& out = head->output();
    flat.insert(flat.end(), out.data(), out.data() + out.size());
  }
  return flat;
}

Tensor ThaliInput(const Network& net) {
  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  return input;
}

TEST_F(ParallelTest, ThaliInferenceBitwiseIdenticalAcrossThreadsAndPacking) {
  // Unfolded yolov4-thali (batch norm kept as its own pass) under the
  // default plan. Weights are always prepacked, so the legs left are the
  // thread counts: every one must match the single-thread forward.
  const auto forward = [](int threads) {
    SetMaxParallelism(threads);
    Rng rng(4242);
    auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                     /*batch_override=*/1, rng,
                                     ExecMode::kInference);
    THALI_CHECK_OK(built.status());
    built->net->Forward(ThaliInput(*built->net), /*train=*/false);
    return HeadOutputs(*built);
  };
  const std::vector<float> base = forward(1);
  ASSERT_FALSE(base.empty());
  for (const int threads : {2, 4}) {
    const std::vector<float> got = forward(threads);
    ASSERT_EQ(got.size(), base.size());
    EXPECT_EQ(std::memcmp(got.data(), base.data(), got.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

// Batch-norm-folded yolov4-thali under the reference plan (THALI_NO_FUSE)
// in the given execution mode; returns the detection-head activations
// of one forward, flattened for bitwise comparison.
std::vector<float> FoldedReferencePlanForward(ExecMode mode, int threads) {
  SetMaxParallelism(threads);
  internal::SetFusionForTesting(0);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng, mode);
  internal::SetFusionForTesting(-1);
  THALI_CHECK_OK(built.status());
  THALI_CHECK_OK(built->net->FoldBatchNorm());
  built->net->Forward(ThaliInput(*built->net), /*train=*/false);
  return HeadOutputs(*built);
}

TEST_F(ParallelTest, FoldedThaliInferenceBitwiseIdenticalWithFusedEpilogue) {
  // With batch norm folded, every inference conv of the reference plan
  // fuses bias + activation into the GEMM write-back. The seed semantics
  // — a training network's forward: GEMM, then separate bias and
  // activation passes — must agree bitwise at every thread count.
  const std::vector<float> staged =
      FoldedReferencePlanForward(ExecMode::kTraining, 1);
  ASSERT_FALSE(staged.empty());
  for (const int threads : {1, 4}) {
    const std::vector<float> fused =
        FoldedReferencePlanForward(ExecMode::kInference, threads);
    ASSERT_EQ(fused.size(), staged.size());
    EXPECT_EQ(
        std::memcmp(fused.data(), staged.data(), fused.size() * sizeof(float)),
        0)
        << "threads=" << threads;
  }
}

// Full yolov4-thali inference as deployed: int8 and fusion latched as
// given, batch norm folded unless `fold` is false (folded, every conv
// resolves its fused epilogue); every int8 candidate min/max-calibrated
// on the test input, then a replan arms them and the quantize-once
// chains. Forwards through a SetBatch(1 -> 4 -> 1) cycle with the given
// int8 kernel family forced (nullptr: dispatch default) and returns the
// final batch-1 head activations flattened for bitwise comparison.
std::vector<float> ThaliForward(int threads, bool int8, bool fuse,
                                const char* kernel = nullptr,
                                bool fold = true) {
  SetMaxParallelism(threads);
  internal::SetInt8ForTesting(int8 ? 1 : 0);
  internal::SetFusionForTesting(fuse ? -1 : 0);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  internal::SetFusionForTesting(-1);
  internal::SetInt8ForTesting(-1);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  if (fold) THALI_CHECK_OK(net.FoldBatchNorm());
  const Tensor input = ThaliInput(net);

  net.set_calib_phase(CalibPhase::kRange);
  Tensor calib = input;
  net.Forward(calib, /*train=*/false);
  net.set_calib_phase(CalibPhase::kOff);
  for (int i = 0; i < net.num_layers(); ++i) {
    if (net.layer(i).plan().int8_candidate) {
      static_cast<ConvLayer&>(net.layer(i)).FinalizeCalibration(100.0);
    }
  }
  // Resolves the candidates to int8 and picks up the quantize-once
  // chains (u8 edges, int8 1x1, fused mish requantize) so the matrix
  // exercises the chained forward, not just per-layer quantization.
  THALI_CHECK_OK(net.ReplanInference());

  internal::SetInt8GemmKernelForTesting(kernel);
  Tensor first = input;
  net.Forward(first, /*train=*/false);
  THALI_CHECK_OK(net.SetBatch(4));
  Tensor batched(net.input_shape());
  for (int64_t b = 0; b < 4; ++b) {
    std::copy(input.data(), input.data() + input.size(),
              batched.data() + b * input.size());
  }
  net.Forward(batched, /*train=*/false);
  THALI_CHECK_OK(net.SetBatch(1));
  Tensor again = input;
  net.Forward(again, /*train=*/false);
  internal::SetInt8GemmKernelForTesting(nullptr);
  return HeadOutputs(*built);
}

// The determinism matrix: threads {1, 2, 4} x {fp32, int8} x {fused plan,
// THALI_NO_FUSE reference plan}. Every cell must reproduce the 1-thread
// run of its configuration bit for bit; fp32 cells check the network
// with and without batch norm folded (int8 only runs folded).
class ThaliDeterminismTest
    : public ParallelTest,
      public ::testing::WithParamInterface<std::tuple<int, bool, bool>> {};

TEST_P(ThaliDeterminismTest, BitwiseIdenticalToOneThread) {
  const auto [threads, int8, fuse] = GetParam();
  for (const bool fold : {true, false}) {
    if (int8 && !fold) continue;
    const std::vector<float> base = ThaliForward(1, int8, fuse, nullptr, fold);
    ASSERT_FALSE(base.empty());
    const std::vector<float> got =
        ThaliForward(threads, int8, fuse, nullptr, fold);
    ASSERT_EQ(got.size(), base.size());
    EXPECT_EQ(
        std::memcmp(got.data(), base.data(), got.size() * sizeof(float)), 0)
        << "fold=" << fold;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ThaliDeterminismTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_int8" : "_fp32") +
             (std::get<2>(info.param) ? "_fused" : "_nofuse");
    });

TEST_F(ParallelTest, Int8InferenceBitwiseIdenticalAcrossThreadsAndKernels) {
  // The quantized forward must be bitwise stable across thread counts,
  // kernel families, and batch re-planning — exact integer accumulation
  // plus the shared scalar requantize epilogue make this a hard
  // equality, unlike the fp32 Winograd tolerance.
  const std::vector<float> base = ThaliForward(1, true, true, "scalar");
  ASSERT_FALSE(base.empty());
  for (const char* kernel : {"scalar", "avx2"}) {
    for (const int threads : {1, 2, 4}) {
      if (std::string_view(kernel) == "scalar" && threads == 1) continue;
      const std::vector<float> got = ThaliForward(threads, true, true, kernel);
      ASSERT_EQ(got.size(), base.size());
      EXPECT_EQ(
          std::memcmp(got.data(), base.data(), got.size() * sizeof(float)), 0)
          << "kernel=" << kernel << " threads=" << threads;
    }
  }
}

TEST_F(ParallelTest, Int8UnderNoFuseIsBitwiseFp32) {
  // THALI_NO_FUSE disables the whole fused plan, so THALI_INT8 must
  // become a no-op: identical bits to an int8-off no-fuse run.
  const std::vector<float> fp32 = ThaliForward(4, false, false, "avx2");
  const std::vector<float> int8 = ThaliForward(4, true, false, "avx2");
  ASSERT_EQ(int8.size(), fp32.size());
  ASSERT_FALSE(fp32.empty());
  EXPECT_EQ(
      std::memcmp(int8.data(), fp32.data(), int8.size() * sizeof(float)), 0);
}

// Conformance sweep over every conv shape in yolov4-thali: the fused
// plan (CNHW layout, direct 1x1, Winograd 3x3, fast mish) must land
// within the documented 1e-4 + 1e-3*|ref| envelope of the reference
// im2col plan at *every conv layer's output*, not just the heads — so a
// drifting kernel is pinned to its layer, and every one of the model's
// distinct (C,F,k,s,HxW) conv geometries gets exercised. Batch 1, where
// CNHW and NCHW coincide bitwise, so outputs compare element for
// element without a gather. THALI_NO_ARENA keeps every layer's output
// in its own buffer — under the arena, early outputs are clobbered by
// later layers before the post-forward comparison could read them.
TEST_F(ParallelTest, FusedConvSweepMatchesReferencePlanPerLayer) {
  SetMaxParallelism(4);
  ASSERT_EQ(setenv("THALI_NO_ARENA", "1", 1), 0);
  auto build = [](int fuse) {
    internal::SetFusionForTesting(fuse);
    Rng rng(4242);
    auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                     /*batch_override=*/1, rng,
                                     ExecMode::kInference);
    internal::SetFusionForTesting(-1);
    THALI_CHECK_OK(built.status());
    return std::move(built).value();
  };
  BuiltNetwork ref = build(0);
  BuiltNetwork fused = build(1);
  ASSERT_EQ(unsetenv("THALI_NO_ARENA"), 0);
  ASSERT_FALSE(ref.net->exec_plan().fused);
  ASSERT_TRUE(fused.net->exec_plan().fused);
  ASSERT_FALSE(fused.net->arena_plan().enabled);

  Tensor input(ref.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ref.net->Forward(input, /*train=*/false);
  Tensor input2 = input;  // fused net must not depend on shared storage
  fused.net->Forward(input2, /*train=*/false);

  std::set<std::string> shapes;
  for (int li = 0; li < ref.net->num_layers(); ++li) {
    if (std::string_view(ref.net->layer(li).kind()) != "convolutional") {
      continue;
    }
    const auto& conv = static_cast<const ConvLayer&>(ref.net->layer(li));
    const ConvLayer::Options& o = conv.options();
    const Shape& in = conv.input_shape();
    shapes.insert(std::to_string(in.dim(1)) + ">" +
                  std::to_string(o.filters) + "k" + std::to_string(o.ksize) +
                  "s" + std::to_string(o.stride) + "@" +
                  std::to_string(in.dim(2)) + "x" + std::to_string(in.dim(3)));
    const Tensor& a = ref.net->layer(li).output();
    const Tensor& b = fused.net->layer(li).output();
    ASSERT_EQ(a.size(), b.size()) << "layer " << li;
    for (int64_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a.data()[i], b.data()[i],
                  1e-4f + 1e-3f * std::abs(a.data()[i]))
          << "conv layer " << li << " ("
          << ConvAlgoName(
                 fused.net->exec_plan().layers[static_cast<size_t>(li)]
                     .conv_algo)
          << ") at " << i;
    }
  }
  // yolov4-thali spans 22 distinct conv geometries; the sweep must not
  // silently shrink if the cfg generator changes.
  EXPECT_EQ(shapes.size(), 22u);
}

// One forward(train) + seeded backward on a fresh conv net; returns
// (output, weight grads, bias grads, input-adjacent delta... ) flattened
// for bitwise comparison.
std::vector<float> ConvRoundTrip(const ConvLayer::Options& copts, int batch,
                                 int in_c, int hw) {
  Network net(hw, hw, in_c, batch);
  net.Add(std::make_unique<ConvLayer>(ConvLayer::Options{copts}));
  net.Add(std::make_unique<ConvLayer>(ConvLayer::Options{copts}));
  THALI_CHECK_OK(net.Finalize());
  Rng wrng(99);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(wrng);
  static_cast<ConvLayer&>(net.layer(1)).InitWeights(wrng);

  Tensor input(net.input_shape());
  Rng irng(7);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();

  net.ZeroDeltas();
  net.ZeroGrads();
  const Tensor& out = net.Forward(input, /*train=*/true);
  Tensor& last_delta = net.layer(1).delta();
  for (int64_t i = 0; i < last_delta.size(); ++i) {
    last_delta[i] = 0.01f * static_cast<float>(i % 13) - 0.06f;
  }
  net.Backward(input);

  std::vector<float> flat(out.data(), out.data() + out.size());
  for (int li = 0; li < net.num_layers(); ++li) {
    for (const Param& p : net.layer(li).Params()) {
      flat.insert(flat.end(), p.grad->data(), p.grad->data() + p.grad->size());
    }
    const Tensor& d = net.layer(li).delta();
    flat.insert(flat.end(), d.data(), d.data() + d.size());
  }
  return flat;
}

TEST_F(ParallelTest, ConvForwardBackwardBitwiseIdenticalAcrossThreadCounts) {
  ConvLayer::Options bn_conv;
  bn_conv.filters = 6;
  bn_conv.ksize = 3;
  bn_conv.stride = 1;
  bn_conv.pad = 1;
  bn_conv.batch_normalize = true;
  bn_conv.activation = Activation::kMish;

  ConvLayer::Options one_by_one;
  one_by_one.filters = 5;
  one_by_one.ksize = 1;
  one_by_one.stride = 1;
  one_by_one.pad = 0;
  one_by_one.batch_normalize = false;
  one_by_one.activation = Activation::kLeaky;

  for (const auto& copts : {bn_conv, one_by_one}) {
    SetMaxParallelism(1);
    const std::vector<float> r1 = ConvRoundTrip(copts, 3, 4, 13);
    SetMaxParallelism(4);
    const std::vector<float> r4 = ConvRoundTrip(copts, 3, 4, 13);
    ASSERT_EQ(r1.size(), r4.size());
    EXPECT_EQ(std::memcmp(r1.data(), r4.data(), r1.size() * sizeof(float)), 0)
        << "ksize=" << copts.ksize;
  }
}

struct TrainRun {
  std::vector<double> losses;
  float map = 0.0f;
  std::vector<ImageEval> evals;
};

TrainRun RunTinyTraining(int parallelism) {
  SetMaxParallelism(parallelism);

  DatasetSpec spec;
  spec.num_images = 10;
  spec.seed = 321;
  FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);

  YoloThaliOptions yo;
  yo.classes = 10;
  yo.batch = 2;
  yo.max_batches = 3;
  yo.burn_in = 2;
  yo.mosaic = true;  // exercise the parallel mosaic path
  TransferTrainer::Options topts;
  topts.cfg_text = YoloThaliCfg(yo);
  topts.log_every = 0;

  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK_OK(trainer.status());
  TrainRun run;
  THALI_CHECK_OK(trainer->Train(ds, /*iterations=*/3, /*checkpoint_every=*/1,
                                [&](int) {
                                  run.losses.push_back(
                                      trainer->last_loss().total);
                                }));
  run.map = trainer->Evaluate(ds, ds.val_indices()).map;
  run.evals = CollectImageEvals(trainer->network(), trainer->heads(), ds,
                                ds.val_indices(), 0.005f, 0.45f);
  return run;
}

TEST_F(ParallelTest, ThreeIterationTrainingBitwiseIdenticalAcrossThreadCounts) {
  const TrainRun r1 = RunTinyTraining(1);
  const TrainRun r4 = RunTinyTraining(4);

  ASSERT_EQ(r1.losses.size(), 3u);
  ASSERT_EQ(r4.losses.size(), 3u);
  for (size_t i = 0; i < r1.losses.size(); ++i) {
    EXPECT_EQ(r1.losses[i], r4.losses[i]) << "iteration " << i + 1;
  }
  EXPECT_EQ(r1.map, r4.map);

  ASSERT_EQ(r1.evals.size(), r4.evals.size());
  for (size_t i = 0; i < r1.evals.size(); ++i) {
    const auto& d1 = r1.evals[i].detections;
    const auto& d4 = r4.evals[i].detections;
    ASSERT_EQ(d1.size(), d4.size()) << "image " << i;
    for (size_t j = 0; j < d1.size(); ++j) {
      EXPECT_EQ(d1[j].class_id, d4[j].class_id);
      EXPECT_EQ(d1[j].confidence, d4[j].confidence);
      EXPECT_EQ(d1[j].box.x, d4[j].box.x);
      EXPECT_EQ(d1[j].box.y, d4[j].box.y);
      EXPECT_EQ(d1[j].box.w, d4[j].box.w);
      EXPECT_EQ(d1[j].box.h, d4[j].box.h);
    }
  }
}

TEST_F(ParallelTest, DatasetGenerationBitwiseIdenticalAcrossThreadCounts) {
  DatasetSpec spec;
  spec.num_images = 14;
  spec.seed = 555;
  SetMaxParallelism(1);
  FoodDataset a = FoodDataset::Generate(IndianFood10(), spec);
  SetMaxParallelism(4);
  FoodDataset b = FoodDataset::Generate(IndianFood10(), spec);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.item(i).truths.size(), b.item(i).truths.size()) << i;
    ASSERT_EQ(a.item(i).image.size(), b.item(i).image.size());
    EXPECT_EQ(std::memcmp(a.item(i).image.data(), b.item(i).image.data(),
                          static_cast<size_t>(a.item(i).image.size()) *
                              sizeof(float)),
              0)
        << "image " << i;
  }
}

}  // namespace
}  // namespace thali
