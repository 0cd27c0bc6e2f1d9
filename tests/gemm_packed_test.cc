// Conformance tests for the packed GEMM driver (tensor/gemm.cc) against
// the unpacked reference kernels of the dispatched family
// (internal::GemmReference): by the determinism contract in
// gemm_microkernel.h the two must agree bitwise, for every transpose
// combination, adversarial shape and alpha/beta edge case.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <string_view>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "nn/activation.h"
#include "nn/conv_layer.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_pack.h"

namespace thali {
namespace {

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

// Restores dispatch and parallelism after every test.
class GemmPackedTest : public ::testing::Test {
 protected:
  void TearDown() override {
    internal::SetGemmKernelForTesting(nullptr);
    SetMaxParallelism(1);
  }
};

void ExpectPackedMatchesReference(bool ta, bool tb, int64_t m, int64_t n,
                                  int64_t k, float alpha, float beta) {
  const auto a = RandomVec((ta ? k * m : m * k) + (k == 0 ? 1 : 0), 11);
  const auto b = RandomVec((tb ? n * k : k * n) + (k == 0 ? 1 : 0), 22);
  const auto c0 = RandomVec(m * n, 33);
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;

  std::vector<float> c_packed = c0;
  Gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
       c_packed.data(), n);

  std::vector<float> c_ref = c0;
  internal::GemmReference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                          ldb, beta, c_ref.data(), n);

  EXPECT_EQ(
      std::memcmp(c_packed.data(), c_ref.data(), c_packed.size() * sizeof(float)),
      0)
      << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n << " k=" << k
      << " alpha=" << alpha << " beta=" << beta;
}

struct ShapeCase {
  int64_t m, n, k;
};

// Adversarial sizes: unit dims, tile edges (MR=6, NR=16) +/- 1, primes,
// and k straddling the KC=256 cache block.
constexpr ShapeCase kShapes[] = {
    {1, 1, 1},   {5, 17, 3},   {6, 16, 64},  {7, 15, 37},
    {12, 33, 1}, {37, 61, 67}, {1, 16, 259}, {61, 2, 2},
};

constexpr struct {
  float alpha, beta;
} kAlphaBeta[] = {
    {1.0f, 0.0f},  {1.0f, 1.0f},  {0.0f, 0.5f},
    {0.7f, -0.3f}, {2.0f, 0.5f},
};

TEST_F(GemmPackedTest, MatchesReferenceOnAllTransposesAndEdges) {
  for (const auto& s : kShapes) {
    for (const auto& ab : kAlphaBeta) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          ExpectPackedMatchesReference(ta, tb, s.m, s.n, s.k, ab.alpha,
                                       ab.beta);
        }
      }
    }
  }
}

TEST_F(GemmPackedTest, MatchesReferenceOnCacheBlockStraddlers) {
  // m straddles MC=120, n straddles NC=512, k straddles KC=256.
  ExpectPackedMatchesReference(false, false, 131, 531, 307, 1.0f, 0.0f);
  ExpectPackedMatchesReference(false, true, 121, 513, 259, 0.7f, 1.0f);
  ExpectPackedMatchesReference(true, false, 126, 520, 257, 1.0f, 0.5f);
}

TEST_F(GemmPackedTest, DegenerateAlphaZeroBetaOneLeavesCUntouched) {
  const auto a = RandomVec(6 * 8, 1);
  const auto b = RandomVec(8 * 10, 2);
  const auto c0 = RandomVec(6 * 10, 3);
  std::vector<float> c = c0;
  Gemm(false, false, 6, 10, 8, 0.0f, a.data(), 8, b.data(), 10, 1.0f,
       c.data(), 10);
  EXPECT_EQ(std::memcmp(c.data(), c0.data(), c.size() * sizeof(float)), 0);
}

TEST_F(GemmPackedTest, KZeroOnlyScalesByBeta) {
  const float dummy = 0.0f;
  const auto c0 = RandomVec(7 * 9, 4);
  std::vector<float> c = c0;
  Gemm(false, false, 7, 9, 0, 1.0f, &dummy, 1, &dummy, 9, 0.5f, c.data(), 9);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], c0[i] * 0.5f) << i;
  }
}

TEST_F(GemmPackedTest, PrepackedWithEpilogueMatchesSeparatePasses) {
  const int64_t m = 19, n = 333, k = 75;  // ragged on every tile boundary
  const auto a = RandomVec(m * k, 5);
  const auto b = RandomVec(k * n, 6);
  const auto bias = RandomVec(m, 7);

  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());

  for (const GemmActivation act :
       {GemmActivation::kNone, GemmActivation::kLeaky, GemmActivation::kRelu}) {
    GemmEpilogue epilogue;
    epilogue.bias = bias.data();
    epilogue.activation = act;
    std::vector<float> c_fused(static_cast<size_t>(m * n), 0.0f);
    GemmPrepacked(m, n, k, packed.data(), false, b.data(), n, 0.0f,
                  c_fused.data(), n, &epilogue);

    // Staged: plain GEMM, then the conv layer's bias and activation
    // passes, op for op.
    std::vector<float> c_staged(static_cast<size_t>(m * n), 0.0f);
    Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c_staged.data(), n);
    for (int64_t i = 0; i < m; ++i) {
      float* ci = c_staged.data() + i * n;
      for (int64_t j = 0; j < n; ++j) ci[j] += bias[i];
    }
    for (auto& x : c_staged) {
      if (act == GemmActivation::kLeaky) x = x > 0 ? x : 0.1f * x;
      if (act == GemmActivation::kRelu) x = x > 0 ? x : 0.0f;
    }
    EXPECT_EQ(std::memcmp(c_fused.data(), c_staged.data(),
                          c_fused.size() * sizeof(float)),
              0)
        << "activation " << static_cast<int>(act);
  }
}

// Distinct (m = filters, n = out_h*out_w, k = c*ks*ks) GEMM shapes of
// the yolov4-thali conv layers.
std::set<std::array<int64_t, 3>> ThaliConvGemmShapes() {
  Rng rng(1);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  std::set<std::array<int64_t, 3>> shapes;
  for (int i = 0; i < built->net->num_layers(); ++i) {
    const Layer& l = built->net->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& o = static_cast<const ConvLayer&>(l).options();
    shapes.insert({o.filters, l.output_shape().dim(2) * l.output_shape().dim(3),
                   l.input_shape().dim(1) * o.ksize * o.ksize});
  }
  return shapes;
}

// The conv layer's fused write-back against the one GEMM oracle: every
// epilogue GemmPrepacked offers, on every yolov4-thali conv shape, must
// equal GemmReference followed by the layer's separate bias and
// activation passes (ApplyActivation; FastMishInPlace for the fused
// plan's mish) byte for byte.
TEST_F(GemmPackedTest, PrepackedEpiloguesMatchReferenceOnThaliShapes) {
  const auto shapes = ThaliConvGemmShapes();
  // yolov4-thali spans 22 distinct conv geometries; the sweep must not
  // silently shrink if the cfg generator changes.
  ASSERT_EQ(shapes.size(), 22u);
  uint64_t seed = 40;
  for (const auto& [m, n, k] : shapes) {
    const auto a = RandomVec(m * k, seed++);
    const auto b = RandomVec(k * n, seed++);
    const auto bias = RandomVec(m, seed++);
    std::vector<float> packed(
        static_cast<size_t>(GemmPackedWeightFloats(m, k)));
    GemmPackWeights(a.data(), m, k, packed.data());
    std::vector<float> gemm(static_cast<size_t>(m * n));
    internal::GemmReference(false, false, m, n, k, 1.0f, a.data(), k,
                            b.data(), n, 0.0f, gemm.data(), n);
    for (int64_t i = 0; i < m; ++i) {
      float* row = gemm.data() + i * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[static_cast<size_t>(i)];
    }
    const struct {
      GemmActivation fused;
      Activation staged;
    } acts[] = {{GemmActivation::kNone, Activation::kLinear},
                {GemmActivation::kLeaky, Activation::kLeaky},
                {GemmActivation::kRelu, Activation::kRelu},
                {GemmActivation::kMish, Activation::kMish}};
    for (const auto& act : acts) {
      std::vector<float> want = gemm;
      if (act.fused == GemmActivation::kMish) {
        FastMishInPlace(want.data(), static_cast<int64_t>(want.size()));
      } else {
        ApplyActivation(act.staged, want.data(),
                        static_cast<int64_t>(want.size()));
      }
      GemmEpilogue epilogue;
      epilogue.bias = bias.data();
      epilogue.activation = act.fused;
      std::vector<float> got(static_cast<size_t>(m * n), -1.0f);
      GemmPrepacked(m, n, k, packed.data(), /*tb=*/false, b.data(), n, 0.0f,
                    got.data(), n, &epilogue);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << "m=" << m << " n=" << n << " k=" << k << " activation "
          << ActivationToString(act.staged);
    }
  }
}

TEST_F(GemmPackedTest, PrepackedMatchesPlainGemmAcrossThreadCounts) {
  const int64_t m = 32, n = 170, k = 288;
  const auto a = RandomVec(m * k, 8);
  const auto b = RandomVec(k * n, 9);
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());

  std::vector<float> base(static_cast<size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       base.data(), n);
  for (const int threads : {1, 2, 4}) {
    SetMaxParallelism(threads);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    GemmPrepacked(m, n, k, packed.data(), false, b.data(), n, 0.0f, c.data(),
                  n);
    EXPECT_EQ(std::memcmp(c.data(), base.data(), c.size() * sizeof(float)), 0)
        << threads << " threads";
  }
}

TEST_F(GemmPackedTest, DispatchPicksAvx2IffCpuSupportsIt) {
  const bool want_avx2 =
      Avx2GemmKernel() != nullptr && CpuInfo().avx2 && CpuInfo().fma;
  EXPECT_STREQ(GemmKernelName(),
               want_avx2 ? "avx2-fma-6x16" : "scalar-6x16");
  EXPECT_EQ(SelectGemmKernel().fused, want_avx2);
}

TEST_F(GemmPackedTest, ForcedScalarFamilyIsSelfConsistent) {
  internal::SetGemmKernelForTesting("scalar");
  EXPECT_STREQ(GemmKernelName(), "scalar-6x16");
  ExpectPackedMatchesReference(false, false, 23, 45, 130, 1.0f, 0.0f);
  ExpectPackedMatchesReference(true, true, 17, 29, 31, 0.7f, 1.0f);
  internal::SetGemmKernelForTesting(nullptr);
}

TEST_F(GemmPackedTest, PackedWeightLayoutRoundTrips) {
  // Spot-check the blob layout contract: block pc at pc*padded_m, tile t
  // at t*MR*kcb inside it, element (p, r) at p*MR + r.
  const int64_t m = 8, k = 300;  // 2 row tiles, 2 KC blocks
  const auto a = RandomVec(m * k, 15);
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());
  const int64_t padded_m = GemmPackedRowTiles(m) * kGemmMR;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const int64_t pc = (p / kGemmKC) * kGemmKC;
      const int64_t kcb = std::min(kGemmKC, k - pc);
      const int64_t t = i / kGemmMR;
      const float got = packed[static_cast<size_t>(
          pc * padded_m + t * kGemmMR * kcb + (p - pc) * kGemmMR +
          (i % kGemmMR))];
      ASSERT_EQ(got, a[static_cast<size_t>(i * k + p)])
          << "i=" << i << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace thali
