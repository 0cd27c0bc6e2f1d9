#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/rng.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace thali {
namespace {

TEST(Shape, BasicProperties) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.num_elements(), 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape({3, 4}));
  EXPECT_EQ(t.size(), 12);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillReshapeResize) {
  Tensor t(Shape({2, 6}));
  t.Fill(3.5f);
  EXPECT_EQ(t[11], 3.5f);
  t.Reshape(Shape({3, 4}));
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_EQ(t[0], 3.5f);  // storage preserved
  t.Resize(Shape({5}));
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t[0], 0.0f);  // re-zeroed on size change
}

TEST(Tensor, ResizeFromDefaultAllocatesSingleElement) {
  // Regression: a default Tensor has a rank-0 shape (element product 1)
  // but no storage; Resize to a 1-element shape must still allocate.
  Tensor t;
  t.Resize(Shape({1}));
  EXPECT_EQ(t.size(), 1);
  t[0] = 2.0f;
  EXPECT_EQ(t[0], 2.0f);
}

TEST(Tensor, At4MatchesLinearIndex) {
  Tensor t(Shape({2, 3, 4, 5}));
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  EXPECT_EQ(t.at4(1, 2, 3, 4), static_cast<float>(1 * 60 + 2 * 20 + 3 * 5 + 4));
}

// Reference triple-loop GEMM for validation.
void NaiveGemm(bool ta, bool tb, int m, int n, int k, float alpha,
               const float* a, int lda, const float* b, int ldb, float beta,
               float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        sum += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = alpha * static_cast<float>(sum) + beta * c[i * ldc + j];
    }
  }
}

// The ctest name of each case embeds a byte dump of its GemmCase, so
// the struct has no implicit padding: `pad` is zeroed explicitly, which
// keeps the names identical from build to build.
struct GemmCase {
  bool ta, tb;
  unsigned char pad[2];
  int m, n, k;
  float alpha, beta;
};
static_assert(sizeof(GemmCase) == 4 + 3 * sizeof(int) + 2 * sizeof(float));

GemmCase Case(bool ta, bool tb, int m, int n, int k, float alpha,
              float beta) {
  return GemmCase{ta, tb, {0, 0}, m, n, k, alpha, beta};
}

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaive) {
  const GemmCase gc = GetParam();
  Rng rng(31 + gc.m + gc.n * 10 + gc.k * 100);
  const int a_rows = gc.ta ? gc.k : gc.m;
  const int a_cols = gc.ta ? gc.m : gc.k;
  const int b_rows = gc.tb ? gc.n : gc.k;
  const int b_cols = gc.tb ? gc.k : gc.n;

  std::vector<float> a(static_cast<size_t>(a_rows) * a_cols);
  std::vector<float> b(static_cast<size_t>(b_rows) * b_cols);
  std::vector<float> c(static_cast<size_t>(gc.m) * gc.n);
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  for (auto& v : c) v = rng.NextGaussian();
  std::vector<float> expected = c;

  Gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), a_cols, b.data(),
       b_cols, gc.beta, c.data(), gc.n);
  NaiveGemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), a_cols,
            b.data(), b_cols, gc.beta, expected.data(), gc.n);

  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(Case(false, false, 1, 1, 1, 1.0f, 0.0f),
                      Case(false, false, 7, 9, 5, 1.0f, 0.0f),
                      Case(false, false, 16, 33, 64, 0.5f, 1.0f),
                      Case(false, false, 65, 130, 129, 1.0f, 0.0f),
                      Case(true, false, 8, 12, 6, 1.0f, 1.0f),
                      Case(true, false, 31, 17, 23, 2.0f, 0.0f),
                      Case(false, true, 9, 11, 13, 1.0f, 0.0f),
                      Case(false, true, 24, 48, 36, 1.0f, 0.5f),
                      Case(true, true, 5, 6, 7, 1.0f, 0.0f),
                      Case(false, false, 3, 128, 200, 1.0f, 2.0f)));

TEST(Gemm, ZeroSizedDimensionsAreNoops) {
  float c[4] = {1, 2, 3, 4};
  Gemm(false, false, 0, 2, 3, 1.0f, nullptr, 3, nullptr, 2, 0.0f, c, 2);
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, 0, nullptr, 2, 1.0f, c, 2);
  EXPECT_EQ(c[0], 1.0f);  // k=0 with beta=1 leaves C untouched
}

TEST(Im2Col, IdentityFor1x1) {
  // 1x1 kernel, stride 1, no pad: col matrix equals the image.
  const int c = 2, h = 3, w = 4;
  std::vector<float> im(static_cast<size_t>(c) * h * w);
  for (size_t i = 0; i < im.size(); ++i) im[i] = static_cast<float>(i);
  std::vector<float> col(im.size(), -1.0f);
  Im2Col(im.data(), c, h, w, 1, 1, 0, col.data());
  EXPECT_EQ(im, col);
}

TEST(Im2Col, KnownValues3x3) {
  // 1 channel, 3x3 image, 3x3 kernel, pad 1: center row of the col matrix
  // (kh=1,kw=1) must be the image itself; corner rows carry zero padding.
  std::vector<float> im = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(9 * 9);
  Im2Col(im.data(), 1, 3, 3, 3, 1, 1, col.data());
  // Row 4 = (kh=1, kw=1): identity.
  for (int i = 0; i < 9; ++i) EXPECT_EQ(col[4 * 9 + i], im[static_cast<size_t>(i)]);
  // Row 0 = (kh=0, kw=0): top-left tap. Output (0,0) reads im(-1,-1) = 0.
  EXPECT_EQ(col[0], 0.0f);
  // Output (2,2) of row 0 reads im(1,1) = 5.
  EXPECT_EQ(col[8], 5.0f);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <Col2Im(c), x> == <c, Im2Col(x)> for random tensors: the scatter-add
  // must be the exact transpose of the gather.
  Rng rng(5);
  const int c = 3, h = 7, w = 6, k = 3, stride = 2, pad = 1;
  const int out_h = static_cast<int>(ConvOutSize(h, k, stride, pad));
  const int out_w = static_cast<int>(ConvOutSize(w, k, stride, pad));
  const size_t im_size = static_cast<size_t>(c) * h * w;
  const size_t col_size = static_cast<size_t>(c) * k * k * out_h * out_w;

  std::vector<float> x(im_size), cvec(col_size);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto& v : cvec) v = rng.NextGaussian();

  std::vector<float> col_x(col_size, 0.0f);
  Im2Col(x.data(), c, h, w, k, stride, pad, col_x.data());
  std::vector<float> im_c(im_size, 0.0f);
  Col2Im(cvec.data(), c, h, w, k, stride, pad, im_c.data());

  double lhs = 0, rhs = 0;
  for (size_t i = 0; i < im_size; ++i) lhs += static_cast<double>(im_c[i]) * x[i];
  for (size_t i = 0; i < col_size; ++i) rhs += static_cast<double>(cvec[i]) * col_x[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Im2Col, ConvOutSize) {
  EXPECT_EQ(ConvOutSize(96, 3, 2, 1), 48);
  EXPECT_EQ(ConvOutSize(96, 3, 1, 1), 96);
  EXPECT_EQ(ConvOutSize(96, 1, 1, 0), 96);
  EXPECT_EQ(ConvOutSize(5, 3, 2, 0), 2);
}

TEST(Ops, AxpyScaleSums) {
  Tensor x(Shape({4}), {1, 2, 3, 4});
  Tensor y(Shape({4}), {10, 10, 10, 10});
  Axpy(2.0f, x, y);
  EXPECT_EQ(y[3], 18.0f);
  Scale(0.5f, y);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(Sum(x), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x), 2.5f);
  EXPECT_FLOAT_EQ(MinValue(x), 1.0f);
  EXPECT_FLOAT_EQ(MaxValue(x), 4.0f);
  EXPECT_FLOAT_EQ(L2Norm(Tensor(Shape({2}), {3, 4})), 5.0f);
}

TEST(Ops, MaxAbsDiff) {
  Tensor a(Shape({3}), {1, 2, 3});
  Tensor b(Shape({3}), {1, 2.5f, 2});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 1.0f);
}

TEST(Ops, SoftmaxNormalizesAndIsStable) {
  float x[3] = {1000.0f, 1001.0f, 1002.0f};  // would overflow naive exp
  float y[3];
  Softmax(x, 3, y);
  float sum = y[0] + y[1] + y[2];
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(y[2], y[1]);
  EXPECT_GT(y[1], y[0]);
}

TEST(Ops, SigmoidKnownValues) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(10.0f), 1.0f, 1e-4f);
  EXPECT_NEAR(Sigmoid(-10.0f), 0.0f, 1e-4f);
}

}  // namespace
}  // namespace thali
