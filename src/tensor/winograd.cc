#include "tensor/winograd.h"

#include <algorithm>

#include "base/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/gemm_pack.h"

namespace thali {

namespace {

// Transform work below this many elements per chunk stays inline.
constexpr int64_t kWinoGrainElems = int64_t{1} << 12;

// B^T (4x4) butterfly applied to a length-4 vector:
//   y0 = x0 - x2,  y1 = x1 + x2,  y2 = x2 - x1,  y3 = x1 - x3.
// A^T (2x4):
//   y0 = x0 + x1 + x2,  y1 = x1 - x2 - x3.
// G (4x3):
//   y0 = x0,  y1 = (x0+x1+x2)/2,  y2 = (x0-x1+x2)/2,  y3 = x2.

inline int64_t TilesAlong(int64_t extent) { return (extent + 1) / 2; }

}  // namespace

int64_t WinogradWeightFloats(int64_t filters, int64_t channels) {
  return 16 * filters * channels;
}

int64_t WinogradPackedWeightFloats(int64_t filters, int64_t channels) {
  return 16 * GemmPackedWeightFloats(filters, channels);
}

void WinogradTransformWeights(const float* w, int64_t filters,
                              int64_t channels, float* u) {
  const int64_t fc = filters * channels;
  for (int64_t f = 0; f < filters; ++f) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* g = w + (f * channels + c) * 9;
      // tmp = G * g  (4x3), columns first.
      float tmp[4][3];
      for (int j = 0; j < 3; ++j) {
        const float g0 = g[j], g1 = g[3 + j], g2 = g[6 + j];
        tmp[0][j] = g0;
        tmp[1][j] = 0.5f * (g0 + g1 + g2);
        tmp[2][j] = 0.5f * (g0 - g1 + g2);
        tmp[3][j] = g2;
      }
      // U = tmp * G^T (4x4), rows.
      for (int i = 0; i < 4; ++i) {
        const float t0 = tmp[i][0], t1 = tmp[i][1], t2 = tmp[i][2];
        const float r0 = t0;
        const float r1 = 0.5f * (t0 + t1 + t2);
        const float r2 = 0.5f * (t0 - t1 + t2);
        const float r3 = t2;
        u[(i * 4 + 0) * fc + f * channels + c] = r0;
        u[(i * 4 + 1) * fc + f * channels + c] = r1;
        u[(i * 4 + 2) * fc + f * channels + c] = r2;
        u[(i * 4 + 3) * fc + f * channels + c] = r3;
      }
    }
  }
}

void WinogradPackWeights(const float* u, int64_t filters, int64_t channels,
                         float* packed) {
  const int64_t stride = GemmPackedWeightFloats(filters, channels);
  for (int k = 0; k < 16; ++k) {
    GemmPackWeights(u + k * filters * channels, filters, channels,
                    packed + k * stride);
  }
}

int64_t WinogradWorkspaceFloats(int64_t channels, int64_t filters,
                                int64_t height, int64_t width) {
  const int64_t tiles = TilesAlong(height) * TilesAlong(width);
  return 16 * (channels + filters) * tiles;
}

void WinogradForward(const float* in, int64_t in_chan_stride, int64_t channels,
                     int64_t height, int64_t width, const float* u_packed,
                     int64_t filters, float* out, int64_t out_chan_stride,
                     float* ws) {
  const int64_t th = TilesAlong(height);
  const int64_t tw = TilesAlong(width);
  const int64_t tiles = th * tw;
  float* v = ws;                          // 16 x C x tiles
  float* m = ws + 16 * channels * tiles;  // 16 x F x tiles

  // 1. Input transform. Channels are independent; each channel's tiles
  // run in a fixed sequential order inside its chunk.
  const int64_t c_grain =
      std::max<int64_t>(1, kWinoGrainElems / std::max<int64_t>(1, tiles));
  ParallelFor(0, channels, c_grain, [&](int64_t c0, int64_t c1, int) {
    float d[4][4];
    for (int64_t c = c0; c < c1; ++c) {
      const float* plane = in + c * in_chan_stride;
      float* vc = v + c * tiles;
      for (int64_t ty = 0; ty < th; ++ty) {
        const int64_t y0 = 2 * ty - 1;  // pad = 1
        const bool y_interior = y0 >= 0 && y0 + 3 < height;
        for (int64_t tx = 0; tx < tw; ++tx) {
          const int64_t x0 = 2 * tx - 1;
          if (y_interior && x0 >= 0 && x0 + 3 < width) {
            const float* p = plane + y0 * width + x0;
            for (int r = 0; r < 4; ++r, p += width) {
              d[r][0] = p[0];
              d[r][1] = p[1];
              d[r][2] = p[2];
              d[r][3] = p[3];
            }
          } else {
            for (int r = 0; r < 4; ++r) {
              const int64_t y = y0 + r;
              for (int s = 0; s < 4; ++s) {
                const int64_t x = x0 + s;
                d[r][s] = (y >= 0 && y < height && x >= 0 && x < width)
                              ? plane[y * width + x]
                              : 0.0f;
              }
            }
          }
          // B^T d (columns), then (B^T d) B (rows).
          float t[4][4];
          for (int j = 0; j < 4; ++j) {
            t[0][j] = d[0][j] - d[2][j];
            t[1][j] = d[1][j] + d[2][j];
            t[2][j] = d[2][j] - d[1][j];
            t[3][j] = d[1][j] - d[3][j];
          }
          const int64_t tile = ty * tw + tx;
          float* vdst = vc + tile;
          const int64_t kstride = channels * tiles;
          for (int i = 0; i < 4; ++i) {
            const float w0 = t[i][0] - t[i][2];
            const float w1 = t[i][1] + t[i][2];
            const float w2 = t[i][2] - t[i][1];
            const float w3 = t[i][1] - t[i][3];
            vdst[(i * 4 + 0) * kstride] = w0;
            vdst[(i * 4 + 1) * kstride] = w1;
            vdst[(i * 4 + 2) * kstride] = w2;
            vdst[(i * 4 + 3) * kstride] = w3;
          }
        }
      }
    }
  });

  // 2. Sixteen independent GEMMs M_k = U_k * V_k. Parallelism comes
  // from the k loop (each GEMM runs inline inside its chunk; nested
  // ParallelFor never re-parallelizes), which keeps per-GEMM dispatch
  // overhead off the critical path for yolo-sized problems. Per-element
  // results are chunking-independent by the GEMM determinism contract.
  const int64_t packed_stride = GemmPackedWeightFloats(filters, channels);
  ParallelFor(0, 16, 1, [&](int64_t k0, int64_t k1, int) {
    for (int64_t k = k0; k < k1; ++k) {
      const float* vk = v + k * channels * tiles;
      float* mk = m + k * filters * tiles;
      GemmPrepacked(filters, tiles, channels, u_packed + k * packed_stride,
                    /*tb=*/false, vk, tiles, 0.0f, mk, tiles);
    }
  });

  // 3. Output transform. Filters are independent.
  const int64_t f_grain =
      std::max<int64_t>(1, kWinoGrainElems / std::max<int64_t>(1, tiles));
  ParallelFor(0, filters, f_grain, [&](int64_t f0, int64_t f1, int) {
    for (int64_t f = f0; f < f1; ++f) {
      const float* mf = m + f * tiles;
      const int64_t kstride = filters * tiles;
      float* plane = out + f * out_chan_stride;
      for (int64_t ty = 0; ty < th; ++ty) {
        const int64_t oy = 2 * ty;
        for (int64_t tx = 0; tx < tw; ++tx) {
          const int64_t tile = ty * tw + tx;
          const float* msrc = mf + tile;
          float mm[16];
          for (int k = 0; k < 16; ++k) mm[k] = msrc[k * kstride];
          // A^T M (columns: 2x4), then (A^T M) A (rows: 2x2).
          float a[2][4];
          for (int j = 0; j < 4; ++j) {
            a[0][j] = mm[0 * 4 + j] + mm[1 * 4 + j] + mm[2 * 4 + j];
            a[1][j] = mm[1 * 4 + j] - mm[2 * 4 + j] - mm[3 * 4 + j];
          }
          const int64_t ox = 2 * tx;
          const bool x1_in = ox + 1 < width;
          for (int r = 0; r < 2; ++r) {
            const int64_t y = oy + r;
            if (y >= height) break;
            float* orow = plane + y * width;
            orow[ox] = a[r][0] + a[r][1] + a[r][2];
            if (x1_in) orow[ox + 1] = a[r][1] - a[r][2] - a[r][3];
          }
        }
      }
    }
  });
}

}  // namespace thali
