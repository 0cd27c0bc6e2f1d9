#include "nn/conv_layer.h"

#include <algorithm>
#include <cmath>

#include "base/thread_pool.h"
#include "nn/network.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm_pack.h"
#include "tensor/im2col.h"
#include "tensor/winograd.h"

namespace thali {

namespace {
constexpr float kBnEps = 1e-5f;
constexpr float kBnMomentum = 0.99f;  // rolling = m*rolling + (1-m)*batch
// Training caches the forward im2col panels (so Backward need not redo
// them) only while batch * panel stays below this many floats (64 MB).
constexpr int64_t kColCacheMaxFloats = int64_t{1} << 24;
// Per-filter loops below this many batch*spatial elements are not worth
// a chunk of their own.
constexpr int64_t kBnGrainElems = int64_t{1} << 14;
// Histogram resolution of the percentile calibration pass.
constexpr int64_t kCalibBins = 2048;
}  // namespace

Status ConvLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("conv input must be NCHW, got " +
                                   input_shape.ToString());
  }
  if (opts_.filters <= 0 || opts_.ksize <= 0 || opts_.stride <= 0 ||
      opts_.pad < 0) {
    return Status::InvalidArgument("bad conv geometry");
  }
  in_c_ = input_shape.dim(1);
  const int64_t in_h = input_shape.dim(2);
  const int64_t in_w = input_shape.dim(3);
  out_h_ = ConvOutSize(in_h, opts_.ksize, opts_.stride, opts_.pad);
  out_w_ = ConvOutSize(in_w, opts_.ksize, opts_.stride, opts_.pad);
  if (out_h_ <= 0 || out_w_ <= 0) {
    return Status::InvalidArgument("conv output collapses to zero");
  }

  SetShapes(input_shape,
            Shape({input_shape.dim(0), opts_.filters, out_h_, out_w_}));

  weights_.Resize(Shape({opts_.filters, in_c_, opts_.ksize, opts_.ksize}));
  biases_.Resize(Shape({opts_.filters}));
  if (opts_.batch_normalize) {
    scales_.Resize(Shape({opts_.filters}));
    scales_.Fill(1.0f);
    rolling_mean_.Resize(Shape({opts_.filters}));
    rolling_var_.Resize(Shape({opts_.filters}));
    rolling_var_.Fill(1.0f);
  }
  if (!inference()) {
    weight_grads_.Resize(weights_.shape());
    bias_grads_.Resize(biases_.shape());
    if (opts_.batch_normalize) {
      scale_grads_.Resize(scales_.shape());
      mean_.Resize(Shape({opts_.filters}));
      var_.Resize(Shape({opts_.filters}));
    }
  }
  SizeActivationCaches();
  return Status::OK();
}

void ConvLayer::SizeActivationCaches() {
  if (inference()) return;  // no backward pass, no caches
  if (opts_.batch_normalize) {
    conv_out_.Resize(out_shape_);
    x_norm_.Resize(out_shape_);
  }
  pre_activation_.Resize(out_shape_);
}

Status ConvLayer::Rebatch(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4 || input_shape.dim(1) != in_c_ ||
      input_shape.dim(2) != in_shape_.dim(2) ||
      input_shape.dim(3) != in_shape_.dim(3)) {
    return Status::InvalidArgument(
        "conv Rebatch may only change the batch dimension: " +
        in_shape_.ToString() + " -> " + input_shape.ToString());
  }
  SetShapes(input_shape,
            Shape({input_shape.dim(0), opts_.filters, out_h_, out_w_}));
  SizeActivationCaches();
  cols_cached_ = false;
  return Status::OK();
}

int64_t ConvLayer::WorkspaceSize() const { return kernel_.ws_floats; }

void ConvLayer::OnPlanUpdated() {
  if (inference() && (packed_dirty_ || packed_algo_ != plan().conv_algo)) {
    PrepackWeights();
  }
  ResolveKernel();
}

void ConvLayer::ResolveKernel() {
  const LayerPlan& lp = plan();
  const int64_t batch = in_shape_.dim(0);
  const int64_t in_hw = in_shape_.dim(2) * in_shape_.dim(3);
  const int64_t out_hw = out_h_ * out_w_;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const bool cnhw_in = lp.in_layout == ActLayout::kCNHW;
  Kernel kr;
  kr.batch = batch;
  kr.cnhw_out = lp.out_layout == ActLayout::kCNHW;
  kr.in_item = cnhw_in ? in_hw : in_c_ * in_hw;
  kr.in_chan_stride = cnhw_in ? batch * in_hw : in_hw;
  kr.out_item = kr.cnhw_out ? out_hw : opts_.filters * out_hw;
  kr.out_chan_stride = kr.cnhw_out ? batch * out_hw : out_hw;
  kr.whole_batch = cnhw_in && kr.cnhw_out;

  // Epilogue. Inference GEMMs over packed weights fuse the bias add and
  // the activation into the C write-back once batch norm is folded;
  // leaky/ReLU replicate the separate passes op for op, so fused and
  // staged outputs are bitwise identical. Mish fuses through the fast
  // kernel family the fused plan's own pass runs (fast_act), or — on
  // the int8 algorithms — only when requantizing to u8, so f32-out
  // values match the unchained path's separate FastMishInPlace pass.
  // Winograd has no GEMM C traversal spanning the output to fuse into.
  const bool int8 = IsInt8ConvAlgo(lp.conv_algo);
  kr.u8_out = int8 && lp.out_dtype == DType::kU8;
  kr.fused_bias = int8 || (inference() && !opts_.batch_normalize &&
                           (lp.conv_algo == ConvAlgo::kIm2col ||
                            lp.conv_algo == ConvAlgo::kDirect1x1));
  GemmActivation act = GemmActivation::kNone;
  bool act_fusable = false;
  switch (opts_.activation) {
    case Activation::kLinear:
      act_fusable = true;  // nothing to apply
      break;
    case Activation::kLeaky:
      act = GemmActivation::kLeaky;
      act_fusable = true;
      break;
    case Activation::kRelu:
      act = GemmActivation::kRelu;
      act_fusable = true;
      break;
    case Activation::kMish:
      act = GemmActivation::kMish;
      act_fusable = int8 ? kr.u8_out : lp.fast_act;
      break;
    default:
      break;  // logistic keeps its separate activation pass
  }
  const bool fused_act = kr.fused_bias && act_fusable;
  if (fused_act) {
    kr.act_pass = ActPass::kNone;
  } else if (inference() && lp.fast_act &&
             opts_.activation == Activation::kMish) {
    kr.act_pass = ActPass::kFastMish;
  }
  if (kr.fused_bias && !int8) {
    kr.gemm.bias = biases_.data();
    kr.gemm.activation = fused_act ? act : GemmActivation::kNone;
  }
  if (int8) {
    // The u8 input either chains from the producer's block (in the
    // edge domain the plan assigned) or is quantized here from the fp32
    // planes in the layer's own calibrated domain.
    kr.chained_in = lp.in_dtype == DType::kU8;
    const int32_t in_zp = kr.chained_in ? lp.in_qzp : act_in_zp_;
    kr.int8.in_scale = kr.chained_in ? lp.in_qscale : act_in_scale_;
    kr.int8.in_zp = in_zp;
    kr.int8.wscale = qweights_.scale.data();
    kr.int8.wcolsum = wcolsum_.data();
    kr.int8.bias = biases_.data();
    kr.int8.activation = fused_act ? act : GemmActivation::kNone;
    if (kr.u8_out) {
      THALI_CHECK(fused_act)
          << "conv " << index() << ": u8-out plan with unfusable activation";
      kr.int8.out_inv_scale = 1.0f / lp.out_qscale;
      kr.int8.out_zp = lp.out_qzp;
    }
    kr.quant_inv_scale = 1.0f / act_in_scale_;
    kr.in_zp_byte = static_cast<uint8_t>(in_zp);
  }

  // Workspace: im2col panels, Winograd transform buffers, or the int8
  // byte sections (quantized input planes, u8 im2col panel, packed
  // activation panel, i32 accumulator tile) inside the float slot.
  const auto align64 = [](int64_t v) { return (v + 63) / 64 * 64; };
  const int64_t kp = Int8PackedK(k);
  switch (lp.conv_algo) {
    case ConvAlgo::kIm2col:
      kr.ws_floats = IsDirect1x1() ? 0 : k * out_hw;
      break;
    case ConvAlgo::kDirect1x1:
      break;  // the input planes are the GEMM B matrix
    case ConvAlgo::kWinograd:
      kr.ws_floats = WinogradWorkspaceFloats(
          in_c_, opts_.filters, in_shape_.dim(2), in_shape_.dim(3));
      break;
    case ConvAlgo::kQuantInt8: {
      const int64_t in_planes = in_c_ * in_hw;
      kr.col = align64(in_planes);
      kr.packed = kr.col + align64(k * out_hw);
      kr.acc = kr.packed + align64(kp * out_hw);
      kr.ws_floats =
          (Int8ConvWorkspaceBytes(opts_.filters, out_hw, k, in_planes) + 3) /
          4;
      break;
    }
    case ConvAlgo::kQuantInt8Direct1x1: {
      const int64_t n = (kr.whole_batch ? batch : int64_t{1}) * out_hw;
      kr.packed = align64(k * n);
      kr.acc = kr.packed + align64(kp * n);
      kr.ws_floats = (Int8Direct1x1WorkspaceBytes(opts_.filters, n, k) + 3) / 4;
      break;
    }
  }
  kernel_ = kr;
}

std::string ConvLayer::EpilogueName() const {
  const std::string bias = opts_.batch_normalize ? "bn" : "bias";
  const std::string act = ActivationToString(opts_.activation);
  std::string name;
  if (!kernel_.fused_bias) {
    name = bias + " " + act;
  } else if (kernel_.act_pass != ActPass::kNone) {
    name = "gemm(" + bias + ") " + act;
  } else {
    name = "gemm(" + bias + "," + act + ")";
  }
  return kernel_.u8_out ? name + ">u8" : name;
}

void ConvLayer::InitWeights(Rng& rng) {
  const float scale =
      std::sqrt(2.0f / (static_cast<float>(opts_.ksize) * opts_.ksize *
                        static_cast<float>(in_c_)));
  for (int64_t i = 0; i < weights_.size(); ++i) {
    weights_.data()[i] = rng.NextGaussian(0.0f, scale);
  }
  biases_.Zero();
  if (opts_.batch_normalize) {
    scales_.Fill(1.0f);
    rolling_mean_.Zero();
    rolling_var_.Fill(1.0f);
  }
  packed_dirty_ = true;
}

void ConvLayer::PrepackWeights() {
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  packed_weights_ = Tensor();
  wino_packed_ = Tensor();
  qweights_.Clear();
  wcolsum_.clear();
  switch (plan().conv_algo) {
    case ConvAlgo::kIm2col:
    case ConvAlgo::kDirect1x1:
      packed_weights_.Resize(Shape({GemmPackedWeightFloats(m, k)}));
      GemmPackWeights(weights_.data(), m, k, packed_weights_.data());
      break;
    case ConvAlgo::kWinograd: {
      // U = G w G^T (the 16 GEMM A matrices) is only a staging step for
      // the packed panels.
      std::vector<float> u(static_cast<size_t>(WinogradWeightFloats(m, in_c_)));
      WinogradTransformWeights(weights_.data(), m, in_c_, u.data());
      wino_packed_.Resize(Shape({WinogradPackedWeightFloats(m, in_c_)}));
      WinogradPackWeights(u.data(), m, in_c_, wino_packed_.data());
      break;
    }
    case ConvAlgo::kQuantInt8:
    case ConvAlgo::kQuantInt8Direct1x1:
      qweights_.q.Resize(DType::kI8, Shape({m, Int8PackedK(k)}));
      qweights_.scale.resize(static_cast<size_t>(m));
      qweights_.zero_point = 0;
      wcolsum_.resize(static_cast<size_t>(m));
      Int8QuantizeWeights(weights_.data(), m, k, qweights_.q.data<int8_t>(),
                          qweights_.scale.data(), wcolsum_.data());
      break;
  }
  packed_algo_ = plan().conv_algo;
  packed_dirty_ = false;
}

bool ConvLayer::IsDirect1x1() const {
  return opts_.ksize == 1 && opts_.stride == 1 && opts_.pad == 0;
}

const float* ConvLayer::PrepareCol(const float* in, int64_t chan_stride,
                                   float* ws) const {
  // The direct shortcut is only valid when the item's channel planes are
  // contiguous (NCHW); fused plans route 1x1 convs to kDirect1x1 before
  // reaching here.
  if (IsDirect1x1()) return in;
  Im2ColStrided(in, chan_stride, in_c_, in_shape_.dim(2), in_shape_.dim(3),
                opts_.ksize, opts_.stride, opts_.pad, ws);
  return ws;
}

void ConvLayer::Forward(const Tensor& input, Network& net, bool train) {
  THALI_CHECK_EQ(kernel_.batch, in_shape_.dim(0))
      << "conv " << index() << ": kernel resolved for another batch";
  if (inference() && packed_dirty_) {
    // Weight loading re-packs lazily, once, on the next forward.
    PrepackWeights();
    ResolveKernel();
  }
  // Inference layers keep no pre-BN cache: the GEMM lands in output_
  // and BN normalizes it in place (elementwise, so bitwise identical to
  // the staged path).
  float* raw =
      (opts_.batch_normalize && !inference() ? conv_out_ : output_).data();
  switch (plan().conv_algo) {
    case ConvAlgo::kIm2col:
      ForwardIm2col(input, net, train, raw);
      break;
    case ConvAlgo::kDirect1x1:
      ForwardDirect1x1(input, net, raw);
      break;
    case ConvAlgo::kWinograd:
      ForwardWinograd(input, net, raw);
      break;
    case ConvAlgo::kQuantInt8:
      ForwardInt8Im2col(input, net, raw);
      break;
    case ConvAlgo::kQuantInt8Direct1x1:
      ForwardInt8Direct1x1(input, net, raw);
      break;
  }
  if (kernel_.u8_out) return;  // bias + activation fused; no fp32 output

  const int64_t batch = kernel_.batch;
  const int64_t spatial = out_h_ * out_w_;
  if (opts_.batch_normalize) {
    BatchNormForward(train);
  } else if (!kernel_.fused_bias) {
    // Plain bias add; (batch, filter) planes are independent. The plane
    // index maps to a filter as pl % F in NCHW and pl / batch in CNHW.
    ParallelFor(0, batch * opts_.filters,
                std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(
                                                         1, spatial)),
                [&](int64_t p0, int64_t p1, int) {
                  for (int64_t pl = p0; pl < p1; ++pl) {
                    float* p = output_.data() + pl * spatial;
                    const float bias = biases_[kernel_.cnhw_out
                                                   ? pl / batch
                                                   : pl % opts_.filters];
                    for (int64_t i = 0; i < spatial; ++i) p[i] += bias;
                  }
                });
  }

  // Cache pre-activation values for the backward pass (training networks
  // only), then activate. The activation is elementwise, so it needs no
  // layout awareness; fused plans route mish through the fast kernel
  // family (deterministic and identical across the scalar/AVX2 paths).
  if (!inference()) {
    ParallelFor(0, output_.size(), kBnGrainElems,
                [&](int64_t i0, int64_t i1, int) {
                  std::copy(output_.data() + i0, output_.data() + i1,
                            pre_activation_.data() + i0);
                  ApplyActivation(opts_.activation, output_.data() + i0,
                                  i1 - i0);
                });
    return;
  }
  switch (kernel_.act_pass) {
    case ActPass::kNone:
      break;
    case ActPass::kFastMish:
      ParallelFor(0, output_.size(), kBnGrainElems,
                  [&](int64_t i0, int64_t i1, int) {
                    FastMishInPlace(output_.data() + i0, i1 - i0);
                  });
      break;
    case ActPass::kReference:
      ParallelFor(0, output_.size(), kBnGrainElems,
                  [&](int64_t i0, int64_t i1, int) {
                    ApplyActivation(opts_.activation, output_.data() + i0,
                                    i1 - i0);
                  });
      break;
  }
}

void ConvLayer::ForwardIm2col(const Tensor& input, Network& net, bool train,
                              float* raw) {
  const int64_t batch = kernel_.batch;
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const int64_t n = out_h_ * out_w_;
  const int64_t col_plane = kernel_.ws_floats;  // 0 for the direct 1x1
  // During training, keep the per-item im2col panels around so Backward's
  // weight-gradient GEMM reuses them instead of recomputing (bounded by
  // kColCacheMaxFloats; larger layers fall back to recompute).
  cols_cached_ =
      train && col_plane > 0 && batch * col_plane <= kColCacheMaxFloats;
  if (cols_cached_ && col_cache_.size() != batch * col_plane) {
    col_cache_.Resize(Shape({batch, col_plane}));
  }
  const GemmEpilogue* epilogue = kernel_.fused_bias ? &kernel_.gemm : nullptr;
  // Batch items are independent: each strand owns disjoint output
  // planes and its own im2col scratch. Inference runs the GEMM from the
  // packed weight copy; training packs weights_ per call.
  ParallelForBounded(
      0, batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        float* ws = nullptr;
        if (col_plane > 0 && !cols_cached_) ws = net.workspace(tid, col_plane);
        for (int64_t b = b0; b < b1; ++b) {
          float* dst = cols_cached_ ? col_cache_.data() + b * col_plane : ws;
          const float* col = PrepareCol(input.data() + b * kernel_.in_item,
                                        kernel_.in_chan_stride, dst);
          float* cmat = raw + b * kernel_.out_item;
          if (inference()) {
            GemmPrepacked(m, n, k, packed_weights_.data(), /*tb=*/false, col,
                          n, 0.0f, cmat, kernel_.out_chan_stride, epilogue);
          } else {
            Gemm(false, false, m, n, k, 1.0f, weights_.data(), k, col, n,
                 0.0f, cmat, kernel_.out_chan_stride);
          }
        }
      });
}

void ConvLayer::ForwardDirect1x1(const Tensor& input, Network& net,
                                 float* raw) {
  const int64_t m = opts_.filters;
  const int64_t n = out_h_ * out_w_;
  const GemmEpilogue* epilogue = kernel_.fused_bias ? &kernel_.gemm : nullptr;
  if (kernel_.whole_batch) {
    // Blocked layout on both sides: the whole batch is one GEMM over the
    // [C, batch*HW] input block — identical per-element accumulation
    // chains to the per-item GEMMs, just wider.
    GemmPrepacked(m, kernel_.batch * n, in_c_, packed_weights_.data(),
                  /*tb=*/false, input.data(), kernel_.in_chan_stride, 0.0f,
                  raw, kernel_.out_chan_stride, epilogue);
    return;
  }
  // Mixed or NCHW layouts: one strided GEMM per item, no im2col.
  ParallelForBounded(0, kernel_.batch, 1, net.workspace_slots(),
                     [&](int64_t b0, int64_t b1, int) {
                       for (int64_t b = b0; b < b1; ++b) {
                         GemmPrepacked(
                             m, n, in_c_, packed_weights_.data(),
                             /*tb=*/false,
                             input.data() + b * kernel_.in_item,
                             kernel_.in_chan_stride, 0.0f,
                             raw + b * kernel_.out_item,
                             kernel_.out_chan_stride, epilogue);
                       }
                     });
}

void ConvLayer::ForwardWinograd(const Tensor& input, Network& net,
                                float* raw) {
  // Per-item Winograd; at batch 1 the single chunk runs inline so the 16
  // transform-domain GEMMs fan out across the pool instead.
  ParallelForBounded(
      0, kernel_.batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        float* ws = net.workspace(tid, kernel_.ws_floats);
        for (int64_t b = b0; b < b1; ++b) {
          WinogradForward(input.data() + b * kernel_.in_item,
                          kernel_.in_chan_stride, in_c_, in_shape_.dim(2),
                          in_shape_.dim(3), wino_packed_.data(),
                          opts_.filters, raw + b * kernel_.out_item,
                          kernel_.out_chan_stride, ws);
        }
      });
}

void ConvLayer::CheckInt8Armed() const {
  THALI_CHECK(has_act_range_ && !opts_.batch_normalize)
      << "conv " << index()
      << ": int8 plan over an unarmed layer — ReplanInference was skipped "
         "after a calibration or batch-norm change";
}

const uint8_t* ConvLayer::ChainedInput(Network& net) const {
  if (!kernel_.chained_in) return nullptr;
  // A chained layer 0 reads the quantized NETWORK INPUT (filled by
  // Network::Forward or staged by the detector's fused
  // letterbox-quantize); every other chained conv reads its producer's
  // u8 activation block.
  const uint8_t* src =
      index() == 0 ? net.quant_input() : net.quant_act(index() - 1);
  THALI_CHECK(src != nullptr);
  return src;
}

void ConvLayer::QuantizeItem(const float* in, uint8_t* qin) const {
  const int64_t in_hw = in_shape_.dim(2) * in_shape_.dim(3);
  for (int64_t c = 0; c < in_c_; ++c) {
    Int8QuantizeActivations(in + c * kernel_.in_chan_stride, in_hw,
                            kernel_.quant_inv_scale, act_in_zp_,
                            qin + c * in_hw);
  }
}

void ConvLayer::ForwardInt8Im2col(const Tensor& input, Network& net,
                                  float* raw) {
  CheckInt8Armed();
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const int64_t n = out_h_ * out_w_;
  const int64_t in_hw = in_shape_.dim(2) * in_shape_.dim(3);
  const uint8_t* qsrc = ChainedInput(net);
  uint8_t* qdst = kernel_.u8_out ? net.quant_act(index()) : nullptr;
  THALI_CHECK(!kernel_.u8_out || qdst != nullptr);
  const int8_t* qw = qweights_.q.data<int8_t>();
  ParallelForBounded(
      0, kernel_.batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        uint8_t* wsb = reinterpret_cast<uint8_t*>(
            net.workspace(tid, kernel_.ws_floats));
        uint8_t* qin = wsb;
        uint8_t* col = wsb + kernel_.col;
        uint8_t* packed = wsb + kernel_.packed;
        int32_t* acc = reinterpret_cast<int32_t*>(wsb + kernel_.acc);
        for (int64_t b = b0; b < b1; ++b) {
          // A chained input is already in this layer's domain; im2col
          // gathers straight from the producer's u8 planes (border pad =
          // the shared zero point, exact x = 0).
          const uint8_t* qim = qin;
          int64_t qim_stride = in_hw;
          if (qsrc != nullptr) {
            qim = qsrc + b * kernel_.in_item;
            qim_stride = kernel_.in_chan_stride;
          } else {
            QuantizeItem(input.data() + b * kernel_.in_item, qin);
          }
          Im2ColStridedU8(qim, qim_stride, in_c_, in_shape_.dim(2),
                          in_shape_.dim(3), opts_.ksize, opts_.stride,
                          opts_.pad, kernel_.in_zp_byte, col);
          Int8PackActCols(col, k, n, packed);
          Int8Epilogue e = kernel_.int8;
          float* cmat = nullptr;
          if (qdst != nullptr) {
            e.out_u8 = qdst + b * kernel_.out_item;
          } else {
            cmat = raw + b * kernel_.out_item;
          }
          Int8GemmPrepacked(m, n, k, qw, packed, e, cmat,
                            kernel_.out_chan_stride, acc);
        }
      });
}

void ConvLayer::ForwardInt8Direct1x1(const Tensor& input, Network& net,
                                     float* raw) {
  CheckInt8Armed();
  const int64_t m = opts_.filters;
  const int64_t k = in_c_;
  const int64_t n = out_h_ * out_w_;
  const uint8_t* qsrc = ChainedInput(net);
  uint8_t* qdst = kernel_.u8_out ? net.quant_act(index()) : nullptr;
  THALI_CHECK(!kernel_.u8_out || qdst != nullptr);
  const int8_t* qw = qweights_.q.data<int8_t>();
  if (kernel_.whole_batch) {
    // Blocked layout on both sides: the whole batch is one GEMM over the
    // [C, batch*HW] block (the channel planes already form the col
    // matrix). Runs inline; the GEMM itself row-parallelizes.
    const int64_t nb = kernel_.batch * n;
    uint8_t* wsb =
        reinterpret_cast<uint8_t*>(net.workspace(0, kernel_.ws_floats));
    uint8_t* packed = wsb + kernel_.packed;
    int32_t* acc = reinterpret_cast<int32_t*>(wsb + kernel_.acc);
    const uint8_t* qcols = qsrc;
    if (qcols == nullptr) {
      uint8_t* qin = wsb;
      Int8QuantizeActivations(input.data(), k * nb, kernel_.quant_inv_scale,
                              act_in_zp_, qin);
      qcols = qin;
    }
    Int8PackActCols(qcols, k, nb, packed);
    Int8Epilogue e = kernel_.int8;
    e.out_u8 = qdst;
    Int8GemmPrepacked(m, nb, k, qw, packed, e, qdst != nullptr ? nullptr : raw,
                      kernel_.out_chan_stride, acc);
    return;
  }
  // Mixed or NCHW layouts: one GEMM per item, packing the u8 columns
  // straight from the (possibly strided) channel planes.
  ParallelForBounded(
      0, kernel_.batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        uint8_t* wsb = reinterpret_cast<uint8_t*>(
            net.workspace(tid, kernel_.ws_floats));
        uint8_t* qin = wsb;
        uint8_t* packed = wsb + kernel_.packed;
        int32_t* acc = reinterpret_cast<int32_t*>(wsb + kernel_.acc);
        for (int64_t b = b0; b < b1; ++b) {
          if (qsrc != nullptr) {
            Int8PackActColsStrided(qsrc + b * kernel_.in_item,
                                   kernel_.in_chan_stride, k, n, packed);
          } else {
            QuantizeItem(input.data() + b * kernel_.in_item, qin);
            Int8PackActCols(qin, k, n, packed);
          }
          Int8Epilogue e = kernel_.int8;
          float* cmat = nullptr;
          if (qdst != nullptr) {
            e.out_u8 = qdst + b * kernel_.out_item;
          } else {
            cmat = raw + b * kernel_.out_item;
          }
          Int8GemmPrepacked(m, n, k, qw, packed, e, cmat,
                            kernel_.out_chan_stride, acc);
        }
      });
}

void ConvLayer::BatchNormForward(bool train) {
  const int64_t batch = out_shape_.dim(0);
  const int64_t spatial = out_h_ * out_w_;
  const int64_t m = batch * spatial;
  const int64_t filter_grain =
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, m));

  const float* use_mean;
  const float* use_var;
  if (train) {
    // Filters are independent, and each filter's reduction runs in the
    // same (batch, spatial) order at any parallelism level.
    ParallelFor(0, opts_.filters, filter_grain,
                [&](int64_t f0, int64_t f1, int) {
                  for (int64_t f = f0; f < f1; ++f) {
                    double s = 0.0;
                    for (int64_t b = 0; b < batch; ++b) {
                      const float* p =
                          conv_out_.data() + (b * opts_.filters + f) * spatial;
                      for (int64_t i = 0; i < spatial; ++i) s += p[i];
                    }
                    mean_[f] = static_cast<float>(s / m);
                    double v = 0.0;
                    for (int64_t b = 0; b < batch; ++b) {
                      const float* p =
                          conv_out_.data() + (b * opts_.filters + f) * spatial;
                      for (int64_t i = 0; i < spatial; ++i) {
                        const double d = p[i] - mean_[f];
                        v += d * d;
                      }
                    }
                    var_[f] = static_cast<float>(v / m);
                    rolling_mean_[f] = kBnMomentum * rolling_mean_[f] +
                                       (1 - kBnMomentum) * mean_[f];
                    rolling_var_[f] = kBnMomentum * rolling_var_[f] +
                                      (1 - kBnMomentum) * var_[f];
                  }
                });
    use_mean = mean_.data();
    use_var = var_.data();
  } else {
    use_mean = rolling_mean_.data();
    use_var = rolling_var_.data();
  }

  // Normalize: (batch, filter) planes are independent. Inference layers
  // read the raw conv output from output_ itself (written there by
  // Forward) and keep no x_norm_ cache; the per-element arithmetic is
  // unchanged, so both paths produce bitwise identical activations.
  // Under a CNHW plan (inference only) plane pl belongs to filter
  // pl / batch instead of pl % filters.
  const bool cnhw = kernel_.cnhw_out;
  const float* src_base = inference() ? output_.data() : conv_out_.data();
  float* xn_base = inference() ? nullptr : x_norm_.data();
  ParallelFor(
      0, batch * opts_.filters,
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, spatial)),
      [&](int64_t p0, int64_t p1, int) {
        for (int64_t pl = p0; pl < p1; ++pl) {
          const int64_t f = cnhw ? pl / batch : pl % opts_.filters;
          const float inv_std = 1.0f / std::sqrt(use_var[f] + kBnEps);
          const float mu = use_mean[f];
          const float gamma = scales_[f];
          const float beta = biases_[f];
          const float* src = src_base + pl * spatial;
          float* dst = output_.data() + pl * spatial;
          if (xn_base != nullptr) {
            float* xn = xn_base + pl * spatial;
            for (int64_t i = 0; i < spatial; ++i) {
              const float norm = (src[i] - mu) * inv_std;
              xn[i] = norm;
              dst[i] = gamma * norm + beta;
            }
          } else {
            for (int64_t i = 0; i < spatial; ++i) {
              const float norm = (src[i] - mu) * inv_std;
              dst[i] = gamma * norm + beta;
            }
          }
        }
      });
}

void ConvLayer::BatchNormBackward() {
  // Input: delta_ holds dL/d(pre-activation). Transforms it in place into
  // dL/d(conv_out) and accumulates scale/bias gradients. Filters are
  // independent, so the per-filter loop parallelizes without changing
  // any accumulation order.
  const int64_t batch = out_shape_.dim(0);
  const int64_t spatial = out_h_ * out_w_;
  const int64_t m = batch * spatial;
  const int64_t filter_grain =
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, m));

  ParallelFor(0, opts_.filters, filter_grain, [&](int64_t f0, int64_t f1,
                                                  int) {
    for (int64_t f = f0; f < f1; ++f) {
      const float inv_std = 1.0f / std::sqrt(var_[f] + kBnEps);
      const float gamma = scales_[f];

      double dbeta = 0.0, dgamma = 0.0, sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (int64_t b = 0; b < batch; ++b) {
        const float* d = delta_.data() + (b * opts_.filters + f) * spatial;
        const float* xn = x_norm_.data() + (b * opts_.filters + f) * spatial;
        for (int64_t i = 0; i < spatial; ++i) {
          dbeta += d[i];
          dgamma += d[i] * xn[i];
          const float dxhat = d[i] * gamma;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xn[i];
        }
      }
      bias_grads_[f] += static_cast<float>(dbeta);
      scale_grads_[f] += static_cast<float>(dgamma);

      // dL/dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
      const float mean_dxhat = static_cast<float>(sum_dxhat / m);
      const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / m);
      for (int64_t b = 0; b < batch; ++b) {
        float* d = delta_.data() + (b * opts_.filters + f) * spatial;
        const float* xn = x_norm_.data() + (b * opts_.filters + f) * spatial;
        for (int64_t i = 0; i < spatial; ++i) {
          const float dxhat = d[i] * gamma;
          d[i] = inv_std * (dxhat - mean_dxhat - xn[i] * mean_dxhat_xhat);
        }
      }
    }
  });
}

void ConvLayer::Backward(const Tensor& input, Tensor* input_delta,
                         Network& net) {
  const int64_t batch = in_shape_.dim(0);
  const int64_t in_plane = in_c_ * in_shape_.dim(2) * in_shape_.dim(3);
  const int64_t out_plane = opts_.filters * out_h_ * out_w_;
  const int64_t spatial = out_h_ * out_w_;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const bool direct = IsDirect1x1();
  const int64_t col_plane = WorkspaceSize();
  const int64_t wsize = weights_.size();

  // 1. Chain through the activation (elementwise).
  ParallelFor(0, delta_.size(), kBnGrainElems,
              [&](int64_t i0, int64_t i1, int) {
                GradientActivation(opts_.activation,
                                   pre_activation_.data() + i0,
                                   delta_.data() + i0, i1 - i0);
              });

  // 2. Batch norm (or bias) gradients.
  if (opts_.batch_normalize) {
    BatchNormBackward();
  } else {
    // Per-filter sums; batch items are visited in ascending order inside
    // each filter, exactly as the sequential loop nest did.
    ParallelFor(0, opts_.filters, 1, [&](int64_t f0, int64_t f1, int) {
      for (int64_t f = f0; f < f1; ++f) {
        for (int64_t b = 0; b < batch; ++b) {
          const float* d = delta_.data() + (b * opts_.filters + f) * spatial;
          double s = 0.0;
          for (int64_t i = 0; i < spatial; ++i) s += d[i];
          bias_grads_[f] += static_cast<float>(s);
        }
      }
    });
  }

  // 3. Weight gradients and input deltas, per batch item. Each item's
  // gradient goes to its own scratch slot; the reduction below then adds
  // the slots in ascending batch order, which is bitwise identical to
  // the sequential per-item accumulation (a beta=0 GEMM computes exactly
  // the alpha*sum terms a beta=1 GEMM would have added in place).
  if (wg_scratch_.size() != batch * wsize) {
    wg_scratch_.Resize(Shape({batch, wsize}));
  }
  ParallelForBounded(
      0, batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        float* ws = direct ? nullptr : net.workspace(tid, col_plane);
        for (int64_t b = b0; b < b1; ++b) {
          const float* in = input.data() + b * in_plane;
          const float* d = delta_.data() + b * out_plane;
          const float* col =
              cols_cached_
                  ? col_cache_.data() + b * col_plane
                  : PrepareCol(in, in_shape_.dim(2) * in_shape_.dim(3), ws);
          // dW_b[f, ckk] = d[f, hw] * col[ckk, hw]^T into this item's slot.
          Gemm(false, true, opts_.filters, k, spatial, 1.0f, d, spatial, col,
               spatial, 0.0f, wg_scratch_.data() + b * wsize, k);

          if (input_delta != nullptr) {
            // id[ckk, hw] += W^T[ckk, f] * d[f, hw]
            float* id = input_delta->data() + b * in_plane;
            if (direct) {
              Gemm(true, false, k, spatial, opts_.filters, 1.0f,
                   weights_.data(), k, d, spatial, 1.0f, id, spatial);
            } else {
              Gemm(true, false, k, spatial, opts_.filters, 1.0f,
                   weights_.data(), k, d, spatial, 0.0f, ws, spatial);
              Col2Im(ws, in_c_, in_shape_.dim(2), in_shape_.dim(3),
                     opts_.ksize, opts_.stride, opts_.pad, id);
            }
          }
        }
      });

  // Deterministic reduction: parallel over the weight index (disjoint
  // writes), sequential in batch order per element.
  ParallelFor(0, wsize, kBnGrainElems, [&](int64_t i0, int64_t i1, int) {
    for (int64_t b = 0; b < batch; ++b) {
      const float* src = wg_scratch_.data() + b * wsize;
      float* dst = weight_grads_.data();
      for (int64_t i = i0; i < i1; ++i) dst[i] += src[i];
    }
  });
}

std::vector<Param> ConvLayer::Params() {
  std::vector<Param> params;
  params.push_back({&weights_, &weight_grads_, /*apply_decay=*/true, "weights"});
  params.push_back({&biases_, &bias_grads_, false, "biases"});
  if (opts_.batch_normalize) {
    params.push_back({&scales_, &scale_grads_, false, "scales"});
  }
  return params;
}

std::vector<ConstParam> ConvLayer::Params() const {
  std::vector<ConstParam> params;
  params.push_back({&weights_, &weight_grads_, /*apply_decay=*/true, "weights"});
  params.push_back({&biases_, &bias_grads_, false, "biases"});
  if (opts_.batch_normalize) {
    params.push_back({&scales_, &scale_grads_, false, "scales"});
  }
  return params;
}

void ConvLayer::SetActivationRange(float range_min, float range_max) {
  act_in_min_ = range_min;
  act_in_max_ = range_max;
  Int8RangeToScaleZp(range_min, range_max, &act_in_scale_, &act_in_zp_);
  has_act_range_ = true;
}

void ConvLayer::ResetCalibration() {
  has_act_range_ = false;
  act_in_min_ = act_in_max_ = 0.0f;
  act_in_scale_ = 1.0f;
  act_in_zp_ = 0;
  calib_seen_ = false;
  calib_min_ = calib_max_ = 0.0f;
  calib_hist_.clear();
}

void ConvLayer::ObserveCalibration(const Tensor& input, CalibPhase phase) {
  // Single-threaded on purpose: calibration is an offline pass, and the
  // sequential reduction keeps the observed range deterministic.
  const float* x = input.data();
  const int64_t count = input.size();
  if (count == 0) return;
  if (phase == CalibPhase::kRange) {
    float lo = calib_seen_ ? calib_min_ : x[0];
    float hi = calib_seen_ ? calib_max_ : x[0];
    for (int64_t i = 0; i < count; ++i) {
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
    }
    calib_min_ = lo;
    calib_max_ = hi;
    calib_seen_ = true;
    return;
  }
  // kHist over the kRange interval; values outside it (the hist pass may
  // see different images) clamp into the edge bins.
  if (!calib_seen_ || calib_max_ <= calib_min_) return;
  if (calib_hist_.size() != static_cast<size_t>(kCalibBins)) {
    calib_hist_.assign(static_cast<size_t>(kCalibBins), 0);
  }
  const float inv_bin =
      static_cast<float>(kCalibBins) / (calib_max_ - calib_min_);
  for (int64_t i = 0; i < count; ++i) {
    int64_t b = static_cast<int64_t>((x[i] - calib_min_) * inv_bin);
    b = std::clamp<int64_t>(b, 0, kCalibBins - 1);
    ++calib_hist_[static_cast<size_t>(b)];
  }
}

void ConvLayer::FinalizeCalibration(double percentile) {
  if (!calib_seen_) return;
  int64_t total = 0;
  for (int64_t c : calib_hist_) total += c;
  if (percentile >= 100.0 || total == 0) {
    SetActivationRange(calib_min_, calib_max_);
    return;
  }
  // Trim each tail to at most (100 - percentile)/2 percent of the mass.
  const int64_t tail = static_cast<int64_t>(
      static_cast<double>(total) * (100.0 - percentile) / 200.0);
  int64_t lo_bin = 0;
  int64_t acc = 0;
  while (lo_bin < kCalibBins - 1 &&
         acc + calib_hist_[static_cast<size_t>(lo_bin)] <= tail) {
    acc += calib_hist_[static_cast<size_t>(lo_bin)];
    ++lo_bin;
  }
  int64_t hi_bin = kCalibBins - 1;
  acc = 0;
  while (hi_bin > lo_bin &&
         acc + calib_hist_[static_cast<size_t>(hi_bin)] <= tail) {
    acc += calib_hist_[static_cast<size_t>(hi_bin)];
    --hi_bin;
  }
  const float bin_w = (calib_max_ - calib_min_) / kCalibBins;
  SetActivationRange(calib_min_ + bin_w * static_cast<float>(lo_bin),
                     calib_min_ + bin_w * static_cast<float>(hi_bin + 1));
}

void ConvLayer::FoldBatchNorm() {
  if (!opts_.batch_normalize) return;
  const int64_t per_filter = in_c_ * opts_.ksize * opts_.ksize;
  for (int64_t f = 0; f < opts_.filters; ++f) {
    const float inv_std = 1.0f / std::sqrt(rolling_var_[f] + kBnEps);
    const float g = scales_[f] * inv_std;
    float* w = weights_.data() + f * per_filter;
    for (int64_t i = 0; i < per_filter; ++i) w[i] *= g;
    biases_[f] = biases_[f] - scales_[f] * rolling_mean_[f] * inv_std;
  }
  opts_.batch_normalize = false;
  packed_dirty_ = true;
  ResolveKernel();  // the bias (and activation) may now fuse
  scales_ = Tensor();
  scale_grads_ = Tensor();
  rolling_mean_ = Tensor();
  rolling_var_ = Tensor();
  conv_out_ = Tensor();
  x_norm_ = Tensor();
  col_cache_ = Tensor();
  wg_scratch_ = Tensor();
}

}  // namespace thali
