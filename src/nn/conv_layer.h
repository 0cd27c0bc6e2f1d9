#ifndef THALI_NN_CONV_LAYER_H_
#define THALI_NN_CONV_LAYER_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/qtensor.h"

namespace thali {

// 2-d convolution with optional fused batch normalization and activation —
// Darknet's `[convolutional]` layer. Weight layout is
// (out_channels, in_channels, ksize, ksize); the reference computation is
// im2col + GEMM. Forward is one switch over plan().conv_algo (nn/
// exec_plan.h) — im2col, direct whole-batch 1x1, Winograd F(2x2,3x3),
// or their int8 variants — followed by the shared batch-norm / bias /
// activation tail, reading and writing NCHW or the blocked CNHW layout
// through GEMM strides. Everything else Forward needs (packed weights,
// which epilogue stages the GEMM write-back fuses, strides, int8
// workspace sections) is resolved once per plan push in OnPlanUpdated.
//
// With batch_normalize, the layer carries scales (gamma), biases (beta)
// and rolling mean/variance exactly like Darknet, so the serialized
// parameter order matches the .weights format.
class ConvLayer : public Layer {
 public:
  struct Options {
    int filters = 1;
    int ksize = 3;
    int stride = 1;
    int pad = 1;  // symmetric zero padding in pixels
    bool batch_normalize = false;
    Activation activation = Activation::kLeaky;
  };

  explicit ConvLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "convolutional"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  Status Rebatch(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  std::vector<Param> Params() override;
  std::vector<ConstParam> Params() const override;
  int64_t WorkspaceSize() const override;

  // Resolves the kernel Forward runs for the freshly pushed plan
  // (Finalize / SetBatch / ReplanInference): packs the weights the
  // plan's algorithm reads if they are stale, then fixes the epilogue,
  // layout strides and int8 workspace sections.
  void OnPlanUpdated() override;

  // Invalidates the packed copy after any mutation of weights_ (weight
  // loading, optimizer steps, batch-norm folding); the next inference
  // Forward re-packs.
  void MarkWeightsDirty() { packed_dirty_ = true; }

  // Bytes held by the pre-packed fp32 weight copies (GEMM panels or
  // Winograd panels; 0 when not packed).
  int64_t packed_weight_bytes() const {
    return (packed_weights_.size() + wino_packed_.size()) *
           static_cast<int64_t>(sizeof(float));
  }

  // Bytes held by the quantized int8 weight copy (0 unless the plan
  // resolved this layer to an int8 algorithm).
  int64_t int8_weight_bytes() const { return qweights_.q.bytes(); }

  // The resolved epilogue for reports: the bias (or batch-norm) and
  // activation stages in order, e.g. "gemm(bias,leaky)" when the GEMM
  // write-back applies both, "gemm(bias,mish)>u8" when it also
  // requantizes for a chained consumer, "bn mish" for separate passes.
  std::string EpilogueName() const;

  // --- int8 activation calibration (int8 candidates only) ---
  //
  // The quantized path needs the input activation range of each int8
  // conv. Detector::CalibrateInt8 collects it by running fp32 forwards
  // with net.calib_phase() set (kRange then optionally kHist; Network::
  // Forward feeds each candidate's input to ObserveCalibration) and then
  // calling FinalizeCalibration; a persisted calibration instead lands
  // directly in SetActivationRange. Ranges take effect at the next
  // Network::ReplanInference, which resolves the layer to int8.

  // Installs the input range; derives (scale, zero point) per
  // tensor/gemm_int8.h; the next replan arms the quantized path.
  void SetActivationRange(float range_min, float range_max);
  bool has_activation_range() const { return has_act_range_; }
  float activation_range_min() const { return act_in_min_; }
  float activation_range_max() const { return act_in_max_; }

  // Clears accumulated calibration statistics (and the installed range).
  void ResetCalibration();

  // Records input statistics for the active calibration phase (min/max
  // under kRange, histogram under kHist).
  void ObserveCalibration(const Tensor& input, CalibPhase phase);

  // Converts accumulated statistics into an activation range:
  // percentile == 100 keeps the observed min/max; otherwise the
  // histogram pass's tails are trimmed so each holds at most
  // (100 - percentile)/2 percent of the observed values.
  void FinalizeCalibration(double percentile);

  const Options& options() const { return opts_; }

  // He-style initialization scaled for the fan-in, matching Darknet's
  // scale = sqrt(2/(k*k*c)).
  void InitWeights(Rng& rng);

  // Direct parameter access for the serializer.
  Tensor& weights() { return weights_; }
  Tensor& biases() { return biases_; }
  Tensor& scales() { return scales_; }
  Tensor& rolling_mean() { return rolling_mean_; }
  Tensor& rolling_var() { return rolling_var_; }

  // Folds batch-norm parameters into weights/biases for faster inference
  // (w' = w*gamma/sqrt(var+eps), b' = beta - gamma*mean/sqrt(var+eps)).
  // Irreversible; the layer afterwards behaves as batch_normalize=false.
  // Only valid on a layer that will no longer be trained. The layer
  // re-resolves its epilogue itself, but int8 only arms through the
  // plan: fold whole networks with Network::FoldBatchNorm.
  void FoldBatchNorm();

 private:
  // 1x1/stride-1/pad-0 convs need no im2col: the input planes already
  // form the col matrix.
  bool IsDirect1x1() const;

  // Returns the col matrix for one image: the input itself (1x1 fast
  // path, only valid for a contiguous NCHW item) or `ws` after an
  // im2col with the given channel-plane stride into it.
  const float* PrepareCol(const float* in, int64_t chan_stride,
                          float* ws) const;

  // Packs weights_ into what plan().conv_algo reads: GEMM panels
  // (im2col / direct 1x1), Winograd U panels, or per-channel int8 rows.
  // Inference only; drops the copies other algorithms would read.
  void PrepackWeights();

  // Derives kernel_ from plan(), the shapes and the batch-norm state.
  void ResolveKernel();

  // The per-algorithm bodies of Forward. Each writes the raw GEMM result
  // (with whatever epilogue stages kernel_ fuses) into `raw`.
  void ForwardIm2col(const Tensor& input, Network& net, bool train,
                     float* raw);
  void ForwardDirect1x1(const Tensor& input, Network& net, float* raw);
  void ForwardWinograd(const Tensor& input, Network& net, float* raw);
  void ForwardInt8Im2col(const Tensor& input, Network& net, float* raw);
  void ForwardInt8Direct1x1(const Tensor& input, Network& net, float* raw);

  // Helpers of the int8 bodies: the O(1) guard that the plan still
  // matches the layer (range installed, batch norm folded), the chained
  // u8 input block (nullptr when the layer quantizes its fp32 input),
  // and the quantization of one item's fp32 planes into contiguous u8
  // planes in the layer's own domain.
  void CheckInt8Armed() const;
  const uint8_t* ChainedInput(Network& net) const;
  void QuantizeItem(const float* in, uint8_t* qin) const;

  void BatchNormForward(bool train);
  void BatchNormBackward();

  // Sizes the activation-shaped caches for the current out_shape_ and
  // mode (inference layers keep none); shared by Configure and Rebatch.
  void SizeActivationCaches();

  Options opts_;
  int64_t out_h_ = 0;
  int64_t out_w_ = 0;
  int64_t in_c_ = 0;

  Tensor weights_, weight_grads_;
  Tensor packed_weights_;      // GEMM panels (kIm2col / kDirect1x1)
  Tensor wino_packed_;         // the 16 U_k = G w G^T as GEMM A panels
                               // (kWinograd)
  QTensor qweights_;           // per-channel int8 rows (int8 algos)
  std::vector<int32_t> wcolsum_;  // per-filter quantized-row sums
  bool packed_dirty_ = true;   // weights_ changed since the last pack
  ConvAlgo packed_algo_ = ConvAlgo::kIm2col;  // algo of the last pack
  Tensor biases_, bias_grads_;
  // Batch-norm parameters (allocated only when batch_normalize).
  Tensor scales_, scale_grads_;
  Tensor rolling_mean_, rolling_var_;
  Tensor mean_, var_;        // batch statistics cached for backward
  Tensor conv_out_;          // pre-BN conv output cache
  Tensor x_norm_;            // normalized activations cache
  Tensor pre_activation_;    // post-BN/bias, pre-activation cache
  Tensor col_cache_;         // per-item im2col panels cached by Forward
  bool cols_cached_ = false; // whether col_cache_ matches the last Forward
  Tensor wg_scratch_;        // per-item weight-gradient slots (Backward)

  // What Forward runs besides the algorithm switch, resolved by
  // ResolveKernel whenever the plan, the batch or the batch-norm state
  // changes — never per call.
  enum class ActPass { kNone, kReference, kFastMish };
  struct Kernel {
    int64_t batch = 0;  // batch the strides below were resolved for
    // Layout strides: NCHW item b's channel c plane at (b*C + c)*HW
    // (item stride C*HW, channel stride HW); CNHW plane (c, b) at
    // (c*batch + b)*HW (item stride HW, channel stride batch*HW).
    int64_t in_item = 0, in_chan_stride = 0;
    int64_t out_item = 0, out_chan_stride = 0;
    bool cnhw_out = false;
    // Direct 1x1 with CNHW on both sides: the whole batch is one GEMM
    // over the [C, batch*HW] block instead of one GEMM per item.
    bool whole_batch = false;
    // GEMM write-back stages. fused_bias: the epilogue adds the bias
    // (else the tail runs batch norm or a bias pass); act_pass: how the
    // tail applies the activation the epilogue did not.
    bool fused_bias = false;
    ActPass act_pass = ActPass::kReference;
    GemmEpilogue gemm;   // fp32 algorithms (bias set when fused_bias)
    Int8Epilogue int8;   // int8 algorithms (out_u8 set per item)
    // int8 input: chained_in reads the producer's u8 block (or the
    // quantized network input at layer 0); otherwise Forward quantizes
    // the fp32 planes with the layer's own domain. u8_out requantizes
    // into this layer's u8 block; no fp32 output exists then.
    bool chained_in = false;
    bool u8_out = false;
    float quant_inv_scale = 1.0f;
    uint8_t in_zp_byte = 0;
    // Byte-section offsets inside the per-strand float workspace of the
    // int8 algorithms, laid out as Int8ConvWorkspaceBytes /
    // Int8Direct1x1WorkspaceBytes size them (quantized input planes at
    // offset 0).
    int64_t col = 0, packed = 0, acc = 0;
    // Floats this layer requests from net.workspace() (WorkspaceSize).
    int64_t ws_floats = 0;
  };
  Kernel kernel_;

  // int8 activation quantization state (quantized plans).
  bool has_act_range_ = false;
  float act_in_min_ = 0.0f, act_in_max_ = 0.0f;
  float act_in_scale_ = 1.0f;
  int32_t act_in_zp_ = 0;
  // Calibration accumulators (only touched while a phase is active).
  float calib_min_ = 0.0f, calib_max_ = 0.0f;
  bool calib_seen_ = false;
  std::vector<int64_t> calib_hist_;
};

}  // namespace thali

#endif  // THALI_NN_CONV_LAYER_H_
