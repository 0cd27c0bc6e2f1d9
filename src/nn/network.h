#ifndef THALI_NN_NETWORK_H_
#define THALI_NN_NETWORK_H_

#include <memory>
#include <vector>

#include "base/statusor.h"
#include "nn/exec_plan.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace thali {

// A feed-forward network of Darknet-style layers executed in insertion
// order. Route/shortcut layers make the graph a DAG, referencing earlier
// layers by index.
//
// Usage:
//   Network net(width, height, channels, batch);
//   net.Add(std::make_unique<ConvLayer>(...));
//   ...
//   THALI_CHECK_OK(net.Finalize(ExecMode::kInference));
//   const Tensor& out = net.Forward(input);
class Network {
 public:
  // `width`/`height`/`channels` describe the input image planes; `batch`
  // sets the initial batch dimension (changeable later via SetBatch).
  Network(int width, int height, int channels, int batch);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Appends a layer. Must be called before Finalize.
  void Add(std::unique_ptr<Layer> layer);

  // Configures every layer's shapes/buffers for `mode`, sizes the shared
  // workspace and plans output storage. Must be called once after the
  // last Add. kTraining reproduces the seed allocator (per-layer output
  // + delta); kInference skips deltas/backward caches and places outputs
  // in a liveness-planned shared arena unless the THALI_NO_ARENA
  // environment variable is set (each layer then owns its output).
  Status Finalize(ExecMode mode = ExecMode::kTraining);

  // Changes the batch dimension of an already-finalized network:
  // re-derives every layer's shapes, resizes activation buffers and
  // re-plans arena offsets. Learnable parameters and layer objects are
  // untouched, so a loaded model keeps its weights across batch changes.
  Status SetBatch(int batch);

  // Recompiles the execution plan of a finalized inference network
  // without touching shapes. Which algorithm each conv runs (int8 or
  // fp32) and the quantize-once chains depend on calibration and
  // batch-norm state the plan compiler reads from the conv layers, so
  // this must run after Detector::CalibrateInt8 / LoadCalibration
  // install activation ranges (to arm int8), after ResetCalibration
  // drops them (an int8 conv has no fp32 fallback) and after batch-norm
  // folding (Network::FoldBatchNorm does). No-op for training networks.
  // Grows workspaces if the fresh plan needs more scratch.
  Status ReplanInference();

  // Folds batch norm into every conv's weights and biases (see
  // ConvLayer::FoldBatchNorm), then replans so each conv's resolved
  // kernel — fused epilogue, int8 arming — reflects the folded network.
  // Irreversible; for inference networks and evaluation only.
  Status FoldBatchNorm();

  // Runs all layers; returns the last layer's output. `input` must be
  // (batch, channels, height, width). With train=true, layers use batch
  // statistics and keep backward caches — kTraining networks only.
  const Tensor& Forward(const Tensor& input, bool train = false);

  // Backpropagates all layer deltas (seeded by loss layers) down to the
  // input. Call after Forward(train=true) and after loss layers populated
  // their delta tensors. Parameter gradients accumulate until ZeroGrads.
  // kTraining networks only.
  void Backward(const Tensor& input);

  // Clears every layer's delta tensor (dL/dOutput buffers). kTraining
  // networks only.
  void ZeroDeltas();

  // Clears every parameter gradient accumulator.
  void ZeroGrads();

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_.at(static_cast<size_t>(i)); }
  const Layer& layer(int i) const { return *layers_.at(static_cast<size_t>(i)); }

  // Resolves a possibly-negative Darknet layer reference (-1 = previous
  // layer relative to `at`) to an absolute index.
  int ResolveIndex(int ref, int at) const;

  int input_width() const { return width_; }
  int input_height() const { return height_; }
  int input_channels() const { return channels_; }
  int batch() const { return batch_; }
  Shape input_shape() const {
    return Shape({batch_, channels_, height_, width_});
  }

  // Execution mode chosen at Finalize.
  ExecMode exec_mode() const { return mode_; }

  // THALI_INT8 opt-in, latched at Finalize like the fuse/arena knobs.
  // When false the plan compiler never emits kQuantInt8.
  bool int8_enabled() const { return int8_enabled_; }

  // Active calibration pass. While it is not kOff, Forward feeds the
  // input of every int8-candidate conv to its ObserveCalibration; the
  // plan must not have resolved any conv to int8 (CHECKed).
  CalibPhase calib_phase() const { return calib_phase_; }
  void set_calib_phase(CalibPhase phase) { calib_phase_ = phase; }

  // Opt-in for the decode fast path (base/fastpre.h): when set on an
  // inference network, YOLO heads skip their Forward sigmoid loops and
  // leave output_ holding RAW logits; GetDetections then pre-filters in
  // logit space and activates only surviving cells (bitwise identical
  // detections). Only owners that never read head outputs directly
  // (Detector) should set this — raw Network users keep the seed
  // sigmoided outputs.
  bool defer_head_activation() const { return defer_head_activation_; }
  void set_defer_head_activation(bool defer) {
    defer_head_activation_ = defer;
  }

  // The activation-arena plan computed at Finalize/SetBatch. For
  // kTraining networks the plan is computed for reporting only
  // (enabled=false); for kInference it reflects the live layout unless
  // THALI_NO_ARENA disabled placement.
  const ArenaPlan& arena_plan() const { return eplan_.arena; }

  // The full execution plan (per-layer layouts, conv algorithms, copy
  // elisions) the inference plan compiler produced at Finalize/SetBatch.
  // Training networks and THALI_NO_FUSE inference get the reference
  // plan (fused == false, all LayerPlans default).
  const ExecPlan& exec_plan() const { return eplan_; }

  // Bytes of activation buffers this network holds live: outputs plus
  // deltas in training mode; the arena (or per-layer outputs under
  // THALI_NO_ARENA) in inference mode. The acceptance metric the memory
  // bench reports.
  int64_t ActivationBytes() const;

  // Per-thread scratch buffer (im2col panels). Finalize sizes one slot
  // per strand of parallelism (MaxParallelism() at finalize time), each
  // holding the largest WorkspaceSize() any layer declared. `tid` is the
  // strand index a ParallelFor chunk runs as; `required` is the float
  // count the layer is about to use and is checked against the sized
  // capacity — an undersized workspace would otherwise be a silent
  // buffer overrun.
  float* workspace(int tid, int64_t required);

  // Base of layer i's u8 activation tensor, or nullptr when the plan
  // keeps that layer fp32. Valid after PlanBuffers; chained producers
  // write their requantized bytes here and chained consumers read their
  // sources' pointers. Storage lives in per-alias-group DTypeBuffers
  // parallel to the fp32 arena (the fp32 slots stay bound, so
  // THALI_INT8=0 and unchained plans are untouched).
  uint8_t* quant_act(int i) {
    return qact_.empty() ? nullptr : qact_[static_cast<size_t>(i)];
  }

  // Base of the quantized NETWORK INPUT tensor, or nullptr when the plan
  // does not chain layer 0 (plan.input_u8 == false). When the chain
  // reaches layer 0, Forward fills this by quantizing the fp32 input
  // with the plan's input domain — unless the caller already staged the
  // bytes (the detector's fused letterbox→quantize path) and armed
  // set_input_prequantized, in which case the staged bytes are consumed
  // as-is (one-shot; the flag clears on every Forward).
  uint8_t* quant_input() { return qinput_.empty() ? nullptr : qinput_.raw(); }
  void set_input_prequantized(bool prequantized) {
    input_prequantized_ = prequantized;
  }
  // Scratch floats available per slot.
  int64_t workspace_size() const { return workspace_floats_; }
  // Number of per-thread slots; callers running layer code in parallel
  // must bound their strand count by this (ParallelForBounded).
  int workspace_slots() const { return static_cast<int>(workspaces_.size()); }

  // All learnable parameters of unfrozen layers, in layer order.
  std::vector<Param> TrainableParams();
  // All learnable parameters regardless of freeze state (serialization).
  std::vector<Param> AllParams();

  // Total learnable parameter count.
  int64_t NumParameters() const;

  // Freezes layers [0, cutoff) — the transfer-learning backbone freeze.
  void FreezeUpTo(int cutoff);

  bool finalized() const { return finalized_; }

 private:
  // (Re)plans output storage: computes the arena plan and either binds
  // layer outputs into arena_ (inference + arena enabled) or gives each
  // layer an owned output buffer. Also records the planner report.
  void PlanBuffers();

  int width_;
  int height_;
  int channels_;
  int batch_;
  ExecMode mode_ = ExecMode::kTraining;
  // THALI_NO_ARENA / THALI_NO_FUSE, sampled once at Finalize so later
  // SetBatch re-plans keep the same decisions.
  bool arena_disabled_ = false;
  bool fuse_disabled_ = false;
  // THALI_INT8, sampled once at Finalize (opt-in, so the default is off).
  bool int8_enabled_ = false;
  CalibPhase calib_phase_ = CalibPhase::kOff;
  bool defer_head_activation_ = false;
  bool input_prequantized_ = false;
  bool finalized_ = false;
  std::vector<std::unique_ptr<Layer>> layers_;
  // One im2col scratch tensor per parallel strand (distinct allocations,
  // so concurrent strands never share cache lines).
  std::vector<Tensor> workspaces_;
  int64_t workspace_floats_ = 0;
  // Shared activation storage for arena-planned inference outputs.
  Tensor arena_;
  // u8 activation blocks for quantize-once chaining: one buffer per
  // alias-group root whose planned out_dtype is kU8, plus the resolved
  // per-layer base pointers (both empty without chains).
  std::vector<DTypeBuffer> qbufs_;
  std::vector<uint8_t*> qact_;
  // Quantized network-input bytes when the chain reaches layer 0
  // (plan.input_u8); empty otherwise.
  DTypeBuffer qinput_;
  ExecPlan eplan_;
};

}  // namespace thali

#endif  // THALI_NN_NETWORK_H_
