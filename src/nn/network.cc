#include "nn/network.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "nn/conv_layer.h"
#include "tensor/gemm_int8.h"

namespace thali {

namespace {

bool ArenaDisabledByEnv() {
  const char* env = std::getenv("THALI_NO_ARENA");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

Network::Network(int width, int height, int channels, int batch)
    : width_(width), height_(height), channels_(channels), batch_(batch) {
  THALI_CHECK_GT(width, 0);
  THALI_CHECK_GT(height, 0);
  THALI_CHECK_GT(channels, 0);
  THALI_CHECK_GT(batch, 0);
}

void Network::Add(std::unique_ptr<Layer> layer) {
  THALI_CHECK(!finalized_) << "Add after Finalize";
  layer->set_index(num_layers());
  layers_.push_back(std::move(layer));
}

Status Network::Finalize(ExecMode mode) {
  THALI_CHECK(!finalized_);
  if (layers_.empty()) return Status::InvalidArgument("empty network");
  mode_ = mode;
  // Latched here so later SetBatch re-plans keep the same decision even
  // if the environment changes while the process runs.
  arena_disabled_ = ArenaDisabledByEnv();
  fuse_disabled_ = !FusionEnabled();
  int8_enabled_ = mode == ExecMode::kInference && Int8Enabled();
  Shape prev = input_shape();
  for (auto& layer : layers_) {
    layer->set_exec_mode(mode_);
    THALI_RETURN_IF_ERROR(layer->Configure(prev, *this));
    prev = layer->output_shape();
  }
  PlanBuffers();
  // Workspace sizing happens after the plan is compiled: a layer's
  // scratch need depends on its planned conv algorithm (im2col panels
  // vs Winograd transform buffers).
  int64_t max_ws = 0;
  for (auto& layer : layers_) {
    max_ws = std::max(max_ws, layer->WorkspaceSize());
  }
  workspace_floats_ = max_ws;
  workspaces_.resize(static_cast<size_t>(MaxParallelism()));
  for (Tensor& ws : workspaces_) ws.Resize(Shape({max_ws}));
  finalized_ = true;
  return Status::OK();
}

Status Network::SetBatch(int batch) {
  THALI_CHECK(finalized_) << "SetBatch before Finalize";
  THALI_CHECK_GT(batch, 0);
  if (batch == batch_) return Status::OK();
  batch_ = batch;
  Shape prev = input_shape();
  for (auto& layer : layers_) {
    THALI_RETURN_IF_ERROR(layer->Rebatch(prev, *this));
    prev = layer->output_shape();
  }
  // Re-compile the plan first — batch size changes which copy elisions
  // are legal — then re-derive workspace needs under the fresh plan
  // (grow-only; per-item scratch is batch-independent for every
  // current layer, but a re-plan could in principle change algorithms).
  PlanBuffers();
  int64_t max_ws = 0;
  for (auto& layer : layers_) {
    max_ws = std::max(max_ws, layer->WorkspaceSize());
  }
  if (max_ws > workspace_floats_) {
    workspace_floats_ = max_ws;
    for (Tensor& ws : workspaces_) ws.Resize(Shape({max_ws}));
  }
  return Status::OK();
}

Status Network::ReplanInference() {
  THALI_CHECK(finalized_) << "ReplanInference before Finalize";
  if (mode_ != ExecMode::kInference) return Status::OK();
  PlanBuffers();
  // Grow-only workspace re-derivation, like SetBatch: a freshly chained
  // plan can change per-layer scratch needs (e.g. a conv that now skips
  // its fp32 im2col panel never needs MORE, but keep the general form).
  int64_t max_ws = 0;
  for (auto& layer : layers_) {
    max_ws = std::max(max_ws, layer->WorkspaceSize());
  }
  if (max_ws > workspace_floats_) {
    workspace_floats_ = max_ws;
    for (Tensor& ws : workspaces_) ws.Resize(Shape({max_ws}));
  }
  return Status::OK();
}

Status Network::FoldBatchNorm() {
  for (auto& layer : layers_) {
    if (std::string_view(layer->kind()) == "convolutional") {
      static_cast<ConvLayer&>(*layer).FoldBatchNorm();
    }
  }
  return ReplanInference();
}

void Network::PlanBuffers() {
  const bool fuse = mode_ == ExecMode::kInference && !fuse_disabled_;
  const bool use_arena = mode_ == ExecMode::kInference && !arena_disabled_;
  eplan_ = CompileExecPlan(*this, fuse, use_arena, fuse && int8_enabled_);
  for (int i = 0; i < num_layers(); ++i) {
    layers_[static_cast<size_t>(i)]->set_plan(
        eplan_.layers[static_cast<size_t>(i)]);
  }
  // u8 chain storage: one block per alias-group root the dtype pass
  // marked kU8 (mirrors the fp32 arena's alias forest; empty without
  // chains), then the resolved per-layer base pointers. Root blocks are
  // allocated before any pointer resolves into them.
  qbufs_.clear();
  qbufs_.resize(static_cast<size_t>(num_layers()));
  qact_.assign(static_cast<size_t>(num_layers()), nullptr);
  for (int i = 0; i < num_layers(); ++i) {
    const LayerPlan& lp = eplan_.layers[static_cast<size_t>(i)];
    if (lp.out_dtype == DType::kU8 && lp.quant_root == i) {
      qbufs_[static_cast<size_t>(i)].Resize(
          DType::kU8, layers_[static_cast<size_t>(i)]->output_shape());
    }
  }
  for (int i = 0; i < num_layers(); ++i) {
    const LayerPlan& lp = eplan_.layers[static_cast<size_t>(i)];
    if (lp.out_dtype == DType::kU8) {
      qact_[static_cast<size_t>(i)] =
          qbufs_[static_cast<size_t>(lp.quant_root)].raw() + lp.quant_offset;
    }
  }
  // Quantized network input when the chain reaches layer 0; Forward (or
  // the detector's fused letterbox-quantize) fills it each call.
  if (eplan_.input_u8) {
    qinput_.Resize(DType::kU8, input_shape());
  } else {
    qinput_.Clear();
  }
  input_prequantized_ = false;
  // Plan-derived layer state (conv packed weights and resolved kernels)
  // recomputes once here instead of per Forward.
  for (auto& layer : layers_) layer->OnPlanUpdated();
  if (mode_ != ExecMode::kInference) return;  // SetShapes owns the buffers
  if (use_arena) {
    // Slots are 16-float (64-byte) aligned relative to the arena base,
    // but vector<float> storage only guarantees 16 bytes — over-allocate
    // and align the base up so BindExternal's cache-line contract holds.
    arena_.Resize(Shape({eplan_.arena.arena_floats + 15}));
    const uintptr_t raw = reinterpret_cast<uintptr_t>(arena_.data());
    float* base = reinterpret_cast<float*>((raw + 63) & ~uintptr_t{63});
    for (int i = 0; i < num_layers(); ++i) {
      const ArenaAssignment& slot =
          eplan_.arena.assignments[static_cast<size_t>(i)];
      Tensor& out = layers_[static_cast<size_t>(i)]->output();
      if (slot.aliased) {
        // Interior view of another layer's block (copy-elided route /
        // adopted concat source / in-place shortcut): arbitrary offset.
        out.BindExternalAliased(base + slot.offset,
                                layers_[static_cast<size_t>(i)]
                                    ->output_shape());
      } else {
        out.BindExternal(base + slot.offset, layers_[static_cast<size_t>(i)]
                                                 ->output_shape());
      }
    }
  } else {
    arena_ = Tensor();
    for (auto& layer : layers_) {
      // THALI_NO_ARENA fallback: per-layer owned outputs, as in training
      // mode (a previously bound output is replaced by owned storage).
      layer->output() = Tensor(layer->output_shape());
    }
  }
}

int64_t Network::ActivationBytes() const {
  int64_t floats = 0;
  if (mode_ == ExecMode::kInference) {
    if (eplan_.arena.enabled) {
      floats = eplan_.arena.arena_floats;
    } else {
      floats = eplan_.arena.sum_output_floats;
    }
  } else {
    for (const auto& layer : layers_) {
      floats += layer->output().size() + layer->delta().size();
    }
  }
  return floats * static_cast<int64_t>(sizeof(float));
}

float* Network::workspace(int tid, int64_t required) {
  THALI_CHECK_GE(tid, 0);
  THALI_CHECK_LT(tid, workspace_slots());
  THALI_CHECK_LE(required, workspace_floats_)
      << "layer requests " << required << " workspace floats but Finalize() "
      << "sized " << workspace_floats_;
  return workspaces_[static_cast<size_t>(tid)].data();
}

const Tensor& Network::Forward(const Tensor& input, bool train) {
  THALI_CHECK(finalized_);
  THALI_CHECK(!(train && mode_ == ExecMode::kInference))
      << "Forward(train=true) on an inference-mode network";
  THALI_CHECK(input.shape() == input_shape())
      << "input " << input.shape().ToString() << " vs net "
      << input_shape().ToString();
  if (eplan_.input_u8) {
    // Layer 0 consumes quantized input bytes. Either the caller staged
    // them already (the detector's fused letterbox-quantize, armed
    // one-shot via set_input_prequantized) or we quantize the fp32
    // input here with the plan's input domain — the same shared
    // quantizer, so both routes produce identical bytes.
    if (!input_prequantized_) {
      Int8QuantizeActivations(input.data(), input.size(),
                              1.0f / eplan_.input_qscale, eplan_.input_qzp,
                              qinput_.raw());
    }
    input_prequantized_ = false;
  }
  // Calibration observes the fp32 input of every int8 candidate, so it
  // must run over a plan that resolved none of them to int8.
  THALI_CHECK(calib_phase_ == CalibPhase::kOff || eplan_.quantized_layers == 0)
      << "calibration forward over an int8 plan: ResetCalibration and "
         "ReplanInference first";
  const Tensor* x = &input;
  for (auto& layer : layers_) {
    if (calib_phase_ != CalibPhase::kOff && layer->plan().int8_candidate) {
      static_cast<ConvLayer&>(*layer).ObserveCalibration(*x, calib_phase_);
    }
    layer->Forward(*x, *this, train);
    x = &layer->output();
  }
  return *x;
}

void Network::Backward(const Tensor& input) {
  THALI_CHECK(finalized_);
  THALI_CHECK(mode_ == ExecMode::kTraining)
      << "Backward on an inference-mode network";
  for (int i = num_layers() - 1; i >= 0; --i) {
    const Tensor& in = i == 0 ? input : layers_[i - 1]->output();
    Tensor* in_delta = i == 0 ? nullptr : &layers_[i - 1]->delta();
    layers_[i]->Backward(in, in_delta, *this);
  }
}

void Network::ZeroDeltas() {
  THALI_CHECK(mode_ == ExecMode::kTraining)
      << "ZeroDeltas on an inference-mode network";
  for (auto& layer : layers_) layer->delta().Zero();
}

void Network::ZeroGrads() {
  for (auto& layer : layers_) {
    for (const Param& p : layer->Params()) p.grad->Zero();
  }
}

int Network::ResolveIndex(int ref, int at) const {
  const int idx = ref < 0 ? at + ref : ref;
  THALI_CHECK_GE(idx, 0) << "bad layer reference " << ref << " at " << at;
  THALI_CHECK_LT(idx, num_layers());
  return idx;
}

std::vector<Param> Network::TrainableParams() {
  std::vector<Param> out;
  for (auto& layer : layers_) {
    if (layer->frozen()) continue;
    for (Param& p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Param> Network::AllParams() {
  std::vector<Param> out;
  for (auto& layer : layers_) {
    for (Param& p : layer->Params()) out.push_back(p);
  }
  return out;
}

int64_t Network::NumParameters() const {
  int64_t n = 0;
  for (const auto& layer : layers_) {
    const Layer& l = *layer;
    for (const ConstParam& p : l.Params()) n += p.value->size();
  }
  return n;
}

void Network::FreezeUpTo(int cutoff) {
  for (int i = 0; i < num_layers() && i < cutoff; ++i) {
    layers_[static_cast<size_t>(i)]->set_frozen(true);
  }
}

}  // namespace thali
