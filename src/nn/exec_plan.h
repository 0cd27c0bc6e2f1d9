#ifndef THALI_NN_EXEC_PLAN_H_
#define THALI_NN_EXEC_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/qtensor.h"

namespace thali {

class Network;

// How a network's buffers are planned at Finalize time.
//
//  kTraining  — every layer owns its output and a same-sized delta
//               tensor plus whatever backward caches it needs; batch
//               statistics may be updated. This is the seed behaviour.
//  kInference — no delta tensors, no backward caches, and (unless the
//               THALI_NO_ARENA environment variable is set) layer
//               outputs live at planned offsets inside one shared
//               activation arena, reusing storage between layers whose
//               liveness intervals do not overlap. Forward(train=true)
//               is a programming error on an inference network.
enum class ExecMode { kTraining, kInference };

const char* ExecModeName(ExecMode mode);

// Which activation-statistics pass, if any, the network's Forward is
// currently running (int8 calibration — see Detector::CalibrateInt8).
//
//  kOff   — normal execution. Quantized conv paths may run.
//  kRange — conv layers record the min/max of their fp32 input.
//  kHist  — conv layers accumulate an input histogram over the range
//           found by a prior kRange pass (percentile calibration).
//
// Network::Forward observes the input of every int8-candidate conv
// (LayerPlan::int8_candidate) while a phase is active. Calibration runs
// over a plan compiled without ranges, so every candidate executes its
// fp32 algorithm and the statistics describe the unquantized network.
enum class CalibPhase { kOff, kRange, kHist };

// Memory layout of one layer's activation tensor.
//
//  kNCHW — the Darknet layout every layer uses in training mode: batch
//          item b's channel c plane starts at float (b*C + c)*H*W.
//  kCNHW — the blocked layout the inference plan compiler assigns to
//          backbone conv chains: channel-major with the batch folded
//          inside, plane (c, b) at float (c*N + b)*H*W. At batch 1 the
//          two layouts are byte-identical. CNHW keeps a channel range
//          contiguous at any batch, so route concats become single
//          memcpys (or alias away entirely) and a 1x1 conv is one
//          whole-batch GEMM over an [C, N*H*W] matrix.
enum class ActLayout { kNCHW, kCNHW };

const char* ActLayoutName(ActLayout layout);

// Which convolution algorithm a conv layer's Forward dispatches to. The
// plan compiler resolves it once per compile: conv_algo is exactly what
// executes, and ConvLayer::Forward is one switch over it with no runtime
// fallback. Changing anything the choice depends on (batch-norm folding,
// calibration ranges) goes through Network::ReplanInference.
//
//  kIm2col    — the reference path (im2col + GEMM); always used by
//               training networks and by THALI_NO_FUSE inference, and
//               by fused inference for geometries the fast paths do not
//               cover (stride > 1, ksize other than 1/3).
//  kDirect1x1 — 1x1/stride-1/pad-0: the input planes already form the
//               GEMM B matrix; with CNHW layouts on both sides the
//               whole batch collapses into a single [F,C]x[C,N*H*W]
//               GEMM. Bitwise identical to kIm2col.
//  kWinograd  — F(2x2,3x3) for 3x3/stride-1/pad-1: 2.25x fewer
//               multiplies, no im2col. NOT bitwise identical to the
//               reference (transforms re-associate the 3x3 dot
//               products); covered by the documented fused-plan
//               tolerance (see tensor/winograd.h).
//  kQuantInt8 — per-channel symmetric int8 (tensor/gemm_int8.h) for
//               3x3/pad-1 at stride 1 or 2 (the u8 im2col walks any
//               stride). Resolved only for an int8 candidate (see
//               LayerPlan::int8_candidate) whose batch norm is folded
//               and whose input range is calibrated; an unarmed
//               candidate resolves to kWinograd (stride 1) or kIm2col
//               (stride 2) instead.
//  kQuantInt8Direct1x1 — int8 variant of kDirect1x1 (1x1/stride-1/
//               pad-0): the quantized channel planes ARE the GEMM B
//               matrix, so the path quantizes (or chains) and packs
//               with no im2col at all. Same arming rule; an unarmed
//               candidate resolves to kDirect1x1.
enum class ConvAlgo {
  kIm2col,
  kDirect1x1,
  kWinograd,
  kQuantInt8,
  kQuantInt8Direct1x1,
};

const char* ConvAlgoName(ConvAlgo algo);

// True for kQuantInt8 and kQuantInt8Direct1x1.
inline bool IsInt8ConvAlgo(ConvAlgo algo) {
  return algo == ConvAlgo::kQuantInt8 || algo == ConvAlgo::kQuantInt8Direct1x1;
}

// Per-layer decisions of the inference plan compiler. The default
// constructed value (NCHW in/out, kIm2col, nothing fused, nothing
// elided) reproduces the pre-compiler behaviour exactly and is what
// training networks, standalone layers and THALI_NO_FUSE inference run
// with.
struct LayerPlan {
  ActLayout in_layout = ActLayout::kNCHW;
  ActLayout out_layout = ActLayout::kNCHW;
  ConvAlgo conv_algo = ConvAlgo::kIm2col;
  // The conv may run int8: THALI_INT8 latched, fused plan, int8
  // geometry and (for 3x3s) no NCHW pin. Set whether or not the layer
  // is armed yet — calibration observes exactly these layers, and
  // conv_algo names the int8 algorithm once they are armed.
  bool int8_candidate = false;
  // Route mish activations through the fast vectorized family
  // (tensor/act_kernels.h) instead of libm — fused plans only.
  bool fast_act = false;
  // The layer's output aliases arena storage written by other layers
  // (route view/concat) so its Forward copies nothing. The arena
  // planner places every aliased layer inside its group root's block.
  bool copy_elided = false;

  // --- Quantize-once chaining (filled by Network::ReplanInference once
  // calibration ranges exist; kF32 everywhere before that). ---
  //
  // Dtype of the activation tensor this layer READS and WRITES. kU8
  // means the 7-bit unsigned quantized domain of gemm_int8.h: an
  // in_dtype of kU8 marks a CHAINED layer (it consumes the producer's
  // requantized bytes and never touches fp32 input); an out_dtype of
  // kU8 means every consumer is quantized, so the fp32 arena slot for
  // this layer is never written in steady state.
  DType in_dtype = DType::kF32;
  DType out_dtype = DType::kF32;
  // Quantization domain of the u8 edge tensors (meaningful only when
  // the matching dtype is kU8). One tensor can feed several quantized
  // convs, so the domain is per-TENSOR, not per-consumer: the dtype
  // pass unions the calibrated ranges of every quantized consumer
  // reachable through passthroughs and derives one (scale, zp) for the
  // whole component. A chained conv therefore dequantizes with the
  // edge domain here rather than its own calibrated range.
  float in_qscale = 1.0f;
  float out_qscale = 1.0f;
  int32_t in_qzp = 0;
  int32_t out_qzp = 0;
  // Storage of the u8 tensor this layer writes: index of the layer
  // whose DTypeBuffer holds the bytes (the alias-group root, mirroring
  // the fp32 elision forest) and the byte offset inside it. -1 when
  // out_dtype is kF32.
  int quant_root = -1;
  int64_t quant_offset = 0;
};

// One layer's slot in the activation arena.
struct ArenaAssignment {
  int64_t offset = 0;  // float offset into the arena
  int64_t floats = 0;  // output size in floats
  int first_use = 0;   // layer index producing the buffer
  int last_use = 0;    // last layer index reading it (num_layers = post-
                       // forward consumer: detection heads / final output)
  // The slot is an interior view of another layer's block (copy-elided
  // route slice / adopted concat source / in-place shortcut) — its
  // offset may not be cache-line aligned, so the network binds it with
  // BindExternalAliased instead of BindExternal.
  bool aliased = false;
};

// The planner's result: per-layer offsets plus the headline numbers the
// acceptance bench reports (peak arena floats vs the no-reuse sum).
struct ArenaPlan {
  // False when planning was skipped (training mode or THALI_NO_ARENA);
  // assignments/arena_floats are still filled so reports can show what
  // the planner *would* save.
  bool enabled = false;
  std::vector<ArenaAssignment> assignments;  // one per layer
  int64_t arena_floats = 0;       // peak concurrent footprint (arena size)
  int64_t sum_output_floats = 0;  // one-buffer-per-layer baseline

  // Human-readable planner report: per-layer offset/interval table and
  // the peak-vs-sum summary.
  std::string ToString() const;
};

// The full execution plan Network::Finalize(kInference) compiles: one
// LayerPlan per layer plus the (alias-aware) arena placement.
struct ExecPlan {
  // True when the plan compiler ran with fusion on (inference mode and
  // neither THALI_NO_FUSE nor the testing override disabled it). When
  // false every LayerPlan is default-constructed and the forward pass
  // is bitwise identical to the seed per-layer path.
  bool fused = false;
  std::vector<LayerPlan> layers;  // one per layer
  ArenaPlan arena;

  // Quantize-once chaining stats (zero until ReplanInference installs
  // dtypes): edges whose producer writes u8 (consumer skips
  // quantize+pack-from-fp32), edges where an armed quantized conv must
  // dequantize to fp32 for an unquantized consumer, and layers running
  // in the quantized domain (quantized convs + u8 passthroughs).
  int chained_edges = 0;
  int dequant_edges = 0;
  int quantized_layers = 0;

  // Layer-0 chaining: when layer 0 is a quantized conv, the NETWORK
  // INPUT itself becomes a u8 edge in this domain (derived from layer
  // 0's calibrated input range, which IS the net input's observed
  // range). Network::Forward quantizes the fp32 input once — or the
  // detector's fused letterbox→quantize stages the bytes directly — and
  // layer 0 consumes them like any chained conv.
  bool input_u8 = false;
  float input_qscale = 1.0f;
  int32_t input_qzp = 0;

  // Per-layer table of the compiler's decisions (layouts, conv
  // algorithm, fast activations, elided copies, dtypes).
  std::string ToString() const;
};

// Compiles the execution plan for a configured network.
//
// With fuse=false, every layer gets a default LayerPlan and the arena
// is the plain liveness plan (PlanActivationArena) — the seed
// behaviour. With fuse=true the compiler decides, in order:
//
//  1. Layouts: a fixpoint over the DAG assigns kCNHW to conv-chain
//     interiors. Detection heads, the final output, any layer a
//     non-conv non-passthrough consumer (yolo) reads, and the network
//     input are pinned kNCHW; passthrough layers (route, shortcut,
//     upsample, maxpool) propagate the pin both directions so they are
//     always layout-uniform; convs absorb either layout on either side
//     through GEMM strides, so no standalone convert pass ever runs.
//  2. Conv algorithms: kDirect1x1 / kWinograd / kIm2col by geometry,
//     plus fast_act for mish convs.
//  3. Copy elision (only when arena_enabled): route layers whose
//     sources can legally alias arena storage are folded away — a
//     group-split route becomes a view into its source, a concat route
//     adopts its sources so they write into the concat's block
//     directly (this also folds upsample+route pairs), and a shortcut
//     whose addend dies at the shortcut runs in place. The arena
//     planner then places each alias group as one block.
//
// Elision requires layout-uniform members and (kCNHW or batch == 1) so
// a member's storage is one contiguous range. Requires every layer to
// be configured (shapes known).
// With int8=true (latched from THALI_INT8 by Network::Finalize), step 2
// marks int8 candidates and resolves the armed ones (folded batch norm,
// calibrated range) to kQuantInt8 / kQuantInt8Direct1x1; step 4 then
// chains u8 edges between them.
ExecPlan CompileExecPlan(const Network& net, bool fuse, bool arena_enabled,
                         bool int8 = false);

// Liveness-based first-fit arena planning over the network DAG. A
// layer's output is live from the step that produces it through its last
// consumer — the next layer when it reads its input argument, any
// route/shortcut that references it, and "after the forward pass" for
// detection-head outputs and the network's final output (modelled as a
// consumer at index num_layers). Offsets are assigned greedily in layer
// order, first-fit into gaps left by expired buffers, 16-float aligned.
// Requires every layer to be configured (shapes known).
ArenaPlan PlanActivationArena(const Network& net);

// False when THALI_NO_FUSE=1 (or a testing override) disables the
// inference plan compiler's fused paths. Network::Finalize latches the
// value, so later SetBatch re-plans keep the same decision.
bool FusionEnabled();

// True when THALI_INT8 opts the int8 conv path in (set and not "0").
// Unlike the other knobs this one is opt-IN: default builds never
// quantize. Network::Finalize latches the value like FusionEnabled.
bool Int8Enabled();

namespace internal {

// Force fusion on (1) / off (0) or restore the THALI_NO_FUSE
// environment default (-1).
void SetFusionForTesting(int enabled);

// True when the given THALI_NO_FUSE value disables fusion (any
// non-empty string except "0").
bool NoFuseEnvValueDisables(const char* value);

// Force int8 on (1) / off (0) or restore the THALI_INT8 environment
// default (-1).
void SetInt8ForTesting(int enabled);

// True when the given THALI_INT8 value enables int8 (set and not "0").
bool Int8EnvValueEnables(const char* value);

}  // namespace internal

}  // namespace thali

#endif  // THALI_NN_EXEC_PLAN_H_
