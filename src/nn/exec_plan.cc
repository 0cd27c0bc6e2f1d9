#include "nn/exec_plan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "base/string_util.h"
#include "nn/conv_layer.h"
#include "nn/network.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"
#include "tensor/gemm_int8.h"

namespace thali {

namespace {

// Arena offsets are aligned to 16 floats (64 bytes) so no two layers'
// buffers share a cache line and vectorized kernels see aligned bases.
constexpr int64_t kArenaAlignFloats = 16;

int64_t AlignUp(int64_t v) {
  return (v + kArenaAlignFloats - 1) / kArenaAlignFloats * kArenaAlignFloats;
}

std::atomic<int> g_fuse_override{-1};
std::atomic<int> g_int8_override{-1};

// Layers the `input` argument and ExtraInputIndices say layer i reads.
std::vector<int> InputsOf(const Network& net, int i) {
  std::vector<int> in;
  if (i > 0 && net.layer(i).ReadsPreviousOutput()) in.push_back(i - 1);
  for (int s : net.layer(i).ExtraInputIndices()) in.push_back(s);
  return in;
}

// Liveness: last layer index that reads each output. Index n is the
// virtual post-forward consumer (detection decoding / returned output).
std::vector<int> ComputeLastUse(const Network& net) {
  const int n = net.num_layers();
  std::vector<int> last_use(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) last_use[static_cast<size_t>(i)] = i;
  for (int j = 0; j < n; ++j) {
    for (int src : InputsOf(net, j)) {
      THALI_CHECK_GE(src, 0);
      THALI_CHECK_LT(src, j);
      last_use[static_cast<size_t>(src)] =
          std::max(last_use[static_cast<size_t>(src)], j);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (net.layer(i).OutputLiveAfterForward() || i == n - 1) {
      last_use[static_cast<size_t>(i)] = n;
    }
  }
  return last_use;
}

// Greedy first-fit placement over alias groups. `parent`/`poffset`
// describe the alias forest the elision pass built: layer i's storage
// lives at float offset poffset[i] inside parent[i]'s storage (-1 for
// roots). A group (a root and all its transitive children) is one
// block, sized by the root's output, allocated when the group's
// earliest member runs, and live until the latest member's last use.
// With an empty forest (all parents -1) every group is a singleton and
// this reduces exactly to the original per-layer first-fit.
ArenaPlan PlanArenaGrouped(const Network& net, const std::vector<int>& last_use,
                           const std::vector<int>& parent,
                           const std::vector<int64_t>& poffset) {
  const int n = net.num_layers();
  ArenaPlan plan;
  plan.assignments.resize(static_cast<size_t>(n));

  // Resolve each layer to (root, total offset inside the root's block).
  std::vector<int> root(static_cast<size_t>(n));
  std::vector<int64_t> roff(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int r = i;
    int64_t off = 0;
    while (parent[static_cast<size_t>(r)] >= 0) {
      off += poffset[static_cast<size_t>(r)];
      r = parent[static_cast<size_t>(r)];
    }
    root[static_cast<size_t>(i)] = r;
    roff[static_cast<size_t>(i)] = off;
  }

  // Group extents: first member's step through last member's last use.
  std::vector<int> gstart(static_cast<size_t>(n),
                          std::numeric_limits<int>::max());
  std::vector<int> gend(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int r = root[static_cast<size_t>(i)];
    gstart[static_cast<size_t>(r)] = std::min(gstart[static_cast<size_t>(r)], i);
    gend[static_cast<size_t>(r)] =
        std::max(gend[static_cast<size_t>(r)], last_use[static_cast<size_t>(i)]);
  }

  // First-fit in execution order. A block whose group's last consumer
  // precedes the current step is expired and its span becomes a gap;
  // a group's block takes the lowest-offset gap it fits into at the
  // step its first member runs.
  struct LiveBlock {
    int64_t offset;
    int64_t floats;
    int last_use;
  };
  std::vector<LiveBlock> live;
  std::vector<int64_t> goffset(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int64_t floats = net.layer(i).output_shape().num_elements();
    plan.sum_output_floats += floats;
    const int r = root[static_cast<size_t>(i)];
    if (gstart[static_cast<size_t>(r)] == i) {
      const int64_t gfloats = net.layer(r).output_shape().num_elements();
      live.erase(std::remove_if(live.begin(), live.end(),
                                [i](const LiveBlock& b) { return b.last_use < i; }),
                 live.end());
      std::sort(live.begin(), live.end(),
                [](const LiveBlock& a, const LiveBlock& b) {
                  return a.offset < b.offset;
                });
      int64_t offset = 0;
      for (const LiveBlock& b : live) {
        if (offset + gfloats <= b.offset) break;
        offset = AlignUp(std::max(offset, b.offset + b.floats));
      }
      goffset[static_cast<size_t>(r)] = offset;
      live.push_back({offset, gfloats, gend[static_cast<size_t>(r)]});
      plan.arena_floats = std::max(plan.arena_floats, offset + gfloats);
    }
    THALI_CHECK_LE(roff[static_cast<size_t>(i)] + floats,
                   net.layer(r).output_shape().num_elements());
    ArenaAssignment& a = plan.assignments[static_cast<size_t>(i)];
    a.offset = goffset[static_cast<size_t>(r)] + roff[static_cast<size_t>(i)];
    a.floats = floats;
    a.first_use = i;
    a.last_use = last_use[static_cast<size_t>(i)];
    a.aliased = parent[static_cast<size_t>(i)] >= 0;
  }
  return plan;
}

}  // namespace

const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kTraining ? "training" : "inference";
}

const char* ActLayoutName(ActLayout layout) {
  return layout == ActLayout::kNCHW ? "nchw" : "cnhw";
}

const char* ConvAlgoName(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect1x1:
      return "direct1x1";
    case ConvAlgo::kWinograd:
      return "winograd";
    case ConvAlgo::kQuantInt8:
      return "int8";
    case ConvAlgo::kQuantInt8Direct1x1:
      return "int8-1x1";
    default:
      return "im2col";
  }
}

bool FusionEnabled() {
  const int o = g_fuse_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return !internal::NoFuseEnvValueDisables(std::getenv("THALI_NO_FUSE"));
}

bool Int8Enabled() {
  const int o = g_int8_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return internal::Int8EnvValueEnables(std::getenv("THALI_INT8"));
}

namespace internal {

void SetFusionForTesting(int enabled) {
  g_fuse_override.store(enabled, std::memory_order_relaxed);
}

bool NoFuseEnvValueDisables(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

void SetInt8ForTesting(int enabled) {
  g_int8_override.store(enabled, std::memory_order_relaxed);
}

bool Int8EnvValueEnables(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace internal

ArenaPlan PlanActivationArena(const Network& net) {
  const int n = net.num_layers();
  return PlanArenaGrouped(net, ComputeLastUse(net),
                          std::vector<int>(static_cast<size_t>(n), -1),
                          std::vector<int64_t>(static_cast<size_t>(n), 0));
}

ExecPlan CompileExecPlan(const Network& net, bool fuse, bool arena_enabled,
                         bool int8) {
  const int n = net.num_layers();
  ExecPlan plan;
  plan.fused = fuse;
  plan.layers.resize(static_cast<size_t>(n));
  const std::vector<int> last_use = ComputeLastUse(net);
  std::vector<int> parent(static_cast<size_t>(n), -1);
  std::vector<int64_t> poffset(static_cast<size_t>(n), 0);

  if (fuse) {
    // Layer classes: convs are layout-polymorphic (strided GEMMs absorb
    // either layout on either side); passthrough layers work in any
    // layout but must be layout-uniform; everything else (yolo) indexes
    // NCHW explicitly and pins itself and its sources.
    enum Class { kConv, kPass, kOther };
    std::vector<Class> cls(static_cast<size_t>(n), kOther);
    for (int i = 0; i < n; ++i) {
      const std::string_view kind = net.layer(i).kind();
      if (kind == "convolutional") {
        cls[static_cast<size_t>(i)] = kConv;
      } else if (kind == "route" || kind == "shortcut" || kind == "upsample" ||
                 kind == "maxpool") {
        cls[static_cast<size_t>(i)] = kPass;
      }
    }

    // 1. Layout fixpoint. forced[i] == layer i's output must be NCHW.
    // Seeds: the final output, anything consumed post-forward, every
    // kOther layer and its sources, and (implicitly) the network input.
    // Passthrough layers propagate the pin both ways until stable, so a
    // passthrough's inputs always share its output layout; convs stop
    // the propagation.
    std::vector<char> forced(static_cast<size_t>(n), 0);
    forced[static_cast<size_t>(n - 1)] = 1;
    for (int i = 0; i < n; ++i) {
      if (net.layer(i).OutputLiveAfterForward()) forced[static_cast<size_t>(i)] = 1;
      if (cls[static_cast<size_t>(i)] == kOther) {
        forced[static_cast<size_t>(i)] = 1;
        for (int s : InputsOf(net, i)) forced[static_cast<size_t>(s)] = 1;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (int i = 0; i < n; ++i) {
        if (cls[static_cast<size_t>(i)] != kPass) continue;
        bool in_nchw = i == 0 && net.layer(i).ReadsPreviousOutput();
        const std::vector<int> ins = InputsOf(net, i);
        for (int s : ins) in_nchw = in_nchw || forced[static_cast<size_t>(s)];
        if (in_nchw && !forced[static_cast<size_t>(i)]) {
          forced[static_cast<size_t>(i)] = 1;
          changed = true;
        }
        if (forced[static_cast<size_t>(i)]) {
          for (int s : ins) {
            if (!forced[static_cast<size_t>(s)]) {
              forced[static_cast<size_t>(s)] = 1;
              changed = true;
            }
          }
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      plan.layers[static_cast<size_t>(i)].out_layout =
          forced[static_cast<size_t>(i)] ? ActLayout::kNCHW : ActLayout::kCNHW;
    }
    for (int i = 0; i < n; ++i) {
      LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
      switch (cls[static_cast<size_t>(i)]) {
        case kConv:
          lp.in_layout = i == 0 ? ActLayout::kNCHW
                                : plan.layers[static_cast<size_t>(i - 1)].out_layout;
          break;
        case kPass:
          lp.in_layout = lp.out_layout;  // uniform by fixpoint
          break;
        case kOther:
          lp.in_layout = ActLayout::kNCHW;
          break;
      }
    }

    // 2. Conv algorithm and fast-activation selection by geometry. An
    // int8 candidate resolves to its quantized algorithm only once it
    // is armed (batch norm folded, input range calibrated); until then
    // it runs the fp32 algorithm of its geometry.
    for (int i = 0; i < n; ++i) {
      if (cls[static_cast<size_t>(i)] != kConv) continue;
      LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
      const auto& cv = static_cast<const ConvLayer&>(net.layer(i));
      const auto& o = cv.options();
      const bool pinned = forced[static_cast<size_t>(i)];
      ConvAlgo quant = ConvAlgo::kQuantInt8;
      if (o.ksize == 1 && o.stride == 1 && o.pad == 0) {
        // int8 takes 1x1s regardless of layout pins — like kDirect1x1,
        // the quantized GEMM absorbs layouts through strides, so even
        // the NCHW-pinned head feeders quantize (their f32 output is a
        // dequant edge into the yolo heads).
        lp.conv_algo = ConvAlgo::kDirect1x1;
        lp.int8_candidate = int8;
        quant = ConvAlgo::kQuantInt8Direct1x1;
      } else if (o.ksize == 3 && o.stride == 1 && o.pad == 1) {
        // int8 takes the Winograd geometry, but NCHW-pinned convs stay
        // fp32 to protect whatever consumer forced the pin (in the
        // thali net the head feeders are 1x1 direct convs, already
        // fp32; the guard covers pinned 3x3s in other topologies).
        lp.conv_algo = ConvAlgo::kWinograd;
        lp.int8_candidate = int8 && !pinned;
      } else {
        // Strided 3x3 (the thali downsampling prefix, convs 0-1): no
        // Winograd form exists, but the u8 im2col already walks any
        // stride, so int8 takes it; fp32 plans stay on im2col.
        lp.conv_algo = ConvAlgo::kIm2col;
        lp.int8_candidate =
            int8 && !pinned && o.ksize == 3 && o.stride == 2 && o.pad == 1;
      }
      if (lp.int8_candidate && !o.batch_normalize &&
          cv.has_activation_range()) {
        lp.conv_algo = quant;
      }
      lp.fast_act = o.activation == Activation::kMish;
    }

    // 3. Copy elision. Only legal with the arena (aliases are offsets
    // into shared storage) and when a channel range is one contiguous
    // span: CNHW at any batch, or any layout at batch 1.
    if (arena_enabled) {
      const int64_t batch = net.batch();
      std::vector<char> has_child(static_cast<size_t>(n), 0);
      auto resolve_root = [&](int i) {
        while (parent[static_cast<size_t>(i)] >= 0) {
          i = parent[static_cast<size_t>(i)];
        }
        return i;
      };
      for (int r = 0; r < n; ++r) {
        const std::string_view kind = net.layer(r).kind();
        LayerPlan& lp = plan.layers[static_cast<size_t>(r)];
        const bool span_ok =
            lp.in_layout == lp.out_layout &&
            (lp.out_layout == ActLayout::kCNHW || batch == 1);
        if (!span_ok) continue;
        if (kind == "route") {
          const auto& rt = static_cast<const RouteLayer&>(net.layer(r));
          const std::vector<int>& srcs = rt.source_indices();
          const int64_t plane =
              batch * net.layer(r).output_shape().dim(2) *
              net.layer(r).output_shape().dim(3);
          if (srcs.size() == 1) {
            // Group-split view: the route's output is a contiguous
            // channel slice of its (sole) source; alias it in place.
            // Safe even when the source is itself aliased — the route
            // writes nothing.
            parent[static_cast<size_t>(r)] = srcs[0];
            poffset[static_cast<size_t>(r)] =
                rt.source_offsets()[0] * plane;
            has_child[static_cast<size_t>(srcs[0])] = 1;
            lp.copy_elided = true;
            continue;
          }
          // Concat adoption: every source writes its output directly
          // into the concat's block (this folds upsample+route pairs
          // too). All-or-nothing — a source that is partial (grouped
          // slice), already aliased elsewhere, or repeated keeps the
          // whole route on the plain copy path.
          bool ok = true;
          for (size_t s = 0; s < srcs.size() && ok; ++s) {
            const int src = srcs[s];
            ok = rt.source_offsets()[s] == 0 &&
                 rt.source_channels()[s] ==
                     net.layer(src).output_shape().dim(1) &&
                 parent[static_cast<size_t>(src)] == -1 &&
                 resolve_root(src) == src;
            for (size_t t = 0; t < s && ok; ++t) ok = srcs[t] != src;
          }
          if (!ok) continue;
          int64_t chan_base = 0;
          for (size_t s = 0; s < srcs.size(); ++s) {
            parent[static_cast<size_t>(srcs[s])] = r;
            poffset[static_cast<size_t>(srcs[s])] = chan_base * plane;
            chan_base += rt.source_channels()[s];
          }
          has_child[static_cast<size_t>(r)] = 1;
          lp.copy_elided = true;
        } else if (kind == "shortcut" && r > 0) {
          // In-place residual add: output aliases the previous layer's
          // block when nothing reads that block after this step and it
          // is not shared with anyone else. The elementwise o=a+b reads
          // each element before overwriting it, so no code change is
          // needed in the layer.
          const int prev = r - 1;
          if (last_use[static_cast<size_t>(prev)] == r &&
              parent[static_cast<size_t>(prev)] == -1 &&
              !has_child[static_cast<size_t>(prev)] &&
              net.layer(prev).output_shape().num_elements() ==
                  net.layer(r).output_shape().num_elements()) {
            parent[static_cast<size_t>(r)] = prev;
            poffset[static_cast<size_t>(r)] = 0;
            has_child[static_cast<size_t>(prev)] = 1;
            lp.copy_elided = true;
          }
        }
      }
    }

    // 4. Quantize-once dtype assignment. A u8 edge means the producer's
    // requantize epilogue emits 7-bit bytes in the edge domain and the
    // consumer skips quantize + pack-from-fp32. The pass only sees
    // chains once step 2 armed quantized convs: the Finalize-time
    // compile is chain-free (nothing is calibrated yet) and
    // Network::ReplanInference recompiles after Detector::CalibrateInt8
    // or LoadCalibration installs ranges. Dropping ranges
    // (ResetCalibration) must likewise replan, because a quantized conv
    // has no fp32 fallback.
    if (int8) {
      // qconv: convs step 2 resolved to a quantized algorithm. qprod:
      // qconv whose activation the requantize epilogue can apply
      // (linear/leaky/relu, mish through the FastMish family) so its
      // OUTPUT may be u8. qpass: layout-uniform passthroughs that move
      // u8 bytes exactly — max and concat/upsample copies commute with
      // the monotonic quantizer, shortcut's clamped add needs a linear
      // activation; a passthrough reading the fp32 network input can
      // never be u8.
      std::vector<char> qconv(static_cast<size_t>(n), 0);
      std::vector<char> qprod(static_cast<size_t>(n), 0);
      std::vector<char> qpass(static_cast<size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (cls[static_cast<size_t>(i)] == kConv) {
          if (!IsInt8ConvAlgo(lp.conv_algo)) continue;
          qconv[static_cast<size_t>(i)] = 1;
          const Activation a =
              static_cast<const ConvLayer&>(net.layer(i)).options().activation;
          qprod[static_cast<size_t>(i)] =
              a == Activation::kLinear || a == Activation::kLeaky ||
              a == Activation::kRelu ||
              (a == Activation::kMish && lp.fast_act);
        } else if (cls[static_cast<size_t>(i)] == kPass) {
          bool ok = lp.in_layout == lp.out_layout &&
                    !(i == 0 && net.layer(i).ReadsPreviousOutput());
          if (ok && net.layer(i).kind() == std::string_view("shortcut")) {
            ok = static_cast<const ShortcutLayer&>(net.layer(i))
                     .options()
                     .activation == Activation::kLinear;
          }
          qpass[static_cast<size_t>(i)] = ok;
        }
      }

      // f32[i] == layer i's OUTPUT tensor must stay fp32. Seeds: the
      // network output, post-forward consumers (yolo head inputs), any
      // layer that cannot emit u8, and the sources of any consumer that
      // cannot read u8. Passthroughs propagate the force both ways (they
      // cannot convert), exactly like the layout fixpoint above.
      std::vector<char> f32(static_cast<size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        if (i == n - 1 || net.layer(i).OutputLiveAfterForward() ||
            (!qprod[static_cast<size_t>(i)] &&
             !qpass[static_cast<size_t>(i)])) {
          f32[static_cast<size_t>(i)] = 1;
        }
        if (!qconv[static_cast<size_t>(i)] &&
            !qpass[static_cast<size_t>(i)]) {
          for (int s : InputsOf(net, i)) f32[static_cast<size_t>(s)] = 1;
        }
      }
      bool dchanged = true;
      while (dchanged) {
        dchanged = false;
        for (int i = 0; i < n; ++i) {
          if (!qpass[static_cast<size_t>(i)]) continue;
          const std::vector<int> ins = InputsOf(net, i);
          bool in_f32 = false;
          for (int s : ins) in_f32 = in_f32 || f32[static_cast<size_t>(s)];
          if (in_f32 && !f32[static_cast<size_t>(i)]) {
            f32[static_cast<size_t>(i)] = 1;
            dchanged = true;
          }
          if (f32[static_cast<size_t>(i)]) {
            for (int s : ins) {
              if (!f32[static_cast<size_t>(s)]) {
                f32[static_cast<size_t>(s)] = 1;
                dchanged = true;
              }
            }
          }
        }
      }

      // One tensor can reach several quantized convs through
      // passthroughs (which move bytes without requantizing), so the u8
      // domain is per connected COMPONENT: union-find joins every u8
      // passthrough with its inputs, and the component's range is the
      // union of the calibrated ranges of every quantized conv reading
      // any member tensor.
      std::vector<int> uf(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) uf[static_cast<size_t>(i)] = i;
      auto find = [&uf](int x) {
        while (uf[static_cast<size_t>(x)] != x) {
          uf[static_cast<size_t>(x)] =
              uf[static_cast<size_t>(uf[static_cast<size_t>(x)])];
          x = uf[static_cast<size_t>(x)];
        }
        return x;
      };
      for (int i = 0; i < n; ++i) {
        if (!qpass[static_cast<size_t>(i)] || f32[static_cast<size_t>(i)]) {
          continue;
        }
        for (int s : InputsOf(net, i)) {
          const int a = find(i);
          const int b = find(s);
          if (a != b) uf[static_cast<size_t>(a)] = b;
        }
      }
      std::vector<float> cmin(static_cast<size_t>(n), 0.0f);
      std::vector<float> cmax(static_cast<size_t>(n), 0.0f);
      std::vector<char> chas(static_cast<size_t>(n), 0);
      for (int j = 0; j < n; ++j) {
        if (!qconv[static_cast<size_t>(j)]) continue;
        const auto& cv = static_cast<const ConvLayer&>(net.layer(j));
        for (int s : InputsOf(net, j)) {
          if (f32[static_cast<size_t>(s)]) continue;
          const int r = find(s);
          if (!chas[static_cast<size_t>(r)]) {
            cmin[static_cast<size_t>(r)] = cv.activation_range_min();
            cmax[static_cast<size_t>(r)] = cv.activation_range_max();
            chas[static_cast<size_t>(r)] = 1;
          } else {
            cmin[static_cast<size_t>(r)] = std::min(
                cmin[static_cast<size_t>(r)], cv.activation_range_min());
            cmax[static_cast<size_t>(r)] = std::max(
                cmax[static_cast<size_t>(r)], cv.activation_range_max());
          }
        }
      }
      // A u8 component no quantized conv ever reads has no domain; only
      // dead subgraphs could produce one, but fp32 is always safe.
      // Forcing the WHOLE component keeps passthrough in/out dtypes
      // consistent without re-running the fixpoint.
      for (int i = 0; i < n; ++i) {
        if (!f32[static_cast<size_t>(i)] && !chas[static_cast<size_t>(find(i))]) {
          f32[static_cast<size_t>(i)] = 1;
        }
      }
      std::vector<float> cscale(static_cast<size_t>(n), 1.0f);
      std::vector<int32_t> czp(static_cast<size_t>(n), 0);
      for (int r = 0; r < n; ++r) {
        if (chas[static_cast<size_t>(r)]) {
          Int8RangeToScaleZp(cmin[static_cast<size_t>(r)],
                             cmax[static_cast<size_t>(r)],
                             &cscale[static_cast<size_t>(r)],
                             &czp[static_cast<size_t>(r)]);
        }
      }

      // Annotate the plan. u8 storage reuses the copy-elision alias
      // forest: a u8 layer's root is provably u8 too (alias edges only
      // link layers whose dtypes the fixpoint tied together), so the
      // network can allocate one u8 block per root and the element
      // offsets inside the fp32 block double as byte offsets.
      for (int i = 0; i < n; ++i) {
        LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (f32[static_cast<size_t>(i)]) continue;
        lp.out_dtype = DType::kU8;
        const int r = find(i);
        lp.out_qscale = cscale[static_cast<size_t>(r)];
        lp.out_qzp = czp[static_cast<size_t>(r)];
        int root = i;
        int64_t off = 0;
        while (parent[static_cast<size_t>(root)] >= 0) {
          off += poffset[static_cast<size_t>(root)];
          root = parent[static_cast<size_t>(root)];
        }
        lp.quant_root = root;
        lp.quant_offset = off;
      }
      for (int i = 0; i < n; ++i) {
        const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (lp.out_dtype == DType::kU8) {
          THALI_CHECK(plan.layers[static_cast<size_t>(lp.quant_root)]
                          .out_dtype == DType::kU8);
        }
      }
      for (int j = 0; j < n; ++j) {
        LayerPlan& lp = plan.layers[static_cast<size_t>(j)];
        if (!qconv[static_cast<size_t>(j)] && !qpass[static_cast<size_t>(j)]) {
          continue;
        }
        const std::vector<int> ins = InputsOf(net, j);
        bool all_u8 = !ins.empty();
        for (int s : ins) {
          all_u8 = all_u8 &&
                   plan.layers[static_cast<size_t>(s)].out_dtype == DType::kU8;
        }
        if (!all_u8) continue;
        lp.in_dtype = DType::kU8;
        const int r = find(ins[0]);
        lp.in_qscale = cscale[static_cast<size_t>(r)];
        lp.in_qzp = czp[static_cast<size_t>(r)];
      }
      // Layer-0 chaining: the network input is an edge InputsOf cannot
      // express (layer 0 has no producer layer). When layer 0 is a
      // quantized conv, the input becomes a u8 edge whose domain is
      // layer 0's calibrated activation range — by definition the
      // observed range of the net input itself. Network::Forward (or
      // the detector's fused letterbox-quantize) supplies the bytes.
      if (n > 0 && qconv[0] && net.layer(0).ReadsPreviousOutput()) {
        LayerPlan& lp0 = plan.layers[0];
        const auto& cv0 = static_cast<const ConvLayer&>(net.layer(0));
        lp0.in_dtype = DType::kU8;
        Int8RangeToScaleZp(cv0.activation_range_min(),
                           cv0.activation_range_max(), &lp0.in_qscale,
                           &lp0.in_qzp);
        plan.input_u8 = true;
        plan.input_qscale = lp0.in_qscale;
        plan.input_qzp = lp0.in_qzp;
        ++plan.chained_edges;
      }
      for (int j = 0; j < n; ++j) {
        for (int s : InputsOf(net, j)) {
          if (plan.layers[static_cast<size_t>(s)].out_dtype == DType::kU8) {
            ++plan.chained_edges;
          } else if (qconv[static_cast<size_t>(s)]) {
            ++plan.dequant_edges;
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        if (qconv[static_cast<size_t>(i)] ||
            plan.layers[static_cast<size_t>(i)].out_dtype == DType::kU8) {
          ++plan.quantized_layers;
        }
      }
    }
  }

  plan.arena = PlanArenaGrouped(net, last_use, parent, poffset);
  plan.arena.enabled = arena_enabled;
  return plan;
}

std::string ExecPlan::ToString() const {
  std::ostringstream os;
  os << StrFormat("%4s %5s %5s %10s %5s %6s %4s %4s %7s\n", "idx", "in",
                  "out", "conv", "fast", "elide", "din", "dout", "chain");
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerPlan& lp = layers[i];
    os << StrFormat("%4d %5s %5s %10s %5s %6s %4s %4s %7s\n",
                    static_cast<int>(i), ActLayoutName(lp.in_layout),
                    ActLayoutName(lp.out_layout), ConvAlgoName(lp.conv_algo),
                    lp.fast_act ? "mish" : "-",
                    lp.copy_elided ? "elide" : "-", DTypeName(lp.in_dtype),
                    DTypeName(lp.out_dtype),
                    lp.in_dtype == DType::kU8 ? "chained" : "-");
  }
  os << (fused ? "fused plan" : "reference plan (fusion disabled)");
  if (chained_edges > 0 || dequant_edges > 0 || quantized_layers > 0) {
    os << StrFormat(
        ": %d quantized layers, %d chained edges, %d dequant edges",
        quantized_layers, chained_edges, dequant_edges);
  }
  os << "\n";
  return os.str();
}

std::string ArenaPlan::ToString() const {
  std::ostringstream os;
  os << StrFormat("%4s %12s %12s %6s %6s\n", "idx", "offset", "floats",
                  "live", "until");
  for (size_t i = 0; i < assignments.size(); ++i) {
    const ArenaAssignment& a = assignments[i];
    os << StrFormat("%4d %12lld %12lld %6d %6d\n", static_cast<int>(i),
                    static_cast<long long>(a.offset),
                    static_cast<long long>(a.floats), a.first_use, a.last_use);
  }
  const double ratio =
      sum_output_floats > 0
          ? static_cast<double>(arena_floats) / sum_output_floats
          : 0.0;
  os << StrFormat(
      "arena: %lld floats peak vs %lld sum-of-outputs (%.1f%%), %s\n",
      static_cast<long long>(arena_floats),
      static_cast<long long>(sum_output_floats), ratio * 100.0,
      enabled ? "enabled" : "disabled");
  return os.str();
}

}  // namespace thali
