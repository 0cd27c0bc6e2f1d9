// End-to-end benchmark of the inference execution-plan compiler
// (nn/exec_plan.h): yolov4-thali forward throughput with the fused plan
// (CNHW layout, copy elision, direct 1x1, Winograd 3x3, fast mish)
// against the reference plan (im2col everywhere, NCHW, THALI_NO_FUSE
// semantics), plus per-conv-layer GFLOP/s under both plans. Emits JSON
// on stdout for BENCH_plan.json:
//
//   ./bench_plan [iters] > BENCH_plan.json

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"

namespace thali {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerStat {
  int index = 0;
  std::string algo;
  int64_t flops = 0;  // direct-conv count: 2*F*C*k^2*OH*OW*batch
  double seconds = 0;
  double gflops = 0;
};

struct PlanRun {
  double img_per_s = 0;
  double ms_per_img = 0;
  std::vector<LayerStat> convs;
};

// Builds the net (fold_bn = deployment configuration), measures the
// end-to-end forward and then each conv layer in isolation. Re-running
// layer i alone is valid because the net's buffers still hold layer
// i-1's activations from the last full forward.
PlanRun RunPlan(int fuse, int iters) {
  internal::SetFusionForTesting(fuse);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  internal::SetFusionForTesting(-1);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  THALI_CHECK_OK(net.FoldBatchNorm());

  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();

  PlanRun run;
  for (int i = 0; i < 3; ++i) net.Forward(input);  // warmup + re-pack
  const double t0 = NowSeconds();
  for (int i = 0; i < iters; ++i) net.Forward(input);
  const double dt = NowSeconds() - t0;
  run.img_per_s = iters / dt;
  run.ms_per_img = 1e3 * dt / iters;

  for (int li = 0; li < net.num_layers(); ++li) {
    if (std::string_view(net.layer(li).kind()) != "convolutional") continue;
    ConvLayer& conv = static_cast<ConvLayer&>(net.layer(li));
    const Tensor& lin = li == 0 ? input : net.layer(li - 1).output();
    LayerStat s;
    s.index = li;
    s.algo = ConvAlgoName(net.exec_plan().layers[li].conv_algo);
    const auto& o = conv.options();
    const Shape& in = conv.input_shape();
    const Shape& out = conv.output_shape();
    s.flops = 2LL * o.filters * in.dim(1) * o.ksize * o.ksize * out.dim(2) *
              out.dim(3) * out.dim(0);
    // Layer-local iteration count sized so small layers still get
    // enough samples without letting big ones dominate the run time.
    const int reps = iters * 4;
    conv.Forward(lin, net, /*train=*/false);  // warm
    const double l0 = NowSeconds();
    for (int r = 0; r < reps; ++r) conv.Forward(lin, net, /*train=*/false);
    s.seconds = (NowSeconds() - l0) / reps;
    s.gflops = 1e-9 * static_cast<double>(s.flops) / s.seconds;
    run.convs.push_back(s);
  }
  // Per-layer timing clobbers activations; restore a coherent state.
  net.Forward(input);
  return run;
}

void Emit(const PlanRun& fused, const PlanRun& ref) {
  std::printf("{\n");
  std::printf("  \"benchmark\": \"inference plan compiler (PR 6)\",\n");
  std::printf("  \"model\": \"yolov4-thali 96x96, batch 1, batch norm folded"
              "\",\n");
  std::printf("  \"end_to_end\": {\n");
  std::printf("    \"reference_plan\": {\"img_per_s\": %.2f, \"ms_per_img\": "
              "%.3f},\n",
              ref.img_per_s, ref.ms_per_img);
  std::printf("    \"fused_plan\": {\"img_per_s\": %.2f, \"ms_per_img\": "
              "%.3f},\n",
              fused.img_per_s, fused.ms_per_img);
  std::printf("    \"speedup\": %.3f\n", fused.img_per_s / ref.img_per_s);
  std::printf("  },\n");
  std::printf("  \"per_conv_layer\": [\n");
  double worst = 1e30;
  for (size_t i = 0; i < fused.convs.size(); ++i) {
    const LayerStat& f = fused.convs[i];
    const LayerStat& r = ref.convs[i];
    if (f.gflops < worst) worst = f.gflops;
    std::printf("    {\"layer\": %d, \"algo\": \"%s\", \"gflops_fused\": "
                "%.2f, \"gflops_reference\": %.2f, \"speedup\": %.2f}%s\n",
                f.index, f.algo.c_str(), f.gflops, r.gflops,
                f.gflops / r.gflops, i + 1 < fused.convs.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"worst_conv_gflops_fused\": %.2f,\n", worst);
  std::printf("  \"notes\": [\n");
  std::printf("    \"GFLOP/s counts direct-convolution FLOPs "
              "(2*F*C*k^2*OH*OW) regardless of algorithm, so Winograd's "
              "2.25x multiply saving shows up as >raw-GEMM rates.\",\n");
  std::printf("    \"reference plan = THALI_NO_FUSE semantics: NCHW, "
              "im2col+GEMM everywhere, route copies performed.\"\n");
  std::printf("  ]\n");
  std::printf("}\n");
}

}  // namespace
}  // namespace thali

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 100;
  thali::PlanRun fused = thali::RunPlan(1, iters);
  thali::PlanRun ref = thali::RunPlan(0, iters);
  thali::Emit(fused, ref);
  return 0;
}
