#include "darknet/summary.h"

#include <sstream>
#include <string_view>

#include "base/cpu_features.h"
#include "base/string_util.h"
#include "nn/conv_layer.h"
#include "nn/maxpool_layer.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"
#include "nn/upsample_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/qtensor.h"

namespace thali {

namespace {

std::string DimString(const Shape& s) {
  if (s.rank() != 4) return s.ToString();
  return StrFormat("%lldx%lldx%lld", static_cast<long long>(s.dim(1)),
                   static_cast<long long>(s.dim(2)),
                   static_cast<long long>(s.dim(3)));
}

}  // namespace

std::string NetworkSummary(const Network& net) {
  std::ostringstream os;
  os << StrFormat("%4s  %-14s %8s  %-8s %22s  %10s\n", "idx", "type",
                  "filters", "size/str", "input -> output", "params");

  int64_t total_params = 0;
  int64_t packed_bytes = 0;
  for (int i = 0; i < net.num_layers(); ++i) {
    const Layer& layer = net.layer(i);
    const std::string_view kind = layer.kind();
    if (kind == "convolutional") {
      packed_bytes +=
          static_cast<const ConvLayer&>(layer).packed_weight_bytes();
    }

    std::string filters = "-";
    std::string geom = "-";
    if (kind == "convolutional") {
      const auto& conv = static_cast<const ConvLayer&>(layer);
      filters = std::to_string(conv.options().filters);
      geom = StrFormat("%dx%d/%d", conv.options().ksize, conv.options().ksize,
                       conv.options().stride);
    } else if (kind == "maxpool") {
      const auto& pool = static_cast<const MaxPoolLayer&>(layer);
      geom = StrFormat("%dx%d/%d", pool.options().size, pool.options().size,
                       pool.options().stride);
    } else if (kind == "upsample") {
      geom = StrFormat("x%d", static_cast<const UpsampleLayer&>(layer).stride());
    } else if (kind == "route") {
      const auto& route = static_cast<const RouteLayer&>(layer);
      std::string refs;
      for (int src : route.source_indices()) {
        if (!refs.empty()) refs += ",";
        refs += std::to_string(src);
      }
      geom = refs;
    } else if (kind == "shortcut") {
      geom = StrFormat(
          "from %d", static_cast<const ShortcutLayer&>(layer).from_index());
    }

    int64_t params = 0;
    for (const ConstParam& p : layer.Params()) params += p.value->size();
    total_params += params;

    os << StrFormat("%4d  %-14s %8s  %-8s %10s -> %-10s %10lld\n", i,
                    std::string(kind).c_str(), filters.c_str(), geom.c_str(),
                    DimString(layer.input_shape()).c_str(),
                    DimString(layer.output_shape()).c_str(),
                    static_cast<long long>(params));
  }
  // Compiled-plan table: the kernel each conv resolved to (algorithm,
  // weight dtype, epilogue stages) and every layer's layouts and
  // activation dtypes, so plan decisions are inspectable without digging
  // through ExecPlan::ToString logs. Only meaningful once a fused
  // inference plan exists; reference plans print the headline line only.
  const ExecPlan& plan = net.exec_plan();
  int64_t int8_bytes = 0;
  int int8_layers = 0;
  if (plan.fused) {
    os << StrFormat(
        "\nplan: %4s  %-14s %10s %5s  %-19s %5s %5s  %6s  %4s %4s %8s\n",
        "idx", "type", "algo", "wtype", "epilogue", "in", "out", "elide",
        "din", "dout", "chain");
    for (int i = 0; i < net.num_layers(); ++i) {
      const Layer& layer = net.layer(i);
      const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
      const bool conv = std::string_view(layer.kind()) == "convolutional";
      std::string epilogue = "-";
      const char* wtype = "-";
      if (conv) {
        const auto& cv = static_cast<const ConvLayer&>(layer);
        epilogue = cv.EpilogueName();
        wtype = DTypeName(DType::kF32);
        if (IsInt8ConvAlgo(lp.conv_algo)) {
          wtype = DTypeName(DType::kI8);
          int8_bytes += cv.int8_weight_bytes();
          ++int8_layers;
        }
      }
      os << StrFormat(
          "plan: %4d  %-14s %10s %5s  %-19s %5s %5s  %6s  %4s %4s %8s\n", i,
          std::string(layer.kind()).c_str(),
          conv ? ConvAlgoName(lp.conv_algo) : "-", wtype, epilogue.c_str(),
          ActLayoutName(lp.in_layout), ActLayoutName(lp.out_layout),
          lp.copy_elided ? "elide" : "-", DTypeName(lp.in_dtype),
          DTypeName(lp.out_dtype),
          lp.in_dtype == DType::kU8 ? "chained" : "-");
    }
  }
  os << StrFormat(
      "total: %lld parameters, %lld floats of per-thread workspace, batch %d\n",
      static_cast<long long>(total_params),
      static_cast<long long>(net.workspace_size()), net.batch());
  os << StrFormat("gemm: %s kernel (cpu: %s), %lld bytes of pre-packed weights\n",
                  GemmKernelName(), CpuFeatureString().c_str(),
                  static_cast<long long>(packed_bytes));
  if (net.int8_enabled()) {
    os << StrFormat(
        "int8: %s kernel, %d quantized conv layers, %lld bytes of int8 "
        "weights, %d quantized layers total, %d chained edges, %d dequant "
        "edges\n",
        SelectInt8GemmKernel().name, int8_layers,
        static_cast<long long>(int8_bytes), plan.quantized_layers,
        plan.chained_edges, plan.dequant_edges);
  }
  return os.str();
}

}  // namespace thali
