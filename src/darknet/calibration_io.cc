#include "darknet/calibration_io.h"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "base/file_util.h"
#include "nn/conv_layer.h"

namespace thali {

namespace {

constexpr char kMagic[8] = {'T', 'H', 'A', 'L', 'I', 'C', 'A', 'L'};
constexpr int32_t kVersion = 1;

struct Entry {
  int32_t layer_index;
  float range_min;
  float range_max;
};

void AppendRaw(std::string& out, const void* p, size_t n) {
  out.append(reinterpret_cast<const char*>(p), n);
}

}  // namespace

Status SaveCalibration(const Network& net, const std::string& path) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  std::vector<Entry> entries;
  for (int i = 0; i < net.num_layers(); ++i) {
    const Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    if (!conv.has_activation_range()) continue;
    entries.push_back({i, conv.activation_range_min(),
                       conv.activation_range_max()});
  }
  std::string out;
  AppendRaw(out, kMagic, sizeof(kMagic));
  AppendRaw(out, &kVersion, sizeof(kVersion));
  const int32_t count = static_cast<int32_t>(entries.size());
  AppendRaw(out, &count, sizeof(count));
  for (const Entry& e : entries) AppendRaw(out, &e, sizeof(e));
  return WriteStringToFile(path, out);
}

StatusOr<int> LoadCalibration(Network& net, const std::string& path) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  THALI_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  size_t pos = 0;
  auto read = [&](void* dst, size_t n) -> bool {
    if (pos + n > data.size()) return false;
    std::memcpy(dst, data.data() + pos, n);
    pos += n;
    return true;
  };
  char magic[8];
  int32_t version = 0, count = 0;
  if (!read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a calibration file");
  }
  if (!read(&version, sizeof(version)) || version != kVersion) {
    return Status::Corruption("unsupported calibration version");
  }
  if (!read(&count, sizeof(count)) || count < 0) {
    return Status::Corruption("calibration file truncated");
  }
  int armed = 0;
  for (int32_t i = 0; i < count; ++i) {
    Entry e;
    if (!read(&e, sizeof(e))) {
      return Status::Corruption("calibration file truncated");
    }
    if (e.layer_index < 0 || e.layer_index >= net.num_layers() ||
        std::string_view(net.layer(e.layer_index).kind()) !=
            "convolutional") {
      return Status::Corruption("calibration entry does not match network");
    }
    if (!(e.range_min <= e.range_max)) {  // also rejects NaN
      return Status::Corruption("calibration entry has an invalid range");
    }
    static_cast<ConvLayer&>(net.layer(e.layer_index))
        .SetActivationRange(e.range_min, e.range_max);
    ++armed;
  }
  // Installed ranges arm the int8 candidates (once batch norm is
  // folded); recompile the plan so they, and the quantize-once chains,
  // take effect before the next Forward.
  THALI_RETURN_IF_ERROR(net.ReplanInference());
  return armed;
}

}  // namespace thali
