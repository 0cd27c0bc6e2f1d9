#include "darknet/weights_io.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/file_util.h"
#include "base/string_util.h"
#include "nn/conv_layer.h"

namespace thali {

namespace {

constexpr int32_t kMajor = 0;
constexpr int32_t kMinor = 2;
constexpr int32_t kRevision = 5;

void AppendRaw(std::string& out, const void* p, size_t n) {
  out.append(reinterpret_cast<const char*>(p), n);
}

void AppendTensor(std::string& out, const Tensor& t) {
  AppendRaw(out, t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  Status Read(void* dst, size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Corruption("weights file truncated");
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadTensor(Tensor& t) {
    return Read(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveWeights(Network& net, const std::string& path, uint64_t seen,
                   int cutoff) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  std::string out;
  AppendRaw(out, &kMajor, sizeof(kMajor));
  AppendRaw(out, &kMinor, sizeof(kMinor));
  AppendRaw(out, &kRevision, sizeof(kRevision));
  AppendRaw(out, &seen, sizeof(seen));

  const int limit = cutoff < 0 ? net.num_layers() : cutoff;
  for (int i = 0; i < net.num_layers() && i < limit; ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    auto& conv = static_cast<ConvLayer&>(l);
    AppendTensor(out, conv.biases());
    if (conv.options().batch_normalize) {
      AppendTensor(out, conv.scales());
      AppendTensor(out, conv.rolling_mean());
      AppendTensor(out, conv.rolling_var());
    }
    AppendTensor(out, conv.weights());
  }
  return WriteStringToFile(path, out);
}

StatusOr<int> LoadWeights(Network& net, const std::string& path, int cutoff) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  THALI_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  Reader r(data);

  int32_t major, minor, revision;
  THALI_RETURN_IF_ERROR(r.Read(&major, sizeof(major)));
  THALI_RETURN_IF_ERROR(r.Read(&minor, sizeof(minor)));
  THALI_RETURN_IF_ERROR(r.Read(&revision, sizeof(revision)));
  if (major * 10 + minor >= 2) {
    uint64_t seen;
    THALI_RETURN_IF_ERROR(r.Read(&seen, sizeof(seen)));
  } else {
    uint32_t seen32;
    THALI_RETURN_IF_ERROR(r.Read(&seen32, sizeof(seen32)));
  }

  // Validate the whole payload before touching any tensor, so a bad
  // file leaves the network exactly as it was. Every conv the file
  // reaches must be complete (a file may end early at a conv boundary:
  // backbone-only checkpoints), and a full load (no cutoff) must consume
  // the file exactly — leftover bytes mean the file's per-conv layout
  // differs from the network's, e.g. batch-norm parameters a folded
  // network no longer reads.
  const int limit = cutoff < 0 ? net.num_layers() : cutoff;
  std::vector<ConvLayer*> convs;
  size_t need_total = 0;
  for (int i = 0; i < net.num_layers() && i < limit; ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (need_total == r.remaining()) break;  // shorter checkpoint
    auto& conv = static_cast<ConvLayer&>(l);
    const size_t need =
        sizeof(float) *
        static_cast<size_t>(
            conv.biases().size() +
            (conv.options().batch_normalize ? 3 * conv.scales().size() : 0) +
            conv.weights().size());
    if (r.remaining() - need_total < need) {
      return Status::Corruption(
          StrFormat("weights truncated at conv layer %d", i));
    }
    need_total += need;
    convs.push_back(&conv);
  }
  if (cutoff < 0 && need_total < r.remaining()) {
    return Status::Corruption(StrFormat(
        "%zu bytes left after the last conv layer: the file's layout does "
        "not match the network (batch norm folded on one side only?)",
        r.remaining() - need_total));
  }
  for (ConvLayer* conv : convs) {
    THALI_RETURN_IF_ERROR(r.ReadTensor(conv->biases()));
    if (conv->options().batch_normalize) {
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv->scales()));
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv->rolling_mean()));
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv->rolling_var()));
    }
    THALI_RETURN_IF_ERROR(r.ReadTensor(conv->weights()));
    conv->MarkWeightsDirty();  // inference nets re-pack on the next Forward
  }
  return static_cast<int>(convs.size());
}

StatusOr<uint64_t> ReadWeightsSeen(const std::string& path) {
  THALI_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  Reader r(data);
  int32_t major, minor, revision;
  THALI_RETURN_IF_ERROR(r.Read(&major, sizeof(major)));
  THALI_RETURN_IF_ERROR(r.Read(&minor, sizeof(minor)));
  THALI_RETURN_IF_ERROR(r.Read(&revision, sizeof(revision)));
  if (major * 10 + minor >= 2) {
    uint64_t seen;
    THALI_RETURN_IF_ERROR(r.Read(&seen, sizeof(seen)));
    return seen;
  }
  uint32_t seen32;
  THALI_RETURN_IF_ERROR(r.Read(&seen32, sizeof(seen32)));
  return static_cast<uint64_t>(seen32);
}

}  // namespace thali
