#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "base/file_util.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "core/detector.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "darknet/summary.h"
#include "darknet/weights_io.h"
#include "nn/conv_layer.h"
#include "tensor/ops.h"

namespace thali {
namespace {

constexpr char kTinyCfg[] = R"(
# A comment line
[net]
width=16
height=16
channels=3
batch=2
learning_rate=0.01
momentum=0.9
decay=0.0005
burn_in=5
max_batches=100
steps=80,90
scales=0.1,0.1
mosaic=1

[convolutional]
batch_normalize=1
filters=4
size=3
stride=2
pad=1
activation=mish

[maxpool]
size=2
stride=2

[convolutional]
filters=18
size=1
stride=1
pad=1
activation=linear

[yolo]
mask=0,1,2
anchors=4,4, 8,8, 12,10
classes=1
ignore_thresh=0.7
)";

TEST(CfgParser, ParsesSectionsAndOptions) {
  auto sections = ParseCfg(kTinyCfg);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->size(), 5u);
  EXPECT_EQ((*sections)[0].name, "net");
  EXPECT_EQ((*sections)[1].name, "convolutional");
  EXPECT_EQ(*(*sections)[0].GetInt("width"), 16);
  EXPECT_EQ((*sections)[1].GetInt("filters", -1), 4);
  EXPECT_EQ((*sections)[1].GetString("activation", ""), "mish");
  auto anchors = (*sections)[4].GetFloatList("anchors");
  ASSERT_TRUE(anchors.ok());
  EXPECT_EQ(anchors->size(), 6u);
}

TEST(CfgParser, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCfg("").ok());
  EXPECT_FALSE(ParseCfg("width=1\n[net]\n").ok());      // option before section
  EXPECT_FALSE(ParseCfg("[convolutional]\n").ok());     // must start with net
  EXPECT_FALSE(ParseCfg("[net\nwidth=1\n").ok());       // unterminated header
  EXPECT_FALSE(ParseCfg("[net]\nwidth 16\n").ok());     // missing '='
}

TEST(CfgParser, CommentsAndBlanksIgnored) {
  auto s = ParseCfg("# c\n\n[net]\n; semicolon comment\nwidth=8\n");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*(*s)[0].GetInt("width"), 8);
}

TEST(BuildNetwork, TinyCfgBuildsAndRuns) {
  Rng rng(1);
  auto built = BuildNetworkFromCfg(kTinyCfg, 0, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->net->num_layers(), 4);
  EXPECT_EQ(built->yolo_layers.size(), 1u);
  EXPECT_EQ(built->options.batch, 2);
  EXPECT_EQ(built->options.burn_in, 5);
  ASSERT_EQ(built->options.steps.size(), 2u);
  EXPECT_EQ(built->options.steps[0], 80);

  Tensor input(built->net->input_shape());
  const Tensor& out = built->net->Forward(input);
  // 16 -> conv/2 -> 8 -> maxpool/2 -> 4; channels 3*(5+1) = 18.
  EXPECT_EQ(out.shape(), Shape({2, 18, 4, 4}));
}

TEST(BuildNetwork, RejectsUnknownSection) {
  Rng rng(1);
  auto built = BuildNetworkFromCfg("[net]\nwidth=16\nheight=16\n"
                                   "[gru]\nunits=4\n",
                                   0, rng);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kUnimplemented);
}

TEST(ModelZoo, YoloThaliBuildsWithThreeHeads) {
  YoloThaliOptions o;
  o.classes = 10;
  Rng rng(2);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(o), 1, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->yolo_layers.size(), 3u);
  // Grids at strides 32/16/8 of a 96 input.
  EXPECT_EQ(built->yolo_layers[0]->grid_w(), 3);
  EXPECT_EQ(built->yolo_layers[1]->grid_w(), 6);
  EXPECT_EQ(built->yolo_layers[2]->grid_w(), 12);
  // Nine anchors shared, three per head.
  EXPECT_EQ(built->yolo_layers[0]->options().anchors.size(), 9u);
  EXPECT_EQ(built->yolo_layers[0]->options().mask.size(), 3u);
  // The backbone cutoff marker must match the first head region: layer 35
  // is the first head conv, so layers [0, 35) are class-independent.
  EXPECT_EQ(kYoloThaliBackboneCutoff, 35);
  EXPECT_EQ(std::string_view(built->net->layer(37).kind()), "yolo");
}

TEST(ModelZoo, ClassCountOnlyChangesHeadConvs) {
  YoloThaliOptions a, b;
  a.classes = 10;
  b.classes = 20;
  Rng rng(3);
  auto na = BuildNetworkFromCfg(YoloThaliCfg(a), 1, rng);
  auto nb = BuildNetworkFromCfg(YoloThaliCfg(b), 1, rng);
  ASSERT_TRUE(na.ok());
  ASSERT_TRUE(nb.ok());
  ASSERT_EQ(na->net->num_layers(), nb->net->num_layers());
  for (int i = 0; i < kYoloThaliBackboneCutoff; ++i) {
    EXPECT_EQ(na->net->layer(i).output_shape(),
              nb->net->layer(i).output_shape())
        << "backbone layer " << i << " depends on class count";
  }
}

TEST(ModelZoo, FullYoloV4StructureParses) {
  // Structure check only (no Finalize at full width): the emitted cfg must
  // parse, start with [net], and contain the CSPDarknet53 + PAN layout.
  const std::string cfg = FullYoloV4Cfg(80, 416, 416, 1);
  auto sections = ParseCfg(cfg);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  int convs = 0, shortcuts = 0, routes = 0, yolos = 0, maxpools = 0;
  for (const CfgSection& s : *sections) {
    if (s.name == "convolutional") ++convs;
    if (s.name == "shortcut") ++shortcuts;
    if (s.name == "route") ++routes;
    if (s.name == "yolo") ++yolos;
    if (s.name == "maxpool") ++maxpools;
  }
  // CSPDarknet53 has 23 residual blocks (1+2+8+8+4).
  EXPECT_EQ(shortcuts, 23);
  EXPECT_EQ(yolos, 3);
  EXPECT_EQ(maxpools, 3);  // SPP
  EXPECT_GT(convs, 100);   // 110 convolutions in yolov4.cfg
}

TEST(ModelZoo, FullYoloV4NarrowVariantFinalizes) {
  // A width-divided variant must Configure end to end: this validates all
  // route/shortcut indices of the emitted full architecture.
  Rng rng(4);
  auto built = BuildNetworkFromCfg(FullYoloV4Cfg(3, 128, 128, 16), 1, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->yolo_layers.size(), 3u);
  EXPECT_EQ(built->yolo_layers[0]->grid_w(), 16);  // stride 8 of 128
  Tensor input(built->net->input_shape());
  built->net->Forward(input);  // smoke: runs without shape CHECKs
}

TEST(SummaryTest, ListsEveryLayerAndTotals) {
  Rng rng(2);
  auto built = BuildNetworkFromCfg(kTinyCfg, 1, rng);
  ASSERT_TRUE(built.ok());
  const std::string summary = NetworkSummary(*built->net);
  EXPECT_NE(summary.find("convolutional"), std::string::npos);
  EXPECT_NE(summary.find("maxpool"), std::string::npos);
  EXPECT_NE(summary.find("yolo"), std::string::npos);
  // Parameter total = sum over layers; the tiny cfg has
  // conv1: 4*3*9 + 4 bias + 4 scales = 116... verify against the network.
  const std::string want =
      StrFormat("total: %lld parameters",
                static_cast<long long>(built->net->NumParameters()));
  EXPECT_NE(summary.find(want), std::string::npos);
  // One line per layer plus header and two footer lines (totals, gemm).
  int lines = 0;
  for (char c : summary) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, built->net->num_layers() + 3);
  EXPECT_NE(summary.find("gemm: "), std::string::npos);
}

class WeightsIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/thali_weights_test.weights";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(WeightsIoTest, RoundTripsBitExact) {
  Rng rng(5);
  auto built = BuildNetworkFromCfg(kTinyCfg, 0, rng);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveWeights(*built->net, path_, /*seen=*/12345).ok());

  auto seen = ReadWeightsSeen(path_);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 12345u);

  Rng rng2(99);  // different init
  auto other = BuildNetworkFromCfg(kTinyCfg, 0, rng2);
  ASSERT_TRUE(other.ok());
  auto loaded = LoadWeights(*other->net, path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2);  // two conv layers

  for (int i = 0; i < built->net->num_layers(); ++i) {
    if (std::string_view(built->net->layer(i).kind()) != "convolutional") {
      continue;
    }
    auto& a = static_cast<ConvLayer&>(built->net->layer(i));
    auto& b = static_cast<ConvLayer&>(other->net->layer(i));
    EXPECT_EQ(MaxAbsDiff(a.weights(), b.weights()), 0.0f);
    EXPECT_EQ(MaxAbsDiff(a.biases(), b.biases()), 0.0f);
    if (a.options().batch_normalize) {
      EXPECT_EQ(MaxAbsDiff(a.rolling_mean(), b.rolling_mean()), 0.0f);
      EXPECT_EQ(MaxAbsDiff(a.rolling_var(), b.rolling_var()), 0.0f);
      EXPECT_EQ(MaxAbsDiff(a.scales(), b.scales()), 0.0f);
    }
  }
}

TEST_F(WeightsIoTest, PartialLoadWithCutoff) {
  Rng rng(6);
  auto src = BuildNetworkFromCfg(kTinyCfg, 0, rng);
  ASSERT_TRUE(src.ok());
  // Save only the first layer (the "backbone").
  ASSERT_TRUE(SaveWeights(*src->net, path_, 0, /*cutoff=*/1).ok());

  Rng rng2(7);
  auto dst = BuildNetworkFromCfg(kTinyCfg, 0, rng2);
  ASSERT_TRUE(dst.ok());
  auto& head_before = static_cast<ConvLayer&>(dst->net->layer(2));
  Tensor head_weights = head_before.weights();

  auto loaded = LoadWeights(*dst->net, path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1);

  // Backbone layer now equals the source; head untouched.
  auto& src_conv = static_cast<ConvLayer&>(src->net->layer(0));
  auto& dst_conv = static_cast<ConvLayer&>(dst->net->layer(0));
  EXPECT_EQ(MaxAbsDiff(src_conv.weights(), dst_conv.weights()), 0.0f);
  EXPECT_EQ(MaxAbsDiff(head_before.weights(), head_weights), 0.0f);
}

TEST_F(WeightsIoTest, TruncatedFileIsCorruption) {
  Rng rng(8);
  auto built = BuildNetworkFromCfg(kTinyCfg, 0, rng);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveWeights(*built->net, path_).ok());
  auto data = ReadFileToString(path_);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(
      WriteStringToFile(path_, data->substr(0, data->size() / 2)).ok());
  auto loaded = LoadWeights(*built->net, path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(WeightsIoTest, BatchNormFileIntoFoldedDetectorIsRejectedUnchanged) {
  // A hot reload into a folded network (every int8 server folds) reads
  // biases + weights per conv; a batch-norm file carries three more
  // vectors per conv. The loader must refuse the file without touching
  // a weight, so the detector keeps producing the same detections.
  auto det = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), 3);
  ASSERT_TRUE(det.ok());
  ASSERT_TRUE(SaveWeights(det->network(), path_).ok());
  det->FuseBatchNorm();
  Image image(96, 96, 3);
  Rng rng(12);
  for (int i = 0; i < image.size(); ++i) image.data()[i] = rng.NextFloat();
  const std::vector<Detection> before = det->Detect(image, 0.005f, 0.45f);
  ASSERT_FALSE(before.empty());

  auto loaded = LoadWeights(det->network(), path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();

  const std::vector<Detection> after = det->Detect(image, 0.005f, 0.45f);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].class_id, before[i].class_id);
    EXPECT_EQ(after[i].confidence, before[i].confidence);  // bitwise
    EXPECT_EQ(after[i].box.x, before[i].box.x);
    EXPECT_EQ(after[i].box.y, before[i].box.y);
    EXPECT_EQ(after[i].box.w, before[i].box.w);
    EXPECT_EQ(after[i].box.h, before[i].box.h);
  }
}

TEST_F(WeightsIoTest, HeaderOnlyFileLoadsZeroLayers) {
  // A header with no payload loads nothing (valid for a 0-conv prefix).
  std::string header(12, '\0');
  header[4] = 2;  // minor = 2 -> 64-bit seen
  header += std::string(8, '\0');
  ASSERT_TRUE(WriteStringToFile(path_, header).ok());
  Rng rng(9);
  auto built = BuildNetworkFromCfg(kTinyCfg, 0, rng);
  ASSERT_TRUE(built.ok());
  auto loaded = LoadWeights(*built->net, path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 0);
}

}  // namespace
}  // namespace thali
