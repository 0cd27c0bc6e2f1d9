// Network front-end tests: THL1 protocol framing (round-trips, partial
// reassembly at every split point, hostile-frame rejection), the event
// loop backend selection, and the loopback end-to-end path — including
// the acceptance pin that socket-served detections are bitwise equal to
// in-process Server::Submit on the same model.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/net_util.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "serve/router.h"

namespace thali {
namespace net {
namespace {

serve::Server::DetectorFactory YoloFactory(uint64_t seed = 7) {
  return [seed] {
    return Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), seed);
  };
}

Image RenderPlatter(uint64_t seed = 11, int dishes = 3) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(seed);
  return renderer.RenderRandomPlatter(dishes, rng).image;
}

void ExpectSameDetections(const std::vector<Detection>& a,
                          const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id);
    EXPECT_EQ(a[i].confidence, b[i].confidence);  // bitwise, not NEAR
    EXPECT_EQ(a[i].box.x, b[i].box.x);
    EXPECT_EQ(a[i].box.y, b[i].box.y);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

// ------------------------------------------------------------- protocol --

TEST(ProtocolTest, DetectRequestRoundTripIsBitwiseLossless) {
  DetectRequest req;
  req.priority = serve::Priority::kBatch;
  req.deadline_ms = 750;
  req.model_id = "ssd-baseline";
  req.image = RenderPlatter();

  const std::vector<uint8_t> payload = EncodeDetectRequest(req);
  DetectRequest back;
  ASSERT_TRUE(DecodeDetectRequest(payload, &back).ok());
  EXPECT_EQ(back.priority, serve::Priority::kBatch);
  EXPECT_EQ(back.deadline_ms, 750u);
  EXPECT_EQ(back.model_id, "ssd-baseline");
  ASSERT_EQ(back.image.width(), req.image.width());
  ASSERT_EQ(back.image.height(), req.image.height());
  ASSERT_EQ(back.image.channels(), req.image.channels());
  for (int i = 0; i < req.image.size(); ++i) {
    ASSERT_EQ(back.image.data()[i], req.image.data()[i]) << "pixel " << i;
  }
}

TEST(ProtocolTest, DetectResponseRoundTripCarriesBoxesAndStatus) {
  std::vector<Detection> dets(2);
  dets[0].class_id = 3;
  dets[0].confidence = 0.875f;
  dets[0].box = {0.25f, 0.5f, 0.125f, 0.0625f};
  dets[1].class_id = 7;
  dets[1].confidence = 0.5f;
  dets[1].box = {0.75f, 0.1f, 0.3f, 0.2f};

  std::vector<uint8_t> frame = EncodeDetectResponse(Status::OK(), dets);
  FrameHeader header;
  ASSERT_TRUE(ParseHeader(frame, &header).ok());
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kDetect));
  Status wire;
  std::vector<Detection> back;
  ASSERT_TRUE(DecodeDetectResponse(
                  std::span<const uint8_t>(frame).subspan(kHeaderBytes),
                  &wire, &back)
                  .ok());
  ASSERT_TRUE(wire.ok());
  ExpectSameDetections(back, dets);

  // A rejection travels as its status, with no detection body.
  frame = EncodeDetectResponse(
      Status::ResourceExhausted("batch work shed"), {});
  ASSERT_TRUE(ParseHeader(frame, &header).ok());
  ASSERT_TRUE(DecodeDetectResponse(
                  std::span<const uint8_t>(frame).subspan(kHeaderBytes),
                  &wire, &back)
                  .ok());
  EXPECT_EQ(wire.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(wire.message(), "batch work shed");
  EXPECT_TRUE(back.empty());
}

TEST(ProtocolTest, FrameReaderReassemblesAtEverySplitPoint) {
  const std::vector<uint8_t> ping_payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame = EncodeFrame(Op::kPing, ping_payload);

  for (size_t split = 0; split <= frame.size(); ++split) {
    SCOPED_TRACE("split=" + std::to_string(split));
    FrameReader reader;
    FrameHeader header;
    std::vector<uint8_t> payload;

    ASSERT_TRUE(reader
                    .Feed(std::span<const uint8_t>(frame.data(), split))
                    .ok());
    if (split < frame.size()) {
      EXPECT_FALSE(reader.NextFrame(&header, &payload));
      ASSERT_TRUE(reader
                      .Feed(std::span<const uint8_t>(frame.data() + split,
                                                     frame.size() - split))
                      .ok());
    }
    ASSERT_TRUE(reader.NextFrame(&header, &payload));
    EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kPing));
    EXPECT_EQ(payload, ping_payload);
    EXPECT_FALSE(reader.NextFrame(&header, &payload));
  }
}

TEST(ProtocolTest, FrameReaderDrainsBackToBackFrames) {
  std::vector<uint8_t> stream = EncodeFrame(Op::kPing, {{9}});
  const std::vector<uint8_t> second = EncodeFrame(Op::kStats, {});
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  ASSERT_TRUE(reader.Feed(stream).ok());
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(reader.NextFrame(&header, &payload));
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kPing));
  EXPECT_EQ(payload, std::vector<uint8_t>{9});
  ASSERT_TRUE(reader.NextFrame(&header, &payload));
  EXPECT_EQ(header.op, static_cast<uint16_t>(Op::kStats));
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

TEST(ProtocolTest, BadMagicIsAStickyFramingError) {
  std::vector<uint8_t> bogus(kHeaderBytes, 0xAB);
  FrameReader reader;
  Status fed = reader.Feed(bogus);
  EXPECT_EQ(fed.code(), StatusCode::kCorruption);
  // Sticky: even a valid frame afterwards is refused.
  const std::vector<uint8_t> good = EncodeFrame(Op::kPing, {});
  EXPECT_EQ(reader.Feed(good).code(), StatusCode::kCorruption);
  FrameHeader header;
  std::vector<uint8_t> payload;
  EXPECT_FALSE(reader.NextFrame(&header, &payload));
}

TEST(ProtocolTest, OversizedPayloadLengthRejectedFromHeaderAlone) {
  std::vector<uint8_t> header_bytes;
  AppendU32(&header_bytes, kMagic);
  AppendU16(&header_bytes, kProtocolVersion);
  AppendU16(&header_bytes, static_cast<uint16_t>(Op::kDetect));
  AppendU32(&header_bytes, kMaxPayloadBytes + 1);

  FrameHeader header;
  EXPECT_EQ(ParseHeader(header_bytes, &header).code(),
            StatusCode::kResourceExhausted);
  // The reader flags it as soon as the header is complete — no need to
  // stream 16MB of garbage first.
  FrameReader reader;
  EXPECT_EQ(reader.Feed(header_bytes).code(),
            StatusCode::kResourceExhausted);
}

TEST(ProtocolTest, VersionMismatchRejected) {
  std::vector<uint8_t> header_bytes;
  AppendU32(&header_bytes, kMagic);
  AppendU16(&header_bytes, kProtocolVersion + 1);
  AppendU16(&header_bytes, static_cast<uint16_t>(Op::kPing));
  AppendU32(&header_bytes, 0);
  FrameHeader header;
  EXPECT_EQ(ParseHeader(header_bytes, &header).code(),
            StatusCode::kUnimplemented);
}

TEST(ProtocolTest, TruncatedDetectPayloadRejected) {
  DetectRequest req;
  req.image = RenderPlatter();
  std::vector<uint8_t> payload = EncodeDetectRequest(req);
  payload.resize(payload.size() - 7);  // lop off pixel bytes
  DetectRequest back;
  EXPECT_EQ(DecodeDetectRequest(payload, &back).code(),
            StatusCode::kCorruption);
}

// ----------------------------------------------------------- event loop --

TEST(EventLoopTest, EnvForcesPollBackend) {
  setenv("THALI_NET_POLL", "1", 1);
  auto loop = EventLoop::Create();
  unsetenv("THALI_NET_POLL");
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->backend(), EventLoop::Backend::kPoll);
}

// ------------------------------------------------------------- loopback --

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(int yolo_workers = 1) {
    serve::Server::Options opts;
    opts.num_workers = yolo_workers;
    opts.queue_capacity = 16;
    opts.max_batch_size = 4;
    THALI_CHECK_OK(router_.AddModel("yolo", opts, YoloFactory(/*seed=*/7)));
    auto server = NetServer::Start(NetServer::Options{}, &router_);
    THALI_CHECK(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  serve::ModelRouter router_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, PingRoundTrips) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->counters().pings.load(), 1);
}

// The acceptance pin: detections served over the socket are bitwise
// identical to the in-process submit path on the same server (raw f32
// pixels on the wire, deterministic detector).
TEST_F(NetServerTest, LoopbackDetectionsBitwiseEqualInProcessSubmit) {
  StartServer();
  Image image = RenderPlatter(/*seed=*/23);

  auto in_process = router_.Find("yolo")->Submit(Image(image));
  ASSERT_TRUE(in_process.ok());
  serve::Server::Result direct = in_process->get();
  ASSERT_TRUE(direct.ok());

  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  DetectRequest req;
  req.image = std::move(image);
  auto served = client->Detect(req);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ASSERT_FALSE(served->empty());  // a platter with dishes must detect > 0
  ExpectSameDetections(*served, *direct);
}

TEST_F(NetServerTest, PriorityDeadlineAndModelIdTravelOnTheWire) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  DetectRequest req;
  req.image = RenderPlatter();
  req.priority = serve::Priority::kBatch;
  req.deadline_ms = 10'000;
  ASSERT_TRUE(client->Detect(req).ok());
  EXPECT_EQ(router_.Find("yolo")
                ->metrics()
                .ForClass(serve::Priority::kBatch)
                .submitted.load(),
            1);

  // An unknown model id is a routed rejection, not a dead connection.
  req.image = RenderPlatter();
  req.model_id = "no-such-model";
  auto miss = client->Detect(req);
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  // The connection survives to serve the next request.
  req.model_id.clear();
  EXPECT_TRUE(client->Detect(req).ok());
}

TEST_F(NetServerTest, NonRgbImageGetsStatusReplyAndConnectionSurvives) {
  // DecodeDetectRequest accepts 1-4 channels; the detector needs 3. A
  // well-formed 1-channel frame must come back as an InvalidArgument
  // reply, and the same connection must then serve a valid request.
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  DetectRequest gray;
  gray.image = Image(64, 48, 1);
  auto rejected = client->Detect(gray);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();

  const Image platter = RenderPlatter(/*seed=*/23);
  auto in_process = router_.Find("yolo")->Submit(Image(platter));
  ASSERT_TRUE(in_process.ok());
  serve::Server::Result direct = in_process->get();
  ASSERT_TRUE(direct.ok());
  DetectRequest req;
  req.image = platter;
  auto served = client->Detect(req);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectSameDetections(*served, *direct);
}

TEST_F(NetServerTest, StatsOpReturnsRouterAndNetJson) {
  StartServer();
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key : {"\"router\"", "\"yolo\"", "\"net\"",
                          "\"weights_generation\"", "\"frames_received\""}) {
    EXPECT_NE(stats->find(key), std::string::npos) << key;
  }
}

TEST_F(NetServerTest, UnknownOpGetsStatusReplyNotDisconnect) {
  StartServer();
  auto fd = ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok());
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<Op>(99), {});
  ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size()).ok());

  uint8_t header_bytes[kHeaderBytes];
  ASSERT_TRUE(RecvAll(*fd, header_bytes, kHeaderBytes).ok());
  FrameHeader header;
  ASSERT_TRUE(
      ParseHeader(std::span<const uint8_t>(header_bytes, kHeaderBytes),
                  &header)
          .ok());
  EXPECT_EQ(header.op, 99);  // responses echo the request op
  std::vector<uint8_t> payload(header.payload_len);
  ASSERT_TRUE(RecvAll(*fd, payload.data(), payload.size()).ok());
  Status wire;
  std::vector<Detection> none;
  ASSERT_TRUE(DecodeDetectResponse(payload, &wire, &none).ok());
  EXPECT_EQ(wire.code(), StatusCode::kUnimplemented);
  CloseFd(*fd);
}

TEST_F(NetServerTest, MalformedFrameCutsOnlyThatConnection) {
  StartServer();
  auto bad = ConnectLoopback(server_->port());
  ASSERT_TRUE(bad.ok());
  const std::vector<uint8_t> garbage(kHeaderBytes, 0xEE);
  ASSERT_TRUE(SendAll(*bad, garbage.data(), garbage.size()).ok());
  uint8_t byte;
  // The server closes the framing-broken peer without replying.
  EXPECT_EQ(RecvAll(*bad, &byte, 1).code(), StatusCode::kUnavailable);
  CloseFd(*bad);

  // A well-behaved client on the same server is unaffected.
  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServerTest, ServesUnderForcedPollBackend) {
  setenv("THALI_NET_POLL", "1", 1);
  StartServer();
  unsetenv("THALI_NET_POLL");
  ASSERT_EQ(server_->backend(), EventLoop::Backend::kPoll);

  auto client = NetClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  DetectRequest req;
  req.image = RenderPlatter();
  EXPECT_TRUE(client->Detect(req).ok());
}

}  // namespace
}  // namespace net
}  // namespace thali
