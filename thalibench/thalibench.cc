// The THALI benchmark: starts the real serving stack (serve::ModelRouter
// + net::NetServer) on the trained yolov4-thali weights, drives one named
// workload, checks every output, and prints one JSON result line.
//
//   thalibench --workload interactive_416|overload_mixed
//              --seed N --seconds S --trace 0|1
//
// Run it from a directory where ./thali_cache may be created: the first
// run trains the model once (bench::EnsureTrainedModel) and later runs
// reuse it. thalibench/run.py builds this binary and runs it.
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the same load, reads the counters each layer exports, then replays
// the workload's requests through successively inner public entry points
// (NetClient::Detect, Server::Submit, Detector::Detect and the kernels)
// with spans recorded in memory, and prints the per-layer metrics, the
// e2e ledger and the tracing overhead. Nothing inside src/ is traced.

#include <sys/poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "base/cpu_features.h"
#include "base/file_util.h"
#include "base/logging.h"
#include "base/net_util.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "bench_common.h"
#include "core/detector.h"
#include "darknet/calibration_io.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "eval/metrics.h"
#include "image/image_prepost.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tensor/gemm_int8.h"

namespace thali {
namespace thalibench {
namespace {

// ------------------------------------------------------ frozen constants --
// Every rate, deadline and window below is part of the benchmark's
// definition; changing one changes what every metric means.

constexpr char kModel[] = "yolov4-thali";
constexpr int kNumClasses = 10;
constexpr float kNms = 0.45f;
constexpr double kMinTrainedMap = 0.5;  // random weights score ~0
constexpr char kCalibrationFile[] = "calibration.thalical";
// setup_s is the median of at least kMinSetups set-ups, repeated until
// kMinSetupMs have passed (at most kMaxSetups).
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kMinSetupMs = 2000.0;
constexpr int kMaxConnections = 4;  // and never more than nproc
constexpr double kLateLimitMs = 5.0;    // loadgen.late_p99_ms validity cap
constexpr double kLeadSeconds = 0.05;   // schedule starts this far ahead
constexpr double kSliceSeconds = 3.0;   // metrics are taken over slices
constexpr double kWarmupSeconds = 4.0;  // same traffic, before the window

// interactive_416 and the interactive class of overload_mixed.
constexpr int kPlatterSize = 416;
constexpr int kPlatterPool = 32;  // distinct platters per run
constexpr int kMinDishes = 1;
constexpr int kMaxDishes = 4;
constexpr float kInteractiveConf = 0.25f;
constexpr uint32_t kInteractiveDeadlineMs = 50;
constexpr double kInteractiveRate = 100.0;  // req/s, interactive_416

// The int8-vs-fp32 mAP pin, scored at the trainer's evaluation threshold.
constexpr float kEvalConf = 0.005f;  // core/trainer.h EvalOptions
constexpr double kMapPinTolerance = 0.01;

// overload_mixed.
constexpr double kOverloadInteractiveRate = 70.0;  // req/s, 416 platters
constexpr double kOverloadBatchRate = 2400.0;      // req/s, 96x96 images
constexpr double kBatchLimitMs = 1000.0;  // goodput limit, batch class

constexpr int kReplayRequests = 64;  // traced replay per workload
constexpr int kRefSamples = 16;      // val images pinned bitwise

enum Class { kInteractiveClass = 0, kBatchClass = 1 };
constexpr const char* kClassNames[] = {"interactive", "batch"};
const std::vector<double> kClassLimitMs = {
    static_cast<double>(kInteractiveDeadlineMs), kBatchLimitMs};

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return bench::Percentile(v, 50.0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool SameDetections(const std::vector<Detection>& a,
                    const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const float fa[5] = {a[i].confidence, a[i].box.x, a[i].box.y, a[i].box.w,
                         a[i].box.h};
    const float fb[5] = {b[i].confidence, b[i].box.x, b[i].box.y, b[i].box.w,
                         b[i].box.h};
    if (a[i].class_id != b[i].class_id ||
        std::memcmp(fa, fb, sizeof(fa)) != 0) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- checks --

// Collects failed output checks; any failure makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

// -------------------------------------------------------------- fixture --

struct Fixture {
  bench::SharedModel model;
  FoodDataset dataset;
};

// How a detector is built: the served model is int8 at kInteractiveConf.
struct Deployment {
  bool int8 = true;
  float conf = kInteractiveConf;
};
constexpr Deployment kServed{true, kInteractiveConf};

// Wall time of the layer calls made while building detectors.
struct BuildTimes {
  std::vector<double> load_s;
  std::vector<double> calibrate_s;
};

StatusOr<Detector> MakeDetector(const Fixture& f, const Deployment& d,
                                BuildTimes* times) {
  const auto t0 = Clock::now();
  internal::SetInt8ForTesting(d.int8 ? 1 : 0);
  StatusOr<Detector> det =
      Detector::FromFiles(f.model.cfg_text, f.model.weights_path);
  internal::SetInt8ForTesting(-1);
  if (!det.ok()) return det;
  const auto t1 = Clock::now();
  det->set_options(Detector::Options{d.conf, kNms});
  if (d.int8) {
    // Min-max ranges over the whole train split, as the repository's
    // int8-vs-fp32 mAP pin (tests/int8_test.cc) calibrates.
    Detector::Int8CalibrationOptions co;
    co.max_images = static_cast<int>(f.dataset.train_indices().size());
    const int armed =
        det->CalibrateInt8(f.dataset, f.dataset.train_indices(), co);
    if (armed <= 0) return Status::Internal("int8 calibration armed no layer");
  }
  const auto t2 = Clock::now();
  if (times != nullptr) {
    times->load_s.push_back(MsBetween(t0, t1) / 1e3);
    if (d.int8) times->calibrate_s.push_back(MsBetween(t1, t2) / 1e3);
  }
  return det;
}

// The deployment under test: one model in a ModelRouter behind a
// NetServer, all with default options plus admission control.
struct Stack {
  std::unique_ptr<serve::ModelRouter> router;
  std::unique_ptr<net::NetServer> front;  // destroyed before the router
  serve::Server* server = nullptr;
  uint16_t port() const { return front->port(); }
  // Stops the front end before the router it routes into.
  void Stop() {
    front.reset();
    router.reset();
    server = nullptr;
  }
};

// Builds the stack and waits for its first DETECT reply over THL1;
// *setup_s is the time that took.
Stack StartStack(const Fixture& f, const Deployment& d,
                 const net::DetectRequest& first, BuildTimes* times,
                 double* setup_s) {
  const auto t0 = Clock::now();
  Stack s;
  s.router = std::make_unique<serve::ModelRouter>();
  serve::Server::Options opts;
  opts.admission.enabled = true;
  THALI_CHECK_OK(s.router->AddModel(
      kModel, opts, [&] { return MakeDetector(f, d, times); }));
  auto front = net::NetServer::Start(net::NetServer::Options{}, s.router.get());
  THALI_CHECK(front.ok()) << front.status().ToString();
  s.front = std::move(front).value();
  s.server = s.router->Find(kModel);
  auto client = net::NetClient::Connect(s.port());
  THALI_CHECK(client.ok()) << client.status().ToString();
  auto reply = client->Detect(first);
  THALI_CHECK(reply.ok()) << reply.status().ToString();
  *setup_s = MsBetween(t0, Clock::now()) / 1e3;
  return s;
}

// --------------------------------------------------------------- inputs --

// One input the workload may send, with its ground truth.
struct Input {
  net::DetectRequest request;
  std::vector<TruthBox> truths;
  int cls = kInteractiveClass;
};

Input PlatterInput(const PlatterRenderer& renderer, Rng& rng) {
  const int dishes = rng.NextInt(kMinDishes, kMaxDishes);
  RenderedScene scene = renderer.RenderRandomPlatter(dishes, rng);
  Input in;
  in.request.priority = serve::Priority::kInteractive;
  in.request.deadline_ms = kInteractiveDeadlineMs;
  in.request.image = std::move(scene.image);
  in.truths = std::move(scene.truths);
  in.cls = kInteractiveClass;
  return in;
}

Input ValInput(const FoodDataset& ds, int index) {
  Input in;
  in.request.priority = serve::Priority::kBatch;
  in.request.deadline_ms = 0;
  in.request.image = ds.item(index).image;
  in.truths = ds.item(index).truths;
  in.cls = kBatchClass;
  return in;
}

std::vector<Input> RenderPlatterPool(uint64_t seed) {
  PlatterRenderer::Options ro;
  ro.width = kPlatterSize;
  ro.height = kPlatterSize;
  const PlatterRenderer renderer(IndianFood10(), ro);
  Rng rng(seed);
  std::vector<Input> pool;
  for (int i = 0; i < kPlatterPool; ++i) {
    pool.push_back(PlatterInput(renderer, rng));
  }
  return pool;
}

std::vector<Input> ValInputs(const FoodDataset& ds) {
  std::vector<Input> v;
  for (int idx : ds.val_indices()) v.push_back(ValInput(ds, idx));
  return v;
}

// A workload's traffic: which input each request sends and when.
struct Traffic {
  std::span<const Input> inputs;
  std::vector<int> input_of;     // request -> index into inputs
  std::vector<double> send_s;    // request -> scheduled send time
};

// ---------------------------------------------------------------- loads --

// What the client saw of every attempted request.
struct LoadResult {
  std::vector<Outcome> outcomes;
  std::vector<int> input_of;
  std::vector<StatusCode> codes;
  std::vector<std::vector<Detection>> replies;  // empty unless ok
  std::vector<double> late_ms;  // generator lateness per send
  int64_t decode_errors = 0;    // replies that did not decode
  int64_t window_full = 0;      // refused unsent: connection window full
  // Seconds from the start of the window: when each request was due (or
  // submitted) and when its reply arrived (-1: none).
  std::vector<double> start_s;
  std::vector<double> done_s;
  // (seconds from the start of the window, process CPU seconds).
  std::vector<std::pair<double, double>> cpu_trace;
};

// Samples the process CPU time on its own thread while a load runs, so
// CPU per request can be computed per slice like the other metrics.
class CpuTrace {
 public:
  explicit CpuTrace(Clock::time_point t0)
      : t0_(t0), thread_([this] {
          while (!stop_.load()) {
            Sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }) {}
  ~CpuTrace() { Finish(); }
  CpuTrace(const CpuTrace&) = delete;
  CpuTrace& operator=(const CpuTrace&) = delete;

  // Stops sampling and returns the samples.
  std::vector<std::pair<double, double>> Finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      Sample();
    }
    return samples_;
  }

 private:
  void Sample() {
    samples_.emplace_back(MsBetween(t0_, Clock::now()) / 1e3, CpuSeconds());
  }

  const Clock::time_point t0_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> samples_;  // sampler thread's
  std::thread thread_;  // last: starts once the members above exist
};

// Process CPU seconds at `t` (window seconds), interpolated.
double CpuAt(const std::vector<std::pair<double, double>>& trace, double t) {
  if (trace.empty()) return 0.0;
  if (t <= trace.front().first) return trace.front().second;
  for (size_t i = 1; i < trace.size(); ++i) {
    const auto& [t1, c1] = trace[i];
    if (t <= t1) {
      const auto& [t0, c0] = trace[i - 1];
      return t1 > t0 ? c0 + (c1 - c0) * (t - t0) / (t1 - t0) : c1;
    }
  }
  return trace.back().second;
}

// Fills the time stamps of a finished load, relative to t0.
void Stamp(LoadResult* r, Clock::time_point t0,
           const std::vector<Clock::time_point>& start,
           const std::vector<Clock::time_point>& done,
           const std::vector<bool>& answered) {
  r->start_s.resize(start.size());
  r->done_s.resize(start.size());
  for (size_t i = 0; i < start.size(); ++i) {
    r->start_s[i] = MsBetween(t0, start[i]) / 1e3;
    r->done_s[i] = answered[i] ? MsBetween(t0, done[i]) / 1e3 : -1.0;
  }
}

bool IsRefusal(StatusCode c) {
  return c == StatusCode::kResourceExhausted ||
         c == StatusCode::kDeadlineExceeded;
}

void Resize(LoadResult* r, size_t n) {
  r->outcomes.resize(n);
  r->input_of.resize(n);
  r->codes.assign(n, StatusCode::kUnavailable);
  r->replies.resize(n);
  r->late_ms.resize(n);
}

// Load-generator connections (one thread each for NetClients).
int LoadConnections() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    kMaxConnections);
}

// Open loop over blocking NetClients: LoadConnections() threads each take
// the next request in schedule order, wait for its send time, send it
// and block for the reply. Latency runs from the scheduled send time, so
// a request that waited for a free connection pays for the wait.
LoadResult RunNetClientLoad(uint16_t port, const Traffic& t) {
  LoadResult r;
  const size_t n = t.send_s.size();
  Resize(&r, n);
  std::atomic<size_t> next{0};
  std::atomic<int64_t> decode_errors{0};
  std::vector<Clock::time_point> due(n), done(n);
  const auto t0 = At(Clock::now(), kLeadSeconds);
  for (size_t i = 0; i < n; ++i) due[i] = At(t0, t.send_s[i]);
  CpuTrace cpu(t0);
  std::vector<std::thread> threads;
  for (int c = 0; c < LoadConnections(); ++c) {
    threads.emplace_back([&] {
      auto client = net::NetClient::Connect(port);
      THALI_CHECK(client.ok()) << client.status().ToString();
      for (size_t i = next++; i < n; i = next++) {
        const auto free_at = Clock::now();
        std::this_thread::sleep_until(due[i]);
        const auto sent = Clock::now();
        r.late_ms[i] = MsBetween(std::max(due[i], free_at), sent);
        const Input& in = t.inputs[static_cast<size_t>(t.input_of[i])];
        StatusOr<std::vector<Detection>> reply = client->Detect(in.request);
        done[i] = Clock::now();
        r.input_of[i] = t.input_of[i];
        r.outcomes[i] =
            Outcome{in.cls, reply.ok(), MsBetween(due[i], done[i])};
        r.codes[i] = reply.status().code();
        if (reply.ok()) {
          r.replies[i] = std::move(reply).value();
        } else if (reply.status().code() == StatusCode::kCorruption) {
          decode_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  r.cpu_trace = cpu.Finish();
  r.decode_errors = decode_errors.load();
  Stamp(&r, t0, due, done, std::vector<bool>(n, true));
  return r;
}

// Open loop over pipelined THL1 connections built from the public
// EncodeFrame / FrameReader functions: one sender thread per class
// writes each of its requests at the scheduled time (interactive on the
// first connection, batch round robin on the others), so backpressure on
// one class cannot delay the other's sends. The client keeps the
// server's per-connection in-flight cap: a request due while its
// connection has kWindow unanswered requests is refused unsent (the
// server is not taking more) and counted with the admission refusals.
// One receiver thread polls every connection and matches replies in
// per-connection request order. Requests still unanswered kDrainSeconds
// after the last send time count as failed.
LoadResult RunPipelinedLoad(uint16_t port, const Traffic& t) {
  // One connection carries the light interactive stream; the rest carry
  // batch, since the front door dispatches one frame per connection per
  // event-loop tick.
  const int kConns = std::max(2, LoadConnections());
  const int first_conn[2] = {0, 1};
  const int conns_of[2] = {1, kConns - 1};
  const size_t kWindow = static_cast<size_t>(
      net::NetServer::Options{}.max_inflight_per_conn);
  constexpr double kDrainSeconds = 20.0;
  LoadResult r;
  const size_t n = t.send_s.size();
  Resize(&r, n);
  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) {
    auto fd = ConnectLoopback(port);
    THALI_CHECK(fd.ok()) << fd.status().ToString();
    fds.push_back(*fd);
  }
  struct Conn {
    std::mutex mu;
    std::deque<size_t> fifo;  // guarded by mu
    net::FrameReader reader;  // receiver thread only
  };
  std::vector<Conn> conns(static_cast<size_t>(kConns));
  // Frames are encoded once per input, before the window, so the
  // senders only copy bytes into the sockets.
  std::vector<std::vector<uint8_t>> frames;
  for (const Input& in : t.inputs) {
    frames.push_back(net::EncodeFrame(net::Op::kDetect,
                                      net::EncodeDetectRequest(in.request)));
  }
  const auto t0 = At(Clock::now(), kLeadSeconds);
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> done(n, t0);
  std::vector<bool> got_reply(n, false);
  std::vector<size_t> of_class[2];
  for (size_t i = 0; i < n; ++i) {
    due[i] = At(t0, t.send_s[i]);
    r.input_of[i] = t.input_of[i];
    r.outcomes[i].cls = t.inputs[static_cast<size_t>(t.input_of[i])].cls;
    of_class[r.outcomes[i].cls].push_back(i);
  }
  const auto give_up = At(n > 0 ? due.back() : t0, kDrainSeconds);
  CpuTrace cpu(t0);
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> window_full{0};
  int64_t decode_errors = 0;

  std::thread receiver([&] {
    std::vector<uint8_t> buf(1 << 16);
    while (answered.load() < static_cast<int64_t>(n) &&
           Clock::now() < give_up) {
      std::vector<pollfd> pfd;
      for (int fd : fds) pfd.push_back(pollfd{fd, POLLIN, 0});
      if (poll(pfd.data(), pfd.size(), 10) <= 0) continue;
      for (int c = 0; c < kConns; ++c) {
        if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = recv(fds[c], buf.data(), buf.size(), MSG_DONTWAIT);
        if (got <= 0) continue;
        Conn& conn = conns[c];
        if (!conn.reader.Feed({buf.data(), static_cast<size_t>(got)}).ok()) {
          ++decode_errors;
          continue;
        }
        net::FrameHeader h;
        std::vector<uint8_t> payload;
        while (conn.reader.NextFrame(&h, &payload)) {
          size_t i;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            THALI_CHECK(!conn.fifo.empty()) << "reply without a request";
            i = conn.fifo.front();
            conn.fifo.pop_front();
          }
          done[i] = Clock::now();
          got_reply[i] = true;
          Status wire;
          std::vector<Detection> dets;
          const Status decoded =
              h.op == static_cast<uint16_t>(net::Op::kDetect)
                  ? net::DecodeDetectResponse(payload, &wire, &dets)
                  : Status::Corruption("reply op mismatch");
          if (!decoded.ok()) ++decode_errors;
          const bool ok = decoded.ok() && wire.ok();
          r.outcomes[i].ok = ok;
          r.outcomes[i].latency_ms = MsBetween(due[i], done[i]);
          r.codes[i] = decoded.ok() ? wire.code() : decoded.code();
          if (ok) r.replies[i] = std::move(dets);
          answered.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> senders;
  for (int cls : {kInteractiveClass, kBatchClass}) {
    senders.emplace_back([&, cls] {
      int turn = 0;
      for (size_t i : of_class[cls]) {
        const std::vector<uint8_t>& frame =
            frames[static_cast<size_t>(t.input_of[i])];
        const auto free_at = Clock::now();
        std::this_thread::sleep_until(due[i]);
        r.late_ms[i] = MsBetween(std::max(due[i], free_at), Clock::now());
        const int c = first_conn[cls] + (turn++ % conns_of[cls]);
        {
          std::lock_guard<std::mutex> lock(conns[c].mu);
          if (conns[c].fifo.size() >= kWindow) {
            // The connection's window is full: refused unsent.
            r.codes[i] = StatusCode::kResourceExhausted;
            window_full.fetch_add(1);
            answered.fetch_add(1);
            continue;
          }
          conns[c].fifo.push_back(i);
        }
        THALI_CHECK_OK(SendAll(fds[c], frame.data(), frame.size()));
      }
    });
  }
  for (auto& th : senders) th.join();
  receiver.join();
  for (int fd : fds) CloseFd(fd);
  r.cpu_trace = cpu.Finish();
  r.decode_errors = decode_errors;
  r.window_full = window_full.load();
  Stamp(&r, t0, due, done, got_reply);
  return r;
}

// ------------------------------------------------------------ workloads --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The inputs and schedule of a THL1 workload, made from the seed.
std::vector<Input> MakeThl1Inputs(const Args& a, const Fixture& f) {
  std::vector<Input> inputs = RenderPlatterPool(a.seed);
  if (a.workload == "overload_mixed") {
    for (Input& v : ValInputs(f.dataset)) inputs.push_back(std::move(v));
  }
  return inputs;
}

// The schedule of a THL1 workload over `seconds`, from `seed`: the
// platters first in `inputs`, then (overload_mixed) the val images.
Traffic MakeTraffic(const std::string& workload, uint64_t seed, double seconds,
                    std::span<const Input> inputs) {
  Traffic t;
  t.inputs = inputs;
  Rng pick(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::pair<double, int>> events;
  const double rate = workload == "interactive_416" ? kInteractiveRate
                                                    : kOverloadInteractiveRate;
  for (double s : PoissonSchedule(seed, rate, seconds)) {
    events.emplace_back(s, pick.NextInt(0, kPlatterPool - 1));
  }
  if (workload == "overload_mixed") {
    const int num_val = static_cast<int>(inputs.size()) - kPlatterPool;
    for (double s : PoissonSchedule(seed + 1, kOverloadBatchRate, seconds)) {
      events.emplace_back(s, kPlatterPool + pick.NextInt(0, num_val - 1));
    }
    std::sort(events.begin(), events.end());
  }
  for (const auto& [s, in] : events) {
    t.send_s.push_back(s);
    t.input_of.push_back(in);
  }
  return t;
}

// Drives `workload`'s load on `stack` for `seconds`, inputs from `seed`.
LoadResult RunLoad(const std::string& workload, const Stack& stack,
                   const std::vector<Input>& inputs, uint64_t seed,
                   double seconds) {
  const Traffic t = MakeTraffic(workload, seed, seconds, inputs);
  return workload == "interactive_416" ? RunNetClientLoad(stack.port(), t)
                                       : RunPipelinedLoad(stack.port(), t);
}

struct ClassCounts {
  int64_t attempted = 0, ok = 0, refused = 0, failed = 0;
};

ClassCounts CountClass(const LoadResult& r, int cls) {
  ClassCounts c;
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    if (r.outcomes[i].cls != cls) continue;
    ++c.attempted;
    if (r.outcomes[i].ok) {
      ++c.ok;
    } else if (IsRefusal(r.codes[i])) {
      ++c.refused;
    } else {
      ++c.failed;
    }
  }
  return c;
}

void PrintRequests(const char* phase, const char* cls, const ClassCounts& c) {
  std::printf("requests phase=%s class=%s attempted=%lld succeeded=%lld "
              "refused=%lld failed=%lld\n",
              phase, cls, static_cast<long long>(c.attempted),
              static_cast<long long>(c.ok), static_cast<long long>(c.refused),
              static_cast<long long>(c.failed));
}

// mAP@0.5 of replies to val inputs sent once each.
double MapOf(const std::vector<std::vector<Detection>>& replies,
             const std::vector<const Input*>& inputs) {
  std::vector<ImageEval> evals;
  for (size_t i = 0; i < inputs.size(); ++i) {
    ImageEval e;
    e.image_id = static_cast<int>(i);
    e.detections = replies[i];
    for (const TruthBox& t : inputs[i]->truths) {
      e.truths.push_back(GroundTruth{t.box, t.class_id});
    }
    evals.push_back(std::move(e));
  }
  return Evaluate(evals, kNumClasses, 0.5f).map;
}

// Sends every val image once over THL1 (untimed) and scores the replies.
double MapOverThl1(uint16_t port, const std::vector<Input>& val,
                   Checks* checks) {
  auto client = net::NetClient::Connect(port);
  THALI_CHECK(client.ok());
  std::vector<std::vector<Detection>> replies;
  std::vector<const Input*> ptrs;
  ClassCounts c;
  for (const Input& in : val) {
    net::DetectRequest req = in.request;
    req.priority = serve::Priority::kInteractive;
    req.deadline_ms = 0;
    auto reply = client->Detect(req);
    ++c.attempted;
    if (reply.ok()) {
      ++c.ok;
    } else if (IsRefusal(reply.status().code())) {
      ++c.refused;
    } else {
      ++c.failed;
    }
    replies.push_back(reply.ok() ? *reply : std::vector<Detection>{});
    ptrs.push_back(&in);
  }
  PrintRequests("val_replay", "interactive", c);
  checks->Expect(c.ok == c.attempted, "every val replay request succeeded");
  return MapOf(replies, ptrs);
}

// Every OK reply to an input in `sample` must be bitwise equal to the
// in-process Detector `ref` (same calibrated plan) on that input.
void CheckAgainstReference(const LoadResult& r, const std::vector<Input>& inputs,
                           Detector* ref, const std::set<int>& sample,
                           Checks* checks) {
  std::map<int, std::vector<Detection>> expect;
  int64_t compared = 0, mismatched = 0;
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const int in = r.input_of[i];
    if (!r.outcomes[i].ok || sample.count(in) == 0) continue;
    auto it = expect.find(in);
    if (it == expect.end()) {
      it = expect.emplace(in, ref->Detect(inputs[static_cast<size_t>(in)]
                                              .request.image)).first;
    }
    ++compared;
    if (!SameDetections(r.replies[i], it->second)) ++mismatched;
  }
  checks->Expect(compared > 0 && mismatched == 0,
                 StrFormat("replies bitwise equal to in-process Detector: "
                           "%lld compared over %zu inputs, %lld differ",
                           static_cast<long long>(compared), expect.size(),
                           static_cast<long long>(mismatched)));
}

// ------------------------------------------------------- result printing --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    if (!m.empty()) m += ", ";
    m += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), m.c_str());
  std::fflush(stdout);
}

void PrintHostHeader(const Args& a) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf("host nproc=%u isa=\"%s\" pool=%d compiler=\"%s\" date=%s "
              "int8_gemm=%s workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), CpuFeatureString().c_str(),
              MaxParallelism(), __VERSION__, date,
              SelectInt8GemmKernel().name, a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
}

// ---------------------------------------------------- traced replay ------

// One replayed request: the same input through NetClient::Detect, then
// Server::Submit->ready, then Detector::Detect with its stage times.
// The inner calls are separate calls on the same input; each inner span
// is laid at the start of the span it replays, so a layer's self time is
// its span minus the part its child covers (SelfTimeMs).
struct Ledger {
  double e2e_ms = 0, wire_ms = 0, serve_ms = 0, pre_ms = 0, fwd_ms = 0,
         post_ms = 0, unexplained_ms = 0, untraced_e2e_ms = 0,
         traced_e2e_ms = 0;
  std::vector<double> net_self, serve_self, detect_ms, pre, fwd, post;
  std::vector<Span> spans;
  ClassCounts calls;  // THL1 and Submit calls of both passes
};

Ledger TracedReplay(const Stack& s, Detector* det,
                    const std::vector<const Input*>& reqs) {
  auto client = net::NetClient::Connect(s.port());
  THALI_CHECK(client.ok());
  Ledger L;
  // Untraced pass: the same calls, timed, nothing recorded per layer.
  std::vector<double> untraced;
  for (const Input* in : reqs) {
    const auto a = Clock::now();
    const bool ok = client->Detect(in->request).ok();
    untraced.push_back(MsBetween(a, Clock::now()));
    ++L.calls.attempted;
    (ok ? L.calls.ok : L.calls.failed) += 1;
  }
  std::vector<Span> spans;
  spans.reserve(reqs.size() * 6);
  const auto origin = Clock::now();
  const auto rel = [&](Clock::time_point t) { return MsBetween(origin, t); };
  int64_t next_id = 0;
  const auto add = [&](int64_t parent, int64_t req, const char* name,
                       double start, double dur) {
    spans.push_back(Span{next_id, parent, req, name, start, start + dur});
    return next_id++;
  };
  std::vector<double> traced;
  for (size_t r = 0; r < reqs.size(); ++r) {
    const Input& in = *reqs[r];
    const auto a = Clock::now();
    const bool net_ok = client->Detect(in.request).ok();
    const auto b = Clock::now();
    const int64_t net_id = add(-1, r, "net.detect", rel(a), MsBetween(a, b));
    traced.push_back(MsBetween(a, b));

    serve::Server::SubmitOptions so;
    so.priority = in.request.priority;
    const auto c = Clock::now();
    auto fut = s.server->Submit(Image(in.request.image), so);
    const bool serve_ok = fut.ok() && fut->get().ok();
    const double serve_ms = MsBetween(c, Clock::now());
    L.calls.attempted += 2;
    L.calls.ok += (net_ok ? 1 : 0) + (serve_ok ? 1 : 0);
    L.calls.failed += (net_ok ? 0 : 1) + (serve_ok ? 0 : 1);
    const int64_t serve_id =
        add(net_id, r, "serve.submit", rel(a), serve_ms);

    const auto d = Clock::now();
    det->Detect(in.request.image);
    const double detect_ms = MsBetween(d, Clock::now());
    const int64_t core_id =
        add(serve_id, r, "core.detect", rel(a), detect_ms);
    const Detector::StageTimes st = det->last_stage_times();
    add(core_id, r, "image.preprocess", rel(a), st.preprocess_ms);
    add(core_id, r, "nn.forward", rel(a) + st.preprocess_ms, st.forward_ms);
    add(core_id, r, "eval.postprocess",
        rel(a) + st.preprocess_ms + st.forward_ms, st.postprocess_ms);
    L.detect_ms.push_back(detect_ms);
    L.pre.push_back(st.preprocess_ms);
    L.fwd.push_back(st.forward_ms);
    L.post.push_back(st.postprocess_ms);
  }
  for (const Span& sp : spans) {
    if (sp.name == "net.detect") L.net_self.push_back(SelfTimeMs(sp, spans));
    if (sp.name == "serve.submit") {
      L.serve_self.push_back(SelfTimeMs(sp, spans));
    }
  }
  L.spans = std::move(spans);
  L.e2e_ms = Mean(traced);
  L.wire_ms = Mean(L.net_self);
  L.serve_ms = Mean(L.serve_self);
  L.pre_ms = Mean(L.pre);
  L.fwd_ms = Mean(L.fwd);
  L.post_ms = Mean(L.post);
  L.unexplained_ms =
      L.e2e_ms - (L.wire_ms + L.serve_ms + L.pre_ms + L.fwd_ms + L.post_ms);
  L.untraced_e2e_ms = Median(untraced);
  L.traced_e2e_ms = Median(traced);
  return L;
}

// Writes the traced run's spans as CSV (times in ms from the replay's
// start).
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::string csv = "id,parent,request,name,start_ms,end_ms\n";
  for (const Span& sp : spans) {
    csv += StrFormat("%lld,%lld,%lld,%s,%.6f,%.6f\n",
                     static_cast<long long>(sp.id),
                     static_cast<long long>(sp.parent),
                     static_cast<long long>(sp.request), sp.name.c_str(),
                     sp.start_ms, sp.end_ms);
  }
  THALI_CHECK_OK(WriteStringToFile(path, csv));
  std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
}

// Empty-body ParallelFor fork/join on the default pool, microseconds.
double ParallelForUs() {
  const int64_t strands = MaxParallelism();
  std::vector<double> per_block;
  for (int block = 0; block < 5; ++block) {
    constexpr int kCalls = 400;
    const auto a = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      ParallelFor(0, strands, 1, [](int64_t, int64_t, int) {});
    }
    per_block.push_back(MsBetween(a, Clock::now()) * 1e3 / kCalls);
  }
  return Median(per_block);
}

// The selected int8 GEMM kernel over every distinct conv GEMM shape of
// the served network (m = filters, n = out_h*out_w, k = c*ks*ks).
// Returns {GOPS with ops = 2mnk, GB/s with bytes computed from the
// operand and result tensor sizes, number of shapes}.
std::tuple<double, double, int> Int8GemmRates(Network& net) {
  std::set<std::tuple<int64_t, int64_t, int64_t>> shapes;
  for (int i = 0; i < net.num_layers(); ++i) {
    const Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    shapes.insert({conv.options().filters,
                   l.output_shape().dim(2) * l.output_shape().dim(3),
                   l.input_shape().dim(1) * conv.options().ksize *
                       conv.options().ksize});
  }
  double ops = 0, bytes = 0, secs = 0;
  Rng rng(1);
  for (const auto& [m, n, k] : shapes) {
    const int64_t kp = Int8PackedK(k);
    std::vector<float> w(static_cast<size_t>(m * k));
    for (float& v : w) v = rng.NextGaussian();
    std::vector<int8_t> qw(static_cast<size_t>(m * kp));
    std::vector<float> wscale(static_cast<size_t>(m));
    std::vector<int32_t> wcolsum(static_cast<size_t>(m));
    Int8QuantizeWeights(w.data(), m, k, qw.data(), wscale.data(),
                        wcolsum.data());
    float in_scale = 0;
    int32_t in_zp = 0;
    Int8RangeToScaleZp(-3.0f, 3.0f, &in_scale, &in_zp);
    std::vector<float> x(static_cast<size_t>(k * n));
    for (float& v : x) v = rng.NextGaussian();
    std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
    Int8QuantizeActivations(x.data(), k * n, 1.0f / in_scale, in_zp,
                            qcol.data());
    std::vector<uint8_t> packed(static_cast<size_t>(Int8PackedActBytes(k, n)));
    Int8PackActCols(qcol.data(), k, n, packed.data());
    std::vector<float> bias(static_cast<size_t>(m), 0.1f);
    Int8Epilogue epi;
    epi.in_scale = in_scale;
    epi.in_zp = in_zp;
    epi.wscale = wscale.data();
    epi.wcolsum = wcolsum.data();
    epi.bias = bias.data();
    epi.activation = GemmActivation::kLeaky;
    std::vector<float> c(static_cast<size_t>(m * n));
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    Int8GemmPrepacked(m, n, k, qw.data(), packed.data(), epi, c.data(), n,
                      acc.data());  // warm
    int reps = 0;
    const auto a = Clock::now();
    do {
      Int8GemmPrepacked(m, n, k, qw.data(), packed.data(), epi, c.data(), n,
                        acc.data());
      ++reps;
    } while (MsBetween(a, Clock::now()) < 20.0);
    secs += MsBetween(a, Clock::now()) / 1e3;
    ops += 2.0 * m * n * k * reps;
    // qw + packed activations + i32 accumulator + fp32 output.
    bytes += static_cast<double>(m * kp + kp * n + 8 * m * n) * reps;
  }
  return {ops / secs / 1e9, bytes / secs / 1e9, static_cast<int>(shapes.size())};
}

// ----------------------------------------------------------------- main --

int Run(const Args& a) {
  PrintHostHeader(a);
  const Fixture f{bench::EnsureTrainedModel(/*log=*/true),
                  bench::StandardDataset()};
  if (f.model.best_map < kMinTrainedMap) {
    std::fprintf(stderr, "refusing to run: the model's best val mAP %.3f is "
                 "below %.2f, so these are not the trained weights\n",
                 f.model.best_map, kMinTrainedMap);
    return 2;
  }
  std::printf("model weights=%s trained_best_map=%.4f paper_iteration=%d\n",
              f.model.weights_path.c_str(), f.model.best_map,
              f.model.best_paper_iteration);

  const std::vector<Input> val = ValInputs(f.dataset);
  const std::vector<Input> inputs = MakeThl1Inputs(a, f);

  // Set-up, several times; the last stack serves the load.
  BuildTimes times;
  std::vector<double> setup_s;
  Stack stack;
  const auto setups_from = Clock::now();
  for (int i = 0; i < kMaxSetups && (i < kMinSetups ||
                                     MsBetween(setups_from, Clock::now()) <
                                         kMinSetupMs);
       ++i) {
    stack.Stop();
    double s = 0;
    stack = StartStack(f, kServed, inputs[0].request, &times, &s);
    setup_s.push_back(s);
  }

  // Warm-up outside the measured window with the workload's own traffic
  // shape (another seed): lazy packing, arena re-plans for the batch
  // sizes the load produces, allocator growth.
  {
    const LoadResult w =
        RunLoad(a.workload, stack, inputs, a.seed + 1000003, kWarmupSeconds);
    for (int cls : {kInteractiveClass, kBatchClass}) {
      const ClassCounts c = CountClass(w, cls);
      if (c.attempted > 0) PrintRequests("warmup", kClassNames[cls], c);
    }
  }
  const serve::MetricsSnapshot before = stack.server->metrics().Snapshot();
  const int64_t errors_before = stack.front->counters().detect_errors.load();
  const int64_t dropped_before =
      stack.front->counters().connections_dropped.load();

  const LoadResult r = RunLoad(a.workload, stack, inputs, a.seed, a.seconds);
  const serve::MetricsSnapshot after = stack.server->metrics().Snapshot();

  Checks checks;
  const ClassCounts ci = CountClass(r, kInteractiveClass);
  const ClassCounts cb = CountClass(r, kBatchClass);
  const int64_t attempted = static_cast<int64_t>(r.outcomes.size());
  const int64_t ok = ci.ok + cb.ok;
  const int64_t failed = ci.failed + cb.failed;
  if (ci.attempted > 0) PrintRequests("load", kClassNames[0], ci);
  if (cb.attempted > 0) PrintRequests("load", kClassNames[1], cb);
  if (a.workload == "overload_mixed") {
    std::printf("requests refused unsent (connection window full)=%lld\n",
                static_cast<long long>(r.window_full));
  }
  checks.Expect(r.decode_errors == 0,
                StrFormat("every reply decodes (%lld did not)",
                          static_cast<long long>(r.decode_errors)));
  checks.Expect(failed == 0,
                StrFormat("no request failed other than by admission "
                          "refusal (%lld failed)",
                          static_cast<long long>(failed)));

  // Detection totals: equal on two commits means equal inputs and outputs.
  int64_t dets = 0;
  for (const auto& rep : r.replies) dets += static_cast<int64_t>(rep.size());
  double truths = 0;
  for (const Input& in : inputs) truths += static_cast<double>(in.truths.size());
  std::printf("inputs distinct=%zu truths=%.0f requests=%lld\n",
              inputs.size(), truths, static_cast<long long>(attempted));
  std::printf("detections total=%lld ok_replies=%lld dets_per_img=%.4f\n",
              static_cast<long long>(dets), static_cast<long long>(ok),
              ok > 0 ? static_cast<double>(dets) / ok : 0.0);

  // Bitwise pin of the replies against an in-process Detector.
  StatusOr<Detector> ref = MakeDetector(f, kServed, nullptr);
  THALI_CHECK(ref.ok());
  // The results record this file's md5 next to the weights'.
  THALI_CHECK_OK(SaveCalibration(ref->network(), kCalibrationFile));
  std::set<int> sample;
  for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
    // Every platter of the pool, and the first val images.
    if (inputs[i].cls == kInteractiveClass ||
        i - kPlatterPool < kRefSamples) {
      sample.insert(i);
    }
  }
  CheckAgainstReference(r, inputs, &*ref, sample, &checks);

  const double map50 = MapOverThl1(stack.port(), val, &checks);
  checks.Expect(map50 >= kMinTrainedMap * 0.5,
                StrFormat("map50 %.4f shows trained weights", map50));
  {
    // ROADMAP pin: on the val split at the trainer's evaluation
    // threshold, the int8 plan's mAP is within kMapPinTolerance of the
    // fused fp32 plan's.
    StatusOr<Detector> fp32 =
        MakeDetector(f, Deployment{false, kEvalConf}, nullptr);
    THALI_CHECK(fp32.ok());
    ref->set_options(Detector::Options{kEvalConf, kNms});
    std::vector<std::vector<Detection>> frep, qrep;
    std::vector<const Input*> ptrs;
    for (const Input& in : val) {
      frep.push_back(fp32->Detect(in.request.image));
      qrep.push_back(ref->Detect(in.request.image));
      ptrs.push_back(&in);
    }
    ref->set_options(Detector::Options{kServed.conf, kNms});
    const double fmap = MapOf(frep, ptrs), qmap = MapOf(qrep, ptrs);
    std::printf("map50 conf=%g fp32=%.6f int8=%.6f\n", kEvalConf, fmap, qmap);
    checks.Expect(std::fabs(qmap - fmap) <= kMapPinTolerance,
                  StrFormat("int8 map50 %.4f within %.2f of fp32 %.4f", qmap,
                            kMapPinTolerance, fmap));
    checks.Expect(fmap >= kMinTrainedMap,
                  StrFormat("fp32 map50 %.4f shows trained weights", fmap));
  }

  // Timings (interactive class only where classes mix).
  std::vector<double> lat, lat_at;
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const Outcome& o = r.outcomes[i];
    if (o.ok && o.cls == kInteractiveClass) {
      lat.push_back(o.latency_ms);
      lat_at.push_back(r.start_s[i]);
    }
  }
  std::printf("timing latency_ms %s\n",
              FormatTiming(SummarizeTiming(lat)).c_str());
  std::printf("timing loadgen.late_ms %s\n",
              FormatTiming(SummarizeTiming(r.late_ms)).c_str());
  std::printf("timing setup_s %s\n",
              FormatTiming(SummarizeTiming(setup_s)).c_str());
  const double late_p99 = bench::Percentile(r.late_ms, 99.0);
  if (late_p99 > kLateLimitMs) {
    std::fprintf(stderr, "invalid run: the load generator ran %.2f ms late "
                 "at p99 (limit %.1f ms)\n", late_p99, kLateLimitMs);
    return 3;
  }

  // Per-slice figures. The latency metric is the lowest slice: a
  // neighbour's load on a shared host adds waiting to whole slices, so the
  // least disturbed slice measures the program. Rates and CPU time are
  // medians over slices. The p95 series is printed, not reported.
  const int num_slices = std::max(1, static_cast<int>(a.seconds / kSliceSeconds));
  const double slice_s = a.seconds / num_slices;
  std::vector<double> p50s, p95s, ips, goodput, cpu_ms;
  const auto lat_slices = SliceSamples(lat_at, lat, slice_s, num_slices);
  std::vector<std::vector<Outcome>> done_slices(num_slices);
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const double k = std::floor(r.done_s[i] / slice_s);
    if (r.done_s[i] >= 0 && k < num_slices) {
      done_slices[static_cast<size_t>(k)].push_back(r.outcomes[i]);
    }
  }
  const double nan = std::nan("");
  for (int k = 0; k < num_slices; ++k) {
    const std::vector<double>& l = lat_slices[k];
    p50s.push_back(PercentileSupported(static_cast<int64_t>(l.size()), 50.0)
                       ? bench::Percentile(l, 50.0)
                       : nan);
    p95s.push_back(PercentileSupported(static_cast<int64_t>(l.size()), 95.0)
                       ? bench::Percentile(l, 95.0)
                       : nan);
    const double oks = static_cast<double>(
        std::count_if(done_slices[k].begin(), done_slices[k].end(),
                      [](const Outcome& o) { return o.ok; }));
    ips.push_back(oks / slice_s);
    goodput.push_back(GoodputRps(done_slices[k], kClassLimitMs, slice_s));
    const double cpu = CpuAt(r.cpu_trace, (k + 1) * slice_s) -
                       CpuAt(r.cpu_trace, k * slice_s);
    cpu_ms.push_back(oks > 0 ? cpu * 1e3 / oks : nan);
  }
  const auto print_slices = [](const char* name, const std::vector<double>& v) {
    std::string line;
    for (double x : v) line += StrFormat(" %.4g", x);
    std::printf("slices %s%s\n", name, line.c_str());
  };
  print_slices("latency_p50_ms", p50s);
  print_slices("latency_p95_ms", p95s);
  print_slices("throughput_ips", ips);
  print_slices("goodput_rps", goodput);
  print_slices("cpu_ms_per_req", cpu_ms);
  if (std::isnan(MinOverSlices(p50s))) {
    std::fprintf(stderr, "invalid run: no %.1f s slice holds the 20 latency "
                 "samples a median needs\n", slice_s);
    return 3;
  }

  const double peak_rss = PeakRssMb();
  if (!a.trace) {
    const std::vector<Metric> metrics = {
        {"latency_p50_ms", MinOverSlices(p50s), "ms"},
        {"throughput_ips", MedianOverSlices(ips), "1/s"},
        {"goodput_rps", MedianOverSlices(goodput), "1/s"},
        {"map50", map50, "ratio"},
        {"ok_share", static_cast<double>(ok) / attempted, "ratio"},
        {"cpu_ms_per_req", MedianOverSlices(cpu_ms), "ms"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
    PrintResult(checks.ok(), attempted, failed, metrics);
    return checks.ok() ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<const Input*> replay;
  for (size_t i = 0; i < r.input_of.size() && replay.size() < kReplayRequests;
       ++i) {
    replay.push_back(&inputs[static_cast<size_t>(r.input_of[i])]);
  }
  const Ledger L = TracedReplay(stack, &*ref, replay);
  PrintRequests("traced_replay",
                a.workload == "overload_mixed" ? "both"
                                               : kClassNames[inputs[0].cls],
                L.calls);
  checks.Expect(L.calls.failed == 0, "every traced replay call succeeded");
  std::printf("ledger over %zu replayed requests, %zu spans (mean ms):\n"
              "  e2e %.4f = wire %.4f + serve %.4f + preprocess %.4f + "
              "forward %.4f + postprocess %.4f + unexplained %.4f\n"
              "  tracing overhead %.4f (traced median %.4f - untraced "
              "median %.4f)\n",
              replay.size(), L.spans.size(), L.e2e_ms, L.wire_ms, L.serve_ms,
              L.pre_ms, L.fwd_ms, L.post_ms, L.unexplained_ms,
              L.traced_e2e_ms - L.untraced_e2e_ms, L.traced_e2e_ms,
              L.untraced_e2e_ms);

  // The workload's request payloads on the wire and through the decoder.
  std::vector<double> req_bytes, decode_ms, letterbox_ms;
  for (const Input* in : replay) {
    const std::vector<uint8_t> payload = net::EncodeDetectRequest(in->request);
    req_bytes.push_back(static_cast<double>(
        net::EncodeFrame(net::Op::kDetect, payload).size()));
    net::DetectRequest back;
    const auto t0 = Clock::now();
    THALI_CHECK_OK(net::DecodeDetectRequest(payload, &back));
    decode_ms.push_back(MsBetween(t0, Clock::now()));
    std::vector<float> planes(static_cast<size_t>(3) * ref->network().input_width() *
                              ref->network().input_height());
    const auto t1 = Clock::now();
    LetterboxIntoPlanes(in->request.image, ref->network().input_width(),
                        ref->network().input_height(), planes.data());
    letterbox_ms.push_back(MsBetween(t1, Clock::now()));
  }

  // Batch-8 DetectBatch of val images on the workload's detector.
  std::vector<Image> batch8;
  for (int i = 0; i < 8; ++i) batch8.push_back(val[static_cast<size_t>(i)].request.image);
  std::vector<double> b8_ms, b8_fwd;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    ref->DetectBatch(batch8);
    b8_ms.push_back(MsBetween(t0, Clock::now()) / 8.0);
    b8_fwd.push_back(ref->last_stage_times().forward_ms);
  }
  ref->Detect(replay[0]->request.image);  // back to batch 1

  const auto [gops, gbps, nshapes] = Int8GemmRates(ref->network());
  std::printf("int8 gemm kernel=%s shapes=%d\n", SelectInt8GemmKernel().name,
              nshapes);
  const int64_t submitted = after.submitted - before.submitted;
  const int64_t batches = after.batches - before.batches;
  const int64_t shed = (after.shed_pressure - before.shed_pressure) +
                       (after.shed_deadline - before.shed_deadline);
  for (const auto& [name, v] :
       std::vector<std::pair<const char*, const std::vector<double>*>>{
           {"net.decode_ms", &decode_ms},
           {"net.self_ms", &L.net_self},
           {"serve.self_ms", &L.serve_self},
           {"core.detect_b1_ms", &L.detect_ms},
           {"core.detect_b8_ms_per_img", &b8_ms},
           {"image.letterbox_ms", &L.pre},
           {"image.letterbox_into_planes_ms", &letterbox_ms},
           {"nn.forward_b1_ms", &L.fwd},
           {"nn.forward_b8_ms", &b8_fwd},
           {"eval.postprocess_ms", &L.post}}) {
    std::printf("timing %s %s\n", name,
                FormatTiming(SummarizeTiming(*v)).c_str());
  }
  WriteSpans(L.spans, "spans_" + a.workload + ".csv");
  const std::vector<Metric> metrics = {
      {"net.request_bytes", Mean(req_bytes), "bytes"},
      {"net.decode_ms", Median(decode_ms), "ms"},
      {"net.self_ms", Median(L.net_self), "ms"},
      {"net.detect_errors",
       static_cast<double>(stack.front->counters().detect_errors.load() -
                           errors_before), "count"},
      {"net.connections_dropped",
       static_cast<double>(stack.front->counters().connections_dropped.load() -
                           dropped_before), "count"},
      {"serve.self_ms", Median(L.serve_self), "ms"},
      {"serve.queue_wait_p99_ms", after.queue_wait.p99_ms, "ms"},
      {"serve.mean_batch",
       batches > 0 ? static_cast<double>(after.batched_images -
                                         before.batched_images) / batches
                   : 0.0, "count"},
      {"serve.shed_share",
       submitted > 0 ? static_cast<double>(shed) / submitted : 0.0, "ratio"},
      {"serve.timed_out", static_cast<double>(after.timed_out - before.timed_out),
       "count"},
      {"core.detect_b1_ms", Median(L.detect_ms), "ms"},
      {"core.detect_b8_ms_per_img", Median(b8_ms), "ms"},
      {"image.letterbox_ms", Median(L.pre), "ms"},
      {"image.letterbox_into_planes_ms", Median(letterbox_ms), "ms"},
      {"nn.forward_b1_ms", Median(L.fwd), "ms"},
      {"nn.forward_b8_ms", Median(b8_fwd), "ms"},
      {"nn.quantized_layers",
       static_cast<double>(ref->network().exec_plan().quantized_layers),
       "count"},
      {"eval.postprocess_ms", Median(L.post), "ms"},
      {"eval.dets_per_img", ok > 0 ? static_cast<double>(dets) / ok : 0.0,
       "count"},
      {"base.parallel_for_us", ParallelForUs(), "us"},
      {"tensor.int8_gemm_gops", gops, "GOP/s"},
      {"tensor.int8_gemm_gbytes_s", gbps, "GB/s"},
      {"darknet.load_s", Median(times.load_s), "s"},
      {"core.calibrate_s", Median(times.calibrate_s), "s"},
      {"loadgen.late_p99_ms", late_p99, "ms"},
      {"ledger.unexplained_ms", L.unexplained_ms, "ms"},
      {"ledger.trace_overhead_ms", L.traced_e2e_ms - L.untraced_e2e_ms, "ms"},
  };
  PrintResult(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && a->seconds > 0 &&
         (a->workload == "interactive_416" || a->workload == "overload_mixed");
}

}  // namespace
}  // namespace thalibench
}  // namespace thali

int main(int argc, char** argv) {
  thali::thalibench::Args args;
  if (!thali::thalibench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: thalibench --workload interactive_416|overload_mixed "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return thali::thalibench::Run(args);
}
