#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "checks.hpp"
#include "layers.hpp"
#include "net/cluster.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc.hpp"
#include "runtime/channel.hpp"
#include "runtime/cluster.hpp"
#include "runtime/pipeline.hpp"

#ifndef SERVEBENCH_WORKER_BIN
#error "SERVEBENCH_WORKER_BIN must name the adcnn_conv_worker binary"
#endif

namespace servebench {

namespace {

using namespace adcnn;
namespace rt = adcnn::runtime;

// --- workload definitions ----------------------------------------------

struct Workload {
  const char* name;
  bool sockets;
  bool int8;
  bool batched;
  /// Closed loop: requests kept outstanding (past the knee, see README).
  int outstanding;
  /// Open loop: Poisson arrival rate, images/s (0 = closed loop).
  double rate;
};

constexpr Workload kWorkloads[] = {
    {"closed-int8-batched", false, true, true, 8, 0.0},
    {"open-fp32-tenants", false, false, false, 0, 1000.0},
    {"closed-sockets-fp32", true, false, false, 8, 0.0},
};

constexpr int kNodes = 4;
/// FDSP grid: 2x2 tiles of (1, 3, 16, 16) per 32x32 image.
constexpr int kGrid = 2;
constexpr std::int64_t kGridTiles = kGrid * kGrid;
constexpr int kMaxInFlight = 4;
constexpr int kMaxBatch = 4;
constexpr std::int64_t kMaxBatchWaitUs = 500;
constexpr std::size_t kPoolSize = 256;
constexpr int kCalibrationImages = 8;
constexpr double kWarmupS = 1.0;
constexpr double kSliceS = 1.0;
/// Latency samples kept per window, shared out over its 1-s slices, and
/// generator-lateness samples per window (see Reservoir). Fixed, so that
/// the benchmark's memory does not depend on the run length either. A
/// 60-s window keeps 8192 a slice; today's fastest workload delivers ~4k
/// img/s, so every sample is kept.
constexpr std::size_t kLatencySamples = 60 * 8192;
constexpr std::size_t kLateSamples = 16384;
/// Open-loop tenants: weights 3/2/1, drawing 60/30/10% of arrivals.
constexpr double kTenantWeight[] = {3.0, 2.0, 1.0};
constexpr double kTenantShare[] = {0.6, 0.3, 0.1};
const char* const kTenantName[] = {"gold", "silver", "bronze"};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

void poll_interrupt() {
  if (interrupted()) throw Interrupted{};
}

// --- seeded inputs -----------------------------------------------------

/// Independent streams derived from the workload seed.
Rng stream(std::uint64_t seed, std::uint64_t which) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + which);
}

struct Inputs {
  std::vector<Tensor> pool;
  std::vector<Tensor> calibration;
};

std::vector<Tensor> make_pool(std::uint64_t seed) {
  Rng rng = stream(seed, 1);
  std::vector<Tensor> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(Tensor::randn(Shape{1, 3, 32, 32}, rng));
  }
  return pool;
}

std::vector<Tensor> make_calibration(std::uint64_t seed) {
  Rng rng = stream(seed, 2);
  std::vector<Tensor> cal;
  for (int i = 0; i < kCalibrationImages; ++i) {
    cal.push_back(Tensor::randn(Shape{1, 3, 32, 32}, rng));
  }
  return cal;
}

Inputs make_inputs(std::uint64_t seed) {
  return Inputs{make_pool(seed), make_calibration(seed)};
}

struct Arrival {
  double t_s;
  int tenant;
};

/// Poisson arrivals at `rate` over the three tenants (60/30/10%), drawn one
/// at a time from stream k = 3 so no schedule is held in memory.
class ArrivalStream {
 public:
  ArrivalStream(std::uint64_t seed, double rate)
      : rng_(stream(seed, 3)), rate_(rate) {}

  Arrival next() {
    t_s_ += -std::log(1.0 - rng_.uniform()) / rate_;
    const double u = rng_.uniform();
    const int tenant = u < kTenantShare[0]                     ? 0
                       : u < kTenantShare[0] + kTenantShare[1] ? 1
                                                               : 2;
    return Arrival{t_s_, tenant};
  }

 private:
  Rng rng_;
  double rate_;
  double t_s_ = 0.0;
};

/// At most `capacity` samples of a stream, in memory allocated and written
/// up front, so that the benchmark's own footprint (part of peak_rss_mb)
/// does not grow with the number of requests a run serves. Past capacity
/// each sample replaces a kept one with probability capacity / seen
/// (reservoir sampling from a fixed-seed generator), so quantiles stay
/// unbiased.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 0) : kept_(capacity, 0.0f) {}

  void add(double v) {
    const std::uint64_t i = seen_++;
    if (i < kept_.size()) {
      kept_[i] = static_cast<float>(v);
      return;
    }
    const std::uint64_t j = rng_.next_u64() % seen_;
    if (j < kept_.size()) kept_[j] = static_cast<float>(v);
  }
  std::int64_t seen() const { return static_cast<std::int64_t>(seen_); }
  std::vector<double> samples() const {
    const std::size_t n = std::min<std::uint64_t>(seen_, kept_.size());
    return std::vector<double>(kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<float> kept_;
  std::uint64_t seen_ = 0;
  Rng rng_{0x5E1EC7ull};
};

/// vgg-mini 32x32x3, 4 classes, fixed weight seed; FDSP 2x2 with a clipped
/// ReLU on [0, 3] and the 4-bit wire codec.
net::ModelSpec model_spec() {
  net::ModelSpec spec;
  spec.family = "vgg";
  spec.seed = 11;
  spec.image = 32;
  spec.channels = 3;
  spec.classes = 4;
  spec.grid_rows = kGrid;
  spec.grid_cols = kGrid;
  spec.clipped_relu = true;
  spec.clip_upper = 3.0f;
  spec.quantize = true;
  spec.bits = 4;
  return spec;
}

// --- the serving rig ---------------------------------------------------

/// Model, cluster and streaming server of one workload. Members are
/// destroyed server first, then cluster (which reaps socket workers with
/// SIGTERM, escalating to SIGKILL), then the model.
class Rig {
 public:
  Rig(const Workload& w, const std::vector<Tensor>& calibration,
      obs::Telemetry telemetry)
      : w_(w), pm_(model_spec().build()) {
    if (w.sockets) {
      net::DistributedConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.worker_binary = SERVEBENCH_WORKER_BIN;
      cfg.spec = model_spec();
      cfg.compress = true;
      cfg.optimize_model = true;
      cfg.telemetry = telemetry;
      dist_ = std::make_unique<net::DistributedCluster>(pm_, cfg);
      if (!dist_->wait_all_connected(30.0)) {
        throw std::runtime_error("socket workers did not all connect");
      }
    } else {
      rt::ClusterConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.time_scale = 0.0;
      cfg.compress = true;
      cfg.optimize_model = true;
      if (w.int8) {
        cfg.precision = nn::Precision::kInt8;
        cfg.int8_calibration = calibration;
      }
      cfg.telemetry = telemetry;
      edge_ = std::make_unique<rt::EdgeCluster>(pm_, cfg);
    }
    rt::StreamingConfig scfg;
    scfg.max_in_flight = kMaxInFlight;
    if (w.batched) scfg.batching = rt::BatchConfig{kMaxBatch, kMaxBatchWaitUs};
    if (w.rate > 0.0) {
      for (int t = 0; t < 3; ++t) {
        rt::TenantConfig tc;
        tc.name = kTenantName[t];
        tc.weight = kTenantWeight[t];
        tc.queue_capacity = 0;  // unbounded: nothing is shed
        scfg.tenants.push_back(tc);
      }
    } else {
      scfg.tenants.push_back(rt::TenantConfig{});
    }
    scfg.telemetry = telemetry;
    server_ = std::make_unique<rt::StreamingServer>(central(), scfg);
  }

  rt::StreamingServer& server() { return *server_; }
  rt::CentralNode& central() {
    return dist_ ? dist_->central() : edge_->central();
  }
  core::PartitionedModel& model() { return pm_; }
  rt::EdgeCluster* edge() { return edge_.get(); }
  net::DistributedCluster* dist() { return dist_.get(); }
  int tenants() const { return w_.rate > 0.0 ? 3 : 1; }

  /// Drain and stop the server; the cluster then serves sequential infer().
  void close_server() { server_->close(); }

  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> pids;
    if (!dist_) return pids;
    for (int k = 0; k < dist_->num_nodes(); ++k) {
      if (dist_->worker_pid(k) > 0) pids.push_back(dist_->worker_pid(k));
    }
    return pids;
  }

  double cpu_seconds() const {
    double s = cpu_seconds_self();
    for (pid_t pid : worker_pids()) s += cpu_seconds_pid(pid);
    return s;
  }

  /// Serving process peak plus, on sockets, the largest worker's peak.
  double peak_rss_mb() const {
    double worker = 0.0;
    for (pid_t pid : worker_pids()) {
      worker = std::max(worker, peak_rss_mb_pid(pid));
    }
    return peak_rss_mb_self() + worker;
  }

  /// In-process only: Σ tiles_processed, Σ downlink and uplink bytes.
  std::int64_t tiles_processed() const {
    std::int64_t n = 0;
    for (int k = 0; k < kNodes; ++k) n += edge_->node(k).tiles_processed();
    return n;
  }
  std::uint64_t downlink_bytes() const {
    std::uint64_t b = 0;
    for (int k = 0; k < kNodes; ++k) b += edge_->downlink(k).bytes_sent();
    return b;
  }
  std::uint64_t uplink_bytes() const {
    std::uint64_t b = 0;
    for (int k = 0; k < kNodes; ++k) b += edge_->uplink(k).bytes_sent();
    return b;
  }

 private:
  const Workload& w_;
  core::PartitionedModel pm_;
  std::unique_ptr<rt::EdgeCluster> edge_;
  std::unique_ptr<net::DistributedCluster> dist_;
  std::unique_ptr<rt::StreamingServer> server_;
};

// --- load generation and accounting ------------------------------------

/// What one closed- or open-loop phase observed. Its memory is fixed when
/// the window starts, whatever the number of requests served.
struct Phase {
  double window_s = 0.0;
  std::int64_t attempted = 0;  // requests sent inside the window
  std::int64_t delivered = 0;  // ... whose output arrived intact
  std::int64_t failed = 0;     // ... whose wait() threw or was zero-filled
  /// Outputs ready in each 1-s slice of the window (warm-up requests too).
  std::vector<std::int64_t> slice_outputs;
  /// Latency of the delivered in-window requests, by the 1-s slice of
  /// their send (due) time.
  std::vector<Reservoir> slice_latency_s;
  Reservoir late_s;          // open loop: send time - due time
  double late_max_s = 0.0;
  double steal_s = 0.0;      // host CPU time the hypervisor took, in the window
  double cpu_s = 0.0;        // serving process + workers, in the window
  double peak_rss_mb = 0.0;
  std::int64_t outputs = 0;  // every output seen, warm-up and drain too
};

/// Each output's share of its cluster job is counted in 1/kJobShares: a
/// job of b images reports the job's tiles, retries and bytes on each of
/// its b outputs, so each output adds 1/b of them. 12 is divisible by
/// every batch size up to kMaxBatch.
constexpr std::int64_t kJobShares = 12;
static_assert(kMaxBatch <= 4 && kJobShares % 3 == 0 && kJobShares % 4 == 0);

/// Run-wide state shared by all phases of one run.
struct Ledger {
  RepeatCheck repeat;
  Result* result = nullptr;
  /// Σ over outputs of (job tiles, retries, downlink bytes) / batch size,
  /// in 1/kJobShares.
  std::int64_t tile_shares = 0;
  std::int64_t retry_shares = 0;
  std::int64_t downlink_byte_shares = 0;
  /// Expected downlink bytes of the last job seen (the outputs of one job
  /// are usually redeemed one after another).
  std::pair<std::int64_t, std::int64_t> last_job{-1, 0};
  std::int64_t last_job_bytes = 0;
};

/// Bytes the Central node's downlinks carry for one job: each tile's task
/// message, as the runtime serializes it.
std::int64_t job_downlink_bytes(std::int64_t job, std::int64_t tiles) {
  rt::TileTask task;
  task.image_id = job;
  task.shape = Shape{1, 3, 32 / kGrid, 32 / kGrid};
  task.payload.resize(static_cast<std::size_t>(task.shape.numel()) *
                      sizeof(float));
  std::int64_t bytes = 0;
  for (std::int64_t t = 0; t < tiles; ++t) {
    task.tile_id = t;
    bytes += static_cast<std::int64_t>(task.wire_bytes());
  }
  return bytes;
}

/// Add one delivered output's share of its job to the ledger.
void count_job_share(const rt::InferStats& stats, Ledger& ledger) {
  const std::int64_t batch = stats.tiles_total / kGridTiles;
  if (stats.tiles_total % kGridTiles != 0 || batch < 1 || batch > kMaxBatch) {
    ledger.result->fail("job " + std::to_string(stats.image_id) + " reports " +
                        std::to_string(stats.tiles_total) + " tiles");
    return;
  }
  const std::int64_t share = kJobShares / batch;
  ledger.tile_shares += stats.tiles_total * share;
  ledger.retry_shares += stats.tiles_retried * share;
  const std::pair<std::int64_t, std::int64_t> job{stats.image_id,
                                                  stats.tiles_total};
  if (job != ledger.last_job) {
    ledger.last_job = job;
    ledger.last_job_bytes = job_downlink_bytes(job.first, job.second);
  }
  ledger.downlink_byte_shares += ledger.last_job_bytes * share;
}

struct Ticket {
  std::int64_t ticket = 0;
  std::size_t input = 0;
  Clock::time_point due;
  Clock::time_point sent;
  bool counted = false;  // sent inside the measured window
  int slice = 0;
  std::int64_t root_span = 0;
};

int slice_of(double t_in_window_s, const Phase& ph) {
  return std::min(static_cast<int>(t_in_window_s / kSliceS),
                  static_cast<int>(ph.slice_outputs.size()) - 1);
}

/// Redeem one ticket and account for it. Counting happens here, where the
/// outcome is known: a wait() that throws (including a shed) or any
/// zero-filled tile is a failure; anything else is delivered and checked.
void redeem(rt::StreamingServer& server, const Ticket& t,
            Clock::time_point window_start, Phase& ph, Ledger& ledger,
            SpanLog* spans) {
  rt::InferStats stats;
  double latency_s = 0.0;
  std::string failure;
  Tensor out;
  {
    ScopedSpan wait_span(spans, "runtime.wait", "runtime",
                         static_cast<std::int64_t>(t.ticket), t.root_span);
    try {
      out = server.wait(t.ticket, &stats, &latency_s);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  const Clock::time_point ready = t.sent + to_duration(latency_s);
  if (spans) {
    Span root;
    root.name = "bench.request";
    root.layer = "bench";
    root.id = t.root_span;
    root.image = t.ticket;
    root.begin_ns = spans->ns(t.due);
    root.end_ns = spans->now_ns();
    spans->record(root);
  }
  ++ph.outputs;
  if (failure.empty()) {
    const double ready_in_window_s = seconds(ready - window_start);
    if (ready_in_window_s >= 0.0 && ready_in_window_s < ph.window_s) {
      ++ph.slice_outputs[static_cast<std::size_t>(
          slice_of(ready_in_window_s, ph))];
    }
    count_job_share(stats, ledger);
    failure = check_no_zero_fill(stats);
  }
  if (failure.empty()) {
    ledger.result->fail(ledger.repeat.observe(t.input, out));
  }
  if (!t.counted) return;
  if (!failure.empty()) {
    ++ph.failed;
    if (ledger.result->failed_reason.empty()) {
      ledger.result->failed_reason = failure;
    }
    return;
  }
  ++ph.delivered;
  ph.slice_latency_s[static_cast<std::size_t>(t.slice)].add(
      seconds(ready - t.due));
}

void start_window(Phase& ph, double window_s) {
  const auto slices =
      static_cast<std::size_t>(std::ceil(window_s / kSliceS - 1e-9));
  ph.window_s = window_s;
  ph.slice_outputs.assign(slices, 0);
  ph.slice_latency_s.clear();
  for (std::size_t i = 0; i < slices; ++i) {
    ph.slice_latency_s.emplace_back(kLatencySamples / slices);
  }
}

/// One thread keeps `outstanding` requests in flight: submit until the
/// count is reached, then redeem the oldest and submit the next.
Phase closed_loop(Rig& rig, const Inputs& in, int outstanding,
                  double warmup_s, double window_s, Ledger& ledger,
                  SpanLog* spans, std::size_t* next_input) {
  Phase ph;
  start_window(ph, window_s);
  rt::StreamingServer& server = rig.server();
  const Clock::time_point start = Clock::now();
  const Clock::time_point t0 = start + to_duration(warmup_s);
  const Clock::time_point t1 = t0 + to_duration(window_s);
  bool in_window = false;
  std::deque<Ticket> q;
  int tenant = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (!in_window && now >= t0) {
      in_window = true;
      ph.cpu_s = -rig.cpu_seconds();
      ph.steal_s = -host_steal_seconds();
    }
    if (now >= t1) break;
    while (static_cast<int>(q.size()) < outstanding) {
      Ticket t;
      t.input = (*next_input)++ % in.pool.size();
      t.root_span = spans ? spans->new_id() : 0;
      t.due = Clock::now();
      t.counted = in_window && t.due < t1;
      if (t.counted) t.slice = slice_of(seconds(t.due - t0), ph);
      {
        ScopedSpan submit_span(spans, "runtime.submit", "runtime", -1,
                               t.root_span);
        t.ticket = server.submit(tenant, in.pool[t.input]);
      }
      t.sent = t.due;
      tenant = (tenant + 1) % rig.tenants();
      if (t.counted) ++ph.attempted;
      q.push_back(t);
    }
    redeem(server, q.front(), t0, ph, ledger, spans);
    q.pop_front();
    poll_interrupt();
  }
  ph.cpu_s += rig.cpu_seconds();
  ph.steal_s += host_steal_seconds();
  ph.peak_rss_mb = rig.peak_rss_mb();
  while (!q.empty()) {
    redeem(server, q.front(), t0, ph, ledger, spans);
    q.pop_front();
  }
  return ph;
}

/// Open loop: the calling thread sends on a Poisson schedule whatever the
/// server's progress; one collector thread redeems tickets in send order.
/// Latency runs from each request's due time.
Phase open_loop(Rig& rig, const Inputs& in, ArrivalStream arrivals,
                double warmup_s, double window_s, Ledger& ledger,
                SpanLog* spans, std::size_t* next_input) {
  Phase ph;
  start_window(ph, window_s);
  ph.late_s = Reservoir(kLateSamples);
  rt::StreamingServer& server = rig.server();
  rt::Channel<Ticket> handoff;  // unbounded
  std::exception_ptr collector_error;
  const Clock::time_point start = Clock::now();
  const Clock::time_point t0 = start + to_duration(warmup_s);
  std::thread collector([&] {
    try {
      while (auto t = handoff.receive()) {
        redeem(server, *t, t0, ph, ledger, spans);
      }
    } catch (...) {
      collector_error = std::current_exception();
      while (handoff.receive()) {
      }
    }
  });
  // Joins the collector on every path out, exceptions included; it
  // finishes the tickets already handed over first.
  struct Join {
    rt::Channel<Ticket>& q;
    std::thread& th;
    ~Join() {
      q.close();
      if (th.joinable()) th.join();
    }
  } join{handoff, collector};

  bool in_window = false;
  for (Arrival a = arrivals.next(); a.t_s < warmup_s + window_s;
       a = arrivals.next()) {
    Ticket t;
    t.due = start + to_duration(a.t_s);
    std::this_thread::sleep_until(t.due);
    poll_interrupt();
    if (!in_window && a.t_s >= warmup_s) {
      in_window = true;
      ph.cpu_s = -rig.cpu_seconds();
      ph.steal_s = -host_steal_seconds();
    }
    t.input = (*next_input)++ % in.pool.size();
    t.root_span = spans ? spans->new_id() : 0;
    t.counted = a.t_s >= warmup_s;
    if (t.counted) t.slice = slice_of(a.t_s - warmup_s, ph);
    t.sent = Clock::now();
    {
      ScopedSpan submit_span(spans, "runtime.submit", "runtime", -1,
                             t.root_span);
      t.ticket = server.submit(a.tenant, in.pool[t.input]);
    }
    if (t.counted) {
      ++ph.attempted;
      const double late = seconds(t.sent - t.due);
      ph.late_s.add(late);
      ph.late_max_s = std::max(ph.late_max_s, late);
    }
    handoff.send(t);
  }
  std::this_thread::sleep_until(t0 + to_duration(window_s));
  ph.cpu_s += rig.cpu_seconds();
  ph.steal_s += host_steal_seconds();
  ph.peak_rss_mb = rig.peak_rss_mb();
  handoff.close();
  collector.join();
  if (collector_error) std::rethrow_exception(collector_error);
  return ph;
}

Phase serve(Rig& rig, const Workload& w, const Inputs& in, double warmup_s,
            double window_s, std::uint64_t seed, Ledger& ledger,
            SpanLog* spans, std::size_t* next_input) {
  if (w.rate > 0.0) {
    return open_loop(rig, in, ArrivalStream(seed, w.rate), warmup_s,
                     window_s, ledger, spans, next_input);
  }
  return closed_loop(rig, in, w.outstanding, warmup_s, window_s, ledger,
                     spans, next_input);
}

// --- statistics --------------------------------------------------------

std::int64_t completions_in_window(const Phase& ph) {
  std::int64_t n = 0;
  for (std::int64_t c : ph.slice_outputs) n += c;
  return n;
}

/// Outputs ready inside the window (warm-up requests included) per second:
/// the median over the window's 1-s slices, so that a few seconds in which
/// the shared host stalls the process do not decide a whole run.
double throughput_ips(const Phase& ph) {
  std::vector<double> per_slice;
  for (std::int64_t c : ph.slice_outputs) {
    per_slice.push_back(static_cast<double>(c) / kSliceS);
  }
  return median(per_slice);
}

/// Latency quantile `q` of each of the window's 1-s slices, in ms.
std::vector<double> slice_latency_ms(const Phase& ph, double q) {
  std::vector<double> per_slice;
  for (const Reservoir& s : ph.slice_latency_s) {
    if (s.seen() > 0) per_slice.push_back(quantile(s.samples(), q) * 1e3);
  }
  return per_slice;
}

/// Median over the slices of each slice's p50.
double latency_p50_ms(const Phase& ph) {
  return median(slice_latency_ms(ph, 0.50));
}

/// Lower quartile over the slices of each slice's p99. One host stall of
/// ~10 ms delays the 1% of a slice's requests its p99 stands on, so on a
/// shared host some seconds' p99 measures a stall instead of the program;
/// in a busy run that is half of them or more and moves the median. A
/// change that slows the program's tail slows it in every second and
/// still moves this figure; the slice median is in the result file.
double latency_p99_ms(const Phase& ph) {
  return quantile(slice_latency_ms(ph, 0.99), 0.25);
}

void add_phase_notes(Result& r, const std::string& prefix, const Phase& ph) {
  std::vector<double> all;
  std::int64_t samples = 0;
  std::int64_t min_slice = -1;
  for (const Reservoir& s : ph.slice_latency_s) {
    const std::vector<double> v = s.samples();
    all.insert(all.end(), v.begin(), v.end());
    samples += s.seen();
    min_slice = min_slice < 0 ? s.seen() : std::min(min_slice, s.seen());
  }
  r.notes[prefix + "attempted"] = static_cast<double>(ph.attempted);
  r.notes[prefix + "delivered"] = static_cast<double>(ph.delivered);
  r.notes[prefix + "failed"] = static_cast<double>(ph.failed);
  r.notes[prefix + "window_p50_ms"] = quantile(all, 0.50) * 1e3;
  r.notes[prefix + "window_p99_ms"] = quantile(all, 0.99) * 1e3;
  r.notes[prefix + "window_p999_ms"] = quantile(all, 0.999) * 1e3;
  r.notes[prefix + "slice_median_p99_ms"] = median(slice_latency_ms(ph, 0.99));
  r.notes[prefix + "window_throughput_ips"] =
      static_cast<double>(completions_in_window(ph)) / ph.window_s;
  r.notes[prefix + "latency_samples"] = static_cast<double>(samples);
  r.notes[prefix + "min_samples_per_slice"] = static_cast<double>(min_slice);
  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the window: a run with much of it measured a contended host.
  r.notes[prefix + "host_steal_pct"] =
      ph.steal_s / (ph.window_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))) *
      100.0;
  if (ph.late_s.seen() > 0) {
    r.notes[prefix + "generator_late_p99_ms"] =
        quantile(ph.late_s.samples(), 0.99) * 1e3;
    r.notes[prefix + "generator_late_max_ms"] = ph.late_max_s * 1e3;
  }
}

void account(Result& r, const Phase& ph) {
  r.attempted += ph.attempted;
  r.delivered += ph.delivered;
  r.failed += ph.failed;
}

// --- output checks against computations made apart from the cluster ----

/// Every input's first output (every later one was checked bit-identical
/// to it as it arrived) against (a) the served graph run stage by stage in
/// this thread, bit for bit, and (b) the unoptimized whole-graph forward,
/// within the README tolerance.
void check_outputs(Rig& rig, const Workload& w, const Inputs& in,
                   Ledger& ledger) {
  core::PartitionedModel reference = model_spec().build();
  const float tol = w.int8 ? kInt8Epsilon : kFp32Tolerance;
  float max_diff = 0.0f;
  for (const auto& [input, out] : ledger.repeat.first()) {
    const Tensor& image = in.pool[input];
    StageTally tally;
    const Tensor replica = run_stages(rig.model(), image, w.int8, nullptr,
                                      static_cast<std::int64_t>(input), &tally);
    const Tensor ref = reference.model.forward(image, nn::Mode::kEval);
    Result& r = *ledger.result;
    r.fail(tally.failure);
    r.fail(check_bitwise(out, replica));
    r.fail(check_within(out, ref, tol));
    r.fail(check_argmax(out, ref, tol));
    max_diff = std::max(max_diff, Tensor::max_abs_diff(out, ref));
  }
  ledger.result->notes["check.inputs_checked"] =
      static_cast<double>(ledger.repeat.first().size());
  ledger.result->notes["check.max_abs_diff_vs_unoptimized"] = max_diff;
}

/// In-process counts: every tile the Central node sent was processed once
/// and crossed the downlink with exactly the bytes its message encodes to.
void check_counts(Rig& rig, Ledger& ledger, std::int64_t images) {
  Result& r = *ledger.result;
  r.fail(check_count("tiles sent", ledger.tile_shares / kJobShares,
                     images * kGridTiles));
  if (ledger.retry_shares != 0) {
    r.notes["check.retried_tiles"] =
        static_cast<double>(ledger.retry_shares) / kJobShares;
    return;  // retries add tiles and bytes the counts below do not model
  }
  r.fail(check_count("tiles processed", rig.tiles_processed(),
                     ledger.tile_shares / kJobShares));
  r.fail(check_count("downlink bytes",
                     static_cast<std::int64_t>(rig.downlink_bytes()),
                     ledger.downlink_byte_shares / kJobShares));
}

// --- runs --------------------------------------------------------------

void run_ramp(const Workload& w, const Options& opt) {
  const Inputs in = make_inputs(opt.seed);
  Result scratch;
  Ledger ledger;
  ledger.result = &scratch;
  Rig rig(w, in.calibration, {});
  std::size_t next = 0;
  std::fprintf(stderr, "%-12s %12s %10s %10s\n", "outstanding", "img/s",
               "p50 ms", "p99 ms");
  for (int n : {1, 2, 4, 6, 8, 12, 16, 24, 32, 48}) {
    const Phase ph =
        closed_loop(rig, in, n, 0.5, std::max(2.0, opt.seconds / 5.0), ledger,
                    nullptr, &next);
    std::fprintf(stderr, "%-12d %12.1f %10.3f %10.3f\n", n, throughput_ips(ph),
                 latency_p50_ms(ph), latency_p99_ms(ph));
  }
  if (!scratch.correct) std::fprintf(stderr, "check failed: %s\n", scratch.failure.c_str());
}

Result run_untraced(const Workload& w, const Options& opt,
                    Clock::time_point process_start) {
  Result r;
  Ledger ledger;
  ledger.result = &r;
  Inputs in;
  in.calibration = make_calibration(opt.seed);
  Rig rig(w, in.calibration, {});
  // Set-up ends when the rig can serve. The image pool is the load
  // generator's input, not the program's set-up: it is made after.
  r.set("setup_s", seconds(Clock::now() - process_start), "s");
  const Clock::time_point pool_start = Clock::now();
  in.pool = make_pool(opt.seed);
  r.notes["input_pool_s"] = seconds(Clock::now() - pool_start);
  std::size_t next = 0;
  const Phase ph =
      serve(rig, w, in, kWarmupS, opt.seconds, opt.seed, ledger, nullptr, &next);
  account(r, ph);
  add_phase_notes(r, "", ph);
  r.set("throughput_ips", throughput_ips(ph), "img/s");
  r.set("latency_p50_ms", latency_p50_ms(ph), "ms");
  r.set("latency_p99_ms", latency_p99_ms(ph), "ms");
  r.set("peak_rss_mb", ph.peak_rss_mb, "MB");
  r.set("cpu_ms_per_image",
        ph.cpu_s * 1e3 /
            static_cast<double>(std::max<std::int64_t>(1, completions_in_window(ph))),
        "ms");
  rig.close_server();
  check_outputs(rig, w, in, ledger);
  if (!w.sockets) check_counts(rig, ledger, ph.outputs);
  r.fail(check_accounting(r.attempted, r.delivered, r.failed));
  return r;
}

double pct_drop(double base, double with) {
  return base > 0.0 ? (base - with) / base * 100.0 : 0.0;
}

/// Traced run: (A) untraced serving, (B) the same with the benchmark's
/// spans, the standalone layer calls, then (C) serving on a fresh cluster
/// with the program's MetricsRegistry and TraceRecorder attached and no
/// benchmark spans. B and C are each compared with A.
Result run_traced(const Workload& w, const Options& opt) {
  const Inputs in = make_inputs(opt.seed);
  Result r;
  Ledger ledger;
  ledger.result = &r;
  SpanLog spans;
  const double phase_s = std::max(1.0, opt.seconds / 2.0);
  std::size_t next = 0;
  double tput_a = 0.0, tput_b = 0.0, tput_c = 0.0;
  {
    Rig rig(w, in.calibration, {});
    const Phase a =
        serve(rig, w, in, kWarmupS, phase_s, opt.seed, ledger, nullptr, &next);
    const Phase b =
        serve(rig, w, in, 0.3, phase_s, opt.seed + 1, ledger, &spans, &next);
    account(r, a);
    account(r, b);
    add_phase_notes(r, "untraced.", a);
    add_phase_notes(r, "traced.", b);
    tput_a = throughput_ips(a);
    tput_b = throughput_ips(b);
    const std::int64_t images = a.outputs + b.outputs;
    SelfTimes serving = reduce_self_times(spans.spans());
    double runtime_self = 0.0;
    for (const char* n : {"runtime.submit", "runtime.wait"}) {
      for (double v : serving.by_name[n]) runtime_self += v;
    }
    r.set("trace.self_us_per_image.runtime",
          runtime_self / static_cast<double>(std::max<std::int64_t>(1, b.outputs)),
          "us");
    rig.close_server();
    if (!w.sockets) {
      r.set("runtime.tiles_per_image",
            static_cast<double>(rig.tiles_processed()) /
                static_cast<double>(images),
            "tiles");
      r.set("compress.wire_bytes_per_image",
            static_cast<double>(rig.downlink_bytes() + rig.uplink_bytes()) /
                static_cast<double>(images),
            "bytes");
      check_counts(rig, ledger, images);
    }
    measure_layers(rig.model(), w.int8, in.pool, rig.central().collector().speeds(),
                   spans, r);
    if (rig.edge()) {
      measure_infer(*rig.edge(), in.pool, spans, r, &ledger.repeat);
    } else {
      measure_net_infer(*rig.dist(), in.pool, spans, r, &ledger.repeat);
    }
    check_outputs(rig, w, in, ledger);
  }
  if (w.sockets) {
    // Tiles the cluster sent, retries included, per image served.
    const std::int64_t images = ledger.tile_shares / kJobShares / kGridTiles;
    r.set("runtime.tiles_per_image",
          static_cast<double>(ledger.tile_shares + ledger.retry_shares) /
              kJobShares / static_cast<double>(std::max<std::int64_t>(1, images)),
          "tiles");
  }
  {
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    Rig rig(w, in.calibration, obs::Telemetry{&metrics, &trace});
    const Phase c =
        serve(rig, w, in, kWarmupS, phase_s, opt.seed + 2, ledger, nullptr, &next);
    account(r, c);
    add_phase_notes(r, "sinks.", c);
    tput_c = throughput_ips(c);
    rig.close_server();
    const obs::MetricsSnapshot snap = metrics.snapshot();
    const auto size_q = snap.quantiles.find("batch.size_q");
    const auto wait_q = snap.quantiles.find("batch.wait_q");
    // Without a batcher every dispatch is one image and nothing waits to
    // assemble; the wait is then a constant 0 and is kept out of the
    // metrics (it goes to the result file's notes).
    r.set("runtime.batch_size_mean",
          size_q == snap.quantiles.end() ? 1.0 : size_q->second.total.mean(),
          "img");
    r.notes["runtime.batch_wait_us"] =
        wait_q == snap.quantiles.end() ? 0.0 : wait_q->second.total.mean() * 1e6;
    if (w.sockets) {
      const auto rtt = snap.quantiles.find("net.rtt_q");
      // The mean heartbeat round trip; see the in-process case below for
      // why not the median.
      r.set("net.rtt_us",
            rtt == snap.quantiles.end() ? 0.0 : rtt->second.total.mean() * 1e6,
            "us");
      const double bytes = static_cast<double>(snap.counters.at("net.bytes_tx") +
                                               snap.counters.at("net.bytes_rx"));
      r.set("compress.wire_bytes_per_image",
            bytes / static_cast<double>(std::max<std::int64_t>(1, c.outputs)), "bytes");
    }
    check_outputs(rig, w, in, ledger);
  }
  // The other transport, for the per-image transport cost.
  if (w.sockets) {
    core::PartitionedModel pm = model_spec().build();
    rt::ClusterConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.optimize_model = true;
    rt::EdgeCluster edge(pm, cfg);
    measure_infer(edge, in.pool, spans, r, &ledger.repeat);
  } else {
    net::ModelSpec spec = model_spec();
    spec.int8 = w.int8;  // calibrated on the spec's own set, not the seed's
    core::PartitionedModel pm = spec.build();
    obs::MetricsRegistry metrics;
    net::DistributedConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.worker_binary = SERVEBENCH_WORKER_BIN;
    cfg.spec = spec;
    cfg.optimize_model = true;
    cfg.telemetry.metrics = &metrics;
    net::DistributedCluster dist(pm, cfg);
    if (!dist.wait_all_connected(30.0)) {
      throw std::runtime_error("socket workers did not all connect");
    }
    measure_net_infer(dist, in.pool, spans, r, w.int8 ? nullptr : &ledger.repeat);
    auto& rtt = metrics.quantile_histogram("net.rtt_q");
    const Clock::time_point until = Clock::now() + std::chrono::seconds(3);
    while (rtt.count() < 20 && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      poll_interrupt();
    }
    // The mean, not the histogram's p50: net.rtt_q reports quantiles as
    // bucket values on a ~3% grid, which would read the same on most runs.
    r.set("net.rtt_us", rtt.snapshot().total.mean() * 1e6, "us");
  }
  r.set("trace.overhead_pct", pct_drop(tput_a, tput_b), "%");
  r.set("obs.sink_overhead_pct", pct_drop(tput_a, tput_c), "%");
  r.notes["throughput_untraced_ips"] = tput_a;
  r.notes["throughput_traced_ips"] = tput_b;
  r.notes["throughput_sinks_ips"] = tput_c;
  finish_layer_metrics(spans, r);
  r.fail(check_accounting(r.attempted, r.delivered, r.failed));
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/spans-" + w.name + "-seed" +
                           std::to_string(opt.seed) + ".csv";
  if (!spans.write_csv(path)) {
    throw std::runtime_error("cannot write " + path);
  }
  r.notes["spans_recorded"] = static_cast<double>(spans.spans().size());
  return r;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Workload& w : kWorkloads) n.push_back(w.name);
    return n;
  }();
  return names;
}

Result run_workload(const Options& opt, Clock::time_point process_start) {
  const Workload& w = find_workload(opt.workload);
  if (opt.ramp) {
    run_ramp(w, opt);
    return Result{};
  }
  return opt.trace ? run_traced(w, opt) : run_untraced(w, opt, process_start);
}

}  // namespace servebench
