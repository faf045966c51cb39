#include "serving/server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "telemetry/registry.h"
#include "util/logging.h"

namespace lpa::serving {

namespace {

struct ServerMetrics {
  telemetry::Counter& submitted;
  telemetry::Counter& completed;
  telemetry::Counter& rejected;
  telemetry::Counter& shed;
  telemetry::Counter& failed;
  telemetry::Gauge& queue_depth;
  telemetry::Histogram& latency;
  telemetry::Histogram& queue_wait;

  static ServerMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static ServerMetrics* m = new ServerMetrics{
        reg.GetCounter("serving.submitted.count"),
        reg.GetCounter("serving.completed.count"),
        reg.GetCounter("serving.rejected.count"),
        reg.GetCounter("serving.shed.count"),
        reg.GetCounter("serving.failed.count"),
        reg.GetGauge("serving.queue_depth.count"),
        reg.GetHistogram("serving.latency.seconds",
                         telemetry::Histogram::LatencyBounds()),
        reg.GetHistogram("serving.queue_wait.seconds",
                         telemetry::Histogram::LatencyBounds())};
    return *m;
  }
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

AdvisorServer::AdvisorServer(ModelRegistry* registry, ServerConfig config)
    : registry_(registry), config_(config) {
  LPA_CHECK(config_.worker_threads >= 0);
  LPA_CHECK(config_.queue_capacity >= 1);
}

AdvisorServer::~AdvisorServer() { Stop(StopMode::kDrain); }

Status AdvisorServer::Start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (running_) return Status::FailedPrecondition("server already running");
  queue_ =
      std::make_unique<BoundedQueue<PendingRequest>>(config_.queue_capacity);
  running_ = true;
  workers_.reserve(static_cast<size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AdvisorServer::Stop(StopMode mode) {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;  // admission now rejects; workers keep draining
    workers = std::move(workers_);
    workers_.clear();
  }
  queue_->Close();  // wakes workers parked on the empty queue
  if (mode == StopMode::kAbort) {
    // Grab what no worker has picked up yet and fail it explicitly; workers
    // racing us simply serve those requests instead, which is also fine.
    for (PendingRequest& request : queue_->DrainRemaining()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().failed.Add();
      Respond(&request,
              SuggestResponse{Status::Unavailable("server stopped"), 0, {},
                              0.0, 0.0});
    }
  }
  for (std::thread& worker : workers) worker.join();
  if (mode == StopMode::kDrain) {
    // With zero workers nothing drains the queue; fail leftovers rather
    // than abandon their futures.
    for (PendingRequest& request : queue_->DrainRemaining()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().failed.Add();
      Respond(&request,
              SuggestResponse{Status::Unavailable("server stopped"), 0, {},
                              0.0, 0.0});
    }
  }
  ServerMetrics::Get().queue_depth.Set(0.0);
}

bool AdvisorServer::running() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return running_;
}

std::future<SuggestResponse> AdvisorServer::SubmitAsync(
    std::vector<double> frequencies, double deadline_seconds) {
  return SubmitAsync(nullptr, std::move(frequencies), deadline_seconds,
                     nullptr);
}

std::future<SuggestResponse> AdvisorServer::SubmitAsync(
    ModelRegistry* registry, std::vector<double> frequencies,
    double deadline_seconds, RequestSink* sink) {
  auto& metrics = ServerMetrics::Get();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  metrics.submitted.Add();

  PendingRequest request;
  request.frequencies = std::move(frequencies);
  request.registry = registry;
  request.sink = sink;
  request.submitted_at = Clock::now();
  double deadline =
      deadline_seconds < 0.0 ? config_.default_deadline_seconds
                             : deadline_seconds;
  request.deadline = deadline > 0.0
                         ? request.submitted_at +
                               std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(deadline))
                         : Clock::time_point::max();
  std::future<SuggestResponse> future = request.promise.get_future();

  std::lock_guard<std::mutex> lock(state_mu_);
  Status reject;
  if (!running_) {
    reject = Status::Unavailable("server not running");
  } else {
    switch (queue_->TryPush(request)) {
      case BoundedQueue<PendingRequest>::PushResult::kOk:
        metrics.queue_depth.Add(1.0);
        return future;
      case BoundedQueue<PendingRequest>::PushResult::kFull:
        reject = Status::Unavailable("admission control: request queue full");
        break;
      case BoundedQueue<PendingRequest>::PushResult::kClosed:
        reject = Status::Unavailable("server stopping");
        break;
    }
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  metrics.rejected.Add();
  Respond(&request, SuggestResponse{reject, 0, {}, 0.0, 0.0});
  return future;
}

SuggestResponse AdvisorServer::Suggest(std::vector<double> frequencies,
                                       double deadline_seconds) {
  return SubmitAsync(std::move(frequencies), deadline_seconds).get();
}

void AdvisorServer::WorkerLoop() {
  auto& metrics = ServerMetrics::Get();
  PendingRequest request;
  while (queue_->Pop(&request)) {
    metrics.queue_depth.Add(-1.0);
    const Clock::time_point picked_up = Clock::now();
    const double queue_seconds = Seconds(picked_up - request.submitted_at);
    metrics.queue_wait.Observe(queue_seconds);

    if (picked_up > request.deadline) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed.Add();
      Respond(&request,
              SuggestResponse{
                  Status::DeadlineExceeded("request deadline passed in queue"),
                  0, {}, Seconds(Clock::now() - request.submitted_at),
                  queue_seconds});
      continue;
    }

    auto fail = [&](Status status) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      metrics.failed.Add();
      Respond(&request,
              SuggestResponse{std::move(status), 0, {},
                              Seconds(Clock::now() - request.submitted_at),
                              queue_seconds});
    };
    ModelRegistry* registry =
        request.registry != nullptr ? request.registry : registry_;
    PublishedModel published =
        registry != nullptr ? registry->Current() : PublishedModel{};
    if (published.model == nullptr) {
      fail(Status::FailedPrecondition("no model published"));
      continue;
    }
    // A vector wider than the model's workload has no slot for its extra
    // entries: the caller's error, not a reason to take the server down. A
    // shorter one is served with the missing entries as 0, so clients of a
    // model that gained queries in a schema change keep working.
    const size_t num_queries = static_cast<size_t>(
        published.model->advisor().workload().num_queries());
    if (request.frequencies.size() > num_queries) {
      fail(Status::InvalidArgument(
          "frequency vector has " + std::to_string(request.frequencies.size()) +
          " entries; the model serves " + std::to_string(num_queries) +
          " queries"));
      continue;
    }
    // Non-finite weights would poison every total (see AdvisorHandle).
    if (!std::all_of(request.frequencies.begin(), request.frequencies.end(),
                     [](double f) { return std::isfinite(f); })) {
      fail(Status::InvalidArgument("frequency vector has a non-finite entry"));
      continue;
    }

    // The shared_ptr keeps this version alive through the rollout even if
    // the registry publishes a replacement meanwhile (RCU hot swap).
    SuggestResponse response;
    response.status = Status::OK();
    response.model_version = published.version;
    response.result = published.model->Suggest(request.frequencies);
    response.latency_seconds = Seconds(Clock::now() - request.submitted_at);
    response.queue_seconds = queue_seconds;
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics.completed.Add();
    metrics.latency.Observe(response.latency_seconds);
    Respond(&request, std::move(response));
  }
}

void AdvisorServer::Respond(PendingRequest* request,
                            SuggestResponse response) {
  if (request->sink != nullptr) {
    // Classify by the status the caller sees — the same buckets the loadgen
    // tallies client-side — so per-tenant sinks and client counts agree.
    switch (response.status.code()) {
      case Status::Code::kOk:
        request->sink->completed.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::Code::kDeadlineExceeded:
        request->sink->shed.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::Code::kUnavailable:
      case Status::Code::kResourceExhausted:
        request->sink->rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        request->sink->failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  request->promise.set_value(std::move(response));
}

AdvisorServer::Stats AdvisorServer::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lpa::serving
