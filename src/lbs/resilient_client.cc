#include "lbs/resilient_client.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace {

/// Books the simulated micros one Fetch consumed (injected latency +
/// backoff) onto the provenance record.
void FinishSimulated(obs::ProvenanceRecord* p, double micros) {
  if (micros > 0.0 && p != nullptr) p->lbs_simulated_micros += micros;
}

}  // namespace

ResilientLbsClient::ResilientLbsClient(LbsBackend* backend,
                                       const ResilienceOptions& options)
    : backend_(backend), options_(options), jitter_(options.jitter_seed) {}

Result<std::vector<PointOfInterest>> ResilientLbsClient::FetchOnce(
    const AnonymizedRequest& ar, double* simulated_micros) {
  ++stats_.attempts;
  obs::ProvenanceRecord* p = obs::CurrentProvenance();
  if (p != nullptr) ++p->lbs_attempts;
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  const fault::FaultDecision latency = injector.Decide(fault::kLbsLatency);
  if (latency.fire) {
    if (p != nullptr) obs::AddFaultFire(p, fault::kLbsLatency);
    *simulated_micros += latency.latency_micros;
    if (*simulated_micros > options_.deadline_micros) {
      return Status::DeadlineExceeded(
          "provider latency exceeded the request deadline");
    }
  }
  if (injector.ShouldInject(fault::kLbsTimeout)) {
    if (p != nullptr) obs::AddFaultFire(p, fault::kLbsTimeout);
    // A hung attempt consumes the whole remaining budget.
    *simulated_micros = options_.deadline_micros + 1.0;
    return Status::DeadlineExceeded("provider timed out");
  }
  if (injector.ShouldInject(fault::kLbsError)) {
    if (p != nullptr) obs::AddFaultFire(p, fault::kLbsError);
    return Status::Unavailable("provider error");
  }
  return backend_->Fetch(ar);
}

void ResilientLbsClient::RecordSuccess() {
  consecutive_failures_ = 0;
  if (breaker_state_ != BreakerState::kClosed) {
    obs::LogInfo("lbs", "circuit breaker closed after successful probe");
    obs::TraceInstant("lbs/breaker_closed");
  }
  breaker_state_ = BreakerState::kClosed;
}

void ResilientLbsClient::RecordFailure() {
  ++stats_.failures;
  ++consecutive_failures_;
  const bool reopen_after_probe = breaker_state_ == BreakerState::kHalfOpen;
  if (reopen_after_probe ||
      (breaker_state_ == BreakerState::kClosed &&
       consecutive_failures_ >= options_.breaker_failure_threshold)) {
    breaker_state_ = BreakerState::kOpen;
    cooldown_remaining_ = options_.breaker_cooldown_requests;
    ++stats_.breaker_opens;
    obs::MetricsRegistry::Global()
        .GetCounter("lbs/resilient/breaker_opens")
        .Increment();
    obs::TraceInstant("lbs/breaker_opened");
    obs::LogWarn("lbs",
                 "circuit breaker opened (%s, %d consecutive failures); "
                 "failing fast for %llu requests",
                 reopen_after_probe ? "probe failed" : "threshold reached",
                 consecutive_failures_,
                 static_cast<unsigned long long>(cooldown_remaining_));
  }
}

Result<std::vector<PointOfInterest>> ResilientLbsClient::Fetch(
    const AnonymizedRequest& ar) {
  static obs::Counter& retries_counter =
      obs::MetricsRegistry::Global().GetCounter("lbs/resilient/retries");
  static obs::Counter& fail_fast_counter =
      obs::MetricsRegistry::Global().GetCounter("lbs/resilient/fail_fast");
  static obs::Counter& deadline_counter = obs::MetricsRegistry::Global()
      .GetCounter("lbs/resilient/deadline_exceeded");
  ++stats_.requests;
  obs::ProvenanceRecord* p = obs::CurrentProvenance();
  if (breaker_state_ == BreakerState::kOpen) {
    if (cooldown_remaining_ > 0) {
      --cooldown_remaining_;
      ++stats_.fail_fast;
      fail_fast_counter.Increment();
      if (p != nullptr) p->breaker_rejected = true;
      return Status::Unavailable("circuit breaker open");
    }
    breaker_state_ = BreakerState::kHalfOpen;  // let one probe through
    obs::TraceInstant("lbs/breaker_half_open");
  }

  double simulated_micros = 0.0;
  double backoff = options_.initial_backoff_micros;
  Status last = Status::Unavailable("no attempt made");
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Result<std::vector<PointOfInterest>> answer =
        FetchOnce(ar, &simulated_micros);
    if (answer.ok()) {
      RecordSuccess();
      FinishSimulated(p, simulated_micros);
      return answer;
    }
    last = answer.status();
    if (last.code() == StatusCode::kDeadlineExceeded) break;
    if (attempt + 1 >= attempts) break;
    // Exponential backoff with full deterministic jitter; backing off
    // consumes the same simulated budget injected latency does.
    simulated_micros += backoff * jitter_.NextDouble();
    backoff = std::min(backoff * options_.backoff_multiplier,
                       options_.max_backoff_micros);
    if (simulated_micros > options_.deadline_micros) {
      last = Status::DeadlineExceeded("retry backoff exceeded the deadline");
      break;
    }
    ++stats_.retries;
    retries_counter.Increment();
    if (p != nullptr) ++p->lbs_retries;
  }
  if (last.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exceeded;
    deadline_counter.Increment();
    if (p != nullptr) p->deadline_exceeded = true;
  }
  RecordFailure();
  FinishSimulated(p, simulated_micros);
  return last;
}

}  // namespace pasa
