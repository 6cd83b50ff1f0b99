#include "obs/slo.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/file.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace obs {
namespace {

/// bad_fraction / (1 - target); an empty window burns nothing. A
/// zero-tolerance objective (budget 0) burns kInfiniteBurn the moment a
/// single bad event is in the window.
double BurnRate(const SlidingWindowRate::Stats& stats, double target) {
  if (stats.total == 0) return 0.0;
  const double bad_fraction =
      1.0 - static_cast<double>(stats.good) / static_cast<double>(stats.total);
  const double budget = 1.0 - target;
  if (budget <= 0.0) return bad_fraction > 0.0 ? kInfiniteBurn : 0.0;
  return bad_fraction / budget;
}

}  // namespace

const char* SloKindName(SloObjective::Kind kind) {
  switch (kind) {
    case SloObjective::Kind::kAvailability:
      return "availability";
    case SloObjective::Kind::kLatency:
      return "latency";
    case SloObjective::Kind::kZeroViolations:
      return "zero_violations";
  }
  return "unknown";
}

Result<SloObjective::Kind> ParseSloKind(std::string_view name) {
  if (name == "availability") return SloObjective::Kind::kAvailability;
  if (name == "latency") return SloObjective::Kind::kLatency;
  if (name == "zero_violations") return SloObjective::Kind::kZeroViolations;
  return Status::InvalidArgument("unknown SLO kind '" + std::string(name) +
                                 "'");
}

namespace {

/// Reads an optional positive number member into `*out`.
Status ReadPositive(const json::Value& entry, const std::string& key,
                    double* out) {
  const json::Value* v = entry.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number() || v->number() <= 0.0) {
    return Status::InvalidArgument("slo config: \"" + key +
                                   "\" must be a positive number");
  }
  *out = v->number();
  return Status::Ok();
}

}  // namespace

Result<std::vector<SloObjective>> SloObjectivesFromJson(
    std::string_view text) {
  Result<json::Value> document = json::Parse(text);
  if (!document.ok()) {
    return Status::InvalidArgument("slo config: " +
                                   document.status().message());
  }
  if (!document->is_object()) {
    return Status::InvalidArgument("slo config: top level must be an object");
  }
  const json::Value* objectives = document->Find("objectives");
  if (objectives == nullptr || !objectives->is_array()) {
    return Status::InvalidArgument(
        "slo config: missing \"objectives\" array");
  }
  std::vector<SloObjective> out;
  std::set<std::string> seen;
  for (const json::Value& entry : objectives->array()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument(
          "slo config: every objective must be an object");
    }
    SloObjective o;
    const json::Value* name = entry.Find("name");
    if (name == nullptr || !name->is_string() || name->str().empty()) {
      return Status::InvalidArgument(
          "slo config: objective is missing a \"name\" string");
    }
    o.name = name->str();
    if (!seen.insert(o.name).second) {
      return Status::InvalidArgument("slo config: duplicate objective \"" +
                                     o.name + "\"");
    }
    const json::Value* kind = entry.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return Status::InvalidArgument("slo config: objective \"" + o.name +
                                     "\" is missing a \"kind\" string");
    }
    Result<SloObjective::Kind> parsed_kind = ParseSloKind(kind->str());
    if (!parsed_kind.ok()) {
      return Status::InvalidArgument("slo config: " +
                                     parsed_kind.status().message());
    }
    o.kind = *parsed_kind;
    if (const json::Value* target = entry.Find("target")) {
      if (!target->is_number() || target->number() <= 0.0 ||
          target->number() > 1.0) {
        return Status::InvalidArgument(
            "slo config: \"target\" must be in (0, 1]");
      }
      o.target = target->number();
    }
    Status s = ReadPositive(entry, "latency_threshold_seconds",
                            &o.latency_threshold_seconds);
    if (!s.ok()) return s;
    double fast = static_cast<double>(o.fast_window_micros);
    double slow = static_cast<double>(o.slow_window_micros);
    if (s = ReadPositive(entry, "fast_window_micros", &fast); !s.ok()) {
      return s;
    }
    if (s = ReadPositive(entry, "slow_window_micros", &slow); !s.ok()) {
      return s;
    }
    o.fast_window_micros = static_cast<uint64_t>(fast);
    o.slow_window_micros = static_cast<uint64_t>(slow);
    if (s = ReadPositive(entry, "burn_alert_threshold",
                         &o.burn_alert_threshold);
        !s.ok()) {
      return s;
    }
    out.push_back(std::move(o));
  }
  return out;
}

Result<std::vector<SloObjective>> SloObjectivesFromJsonFile(
    const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return SloObjectivesFromJson(*text);
}

std::vector<SloObjective> DefaultServingObjectives() {
  std::vector<SloObjective> objectives;
  {
    SloObjective o;
    o.name = kSloAvailability;
    o.kind = SloObjective::Kind::kAvailability;
    o.target = 0.999;
    objectives.push_back(o);
  }
  {
    SloObjective o;
    o.name = kSloServeLatency;
    o.kind = SloObjective::Kind::kLatency;
    o.target = 0.99;
    o.latency_threshold_seconds = 0.005;
    objectives.push_back(o);
  }
  {
    SloObjective o;
    o.name = kSloAnonymity;
    o.kind = SloObjective::Kind::kZeroViolations;
    o.target = 1.0;
    objectives.push_back(o);
  }
  return objectives;
}

SloTracker& SloTracker::Global() {
  static SloTracker* tracker = new SloTracker();
  return *tracker;
}

void SloTracker::Configure(std::vector<SloObjective> objectives) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  for (SloObjective& objective : objectives) {
    if (objective.kind == SloObjective::Kind::kZeroViolations) {
      objective.target = 1.0;
    }
    entries_[objective.name] = std::make_unique<Entry>(objective);
  }
}

void SloTracker::EnsureObjective(const SloObjective& objective) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = entries_[objective.name];
  if (!slot) {
    SloObjective copy = objective;
    if (copy.kind == SloObjective::Kind::kZeroViolations) copy.target = 1.0;
    slot = std::make_unique<Entry>(copy);
  }
}

void SloTracker::Record(std::string_view name, bool good,
                        uint64_t now_micros) {
  if (!enabled()) return;
  int transition = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return;
    transition = RecordEntryLocked(it->second.get(), good, now_micros);
  }
  if (transition != 0) EmitTransition(name, transition);
}

void SloTracker::RecordLatency(std::string_view name, double seconds,
                               uint64_t now_micros) {
  if (!enabled()) return;
  int transition = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return;
    Entry* entry = it->second.get();
    transition = RecordEntryLocked(
        entry, seconds <= entry->objective.latency_threshold_seconds,
        now_micros);
  }
  if (transition != 0) EmitTransition(name, transition);
}

int SloTracker::RecordEntryLocked(Entry* entry, bool good,
                                  uint64_t now_micros) {
  entry->fast.Record(good, now_micros);
  entry->slow.Record(good, now_micros);
  return EvaluateEntryLocked(entry, now_micros, /*state=*/nullptr);
}

int SloTracker::EvaluateEntryLocked(Entry* entry, uint64_t now_micros,
                                    SloState* state) {
  const SlidingWindowRate::Stats fast = entry->fast.Snapshot(now_micros);
  const SlidingWindowRate::Stats slow = entry->slow.Snapshot(now_micros);
  const double target = entry->objective.target;
  const double fast_burn = BurnRate(fast, target);
  const double slow_burn = BurnRate(slow, target);
  const double threshold = entry->objective.burn_alert_threshold;
  const bool should_alert = fast_burn >= threshold && slow_burn >= threshold;
  int transition = 0;
  if (should_alert && !entry->alerting) {
    entry->alerting = true;
    ++entry->fired;
    transition = 1;
  } else if (!should_alert && entry->alerting) {
    entry->alerting = false;
    ++entry->resolved;
    transition = -1;
  }
  if (state != nullptr) {
    state->name = entry->objective.name;
    state->kind = entry->objective.kind;
    state->target = target;
    state->alerting = entry->alerting;
    state->fast_burn = fast_burn;
    state->slow_burn = slow_burn;
    state->fast_good = fast.good;
    state->fast_total = fast.total;
    state->slow_good = slow.good;
    state->slow_total = slow.total;
    state->alerts_fired = entry->fired;
    state->alerts_resolved = entry->resolved;
  }
  return transition;
}

void SloTracker::EmitTransition(std::string_view slo, int transition) {
  const std::string name(slo);
  if (transition > 0) {
    LogWarn("slo", "burn-rate alert FIRED for %s", name.c_str());
    TraceInstant("slo/" + name + "/fired");
    MetricsRegistry::Global().GetCounter("slo/alerts_fired").Increment();
  } else if (transition < 0) {
    LogInfo("slo", "burn-rate alert resolved for %s", name.c_str());
    TraceInstant("slo/" + name + "/resolved");
    MetricsRegistry::Global().GetCounter("slo/alerts_resolved").Increment();
  }
}

std::vector<SloState> SloTracker::Evaluate(uint64_t now_micros) {
  std::vector<SloState> states;
  std::vector<std::pair<std::string, int>> transitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    states.reserve(entries_.size());
    for (auto& [name, entry] : entries_) {
      const int transition =
          EvaluateEntryLocked(entry.get(), now_micros, &states.emplace_back());
      if (transition != 0) transitions.emplace_back(name, transition);
    }
  }
  for (const auto& [name, transition] : transitions) {
    EmitTransition(name, transition);
  }
  return states;
}

void SloTracker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    entry->fast.Reset();
    entry->slow.Reset();
    entry->alerting = false;
    entry->fired = 0;
    entry->resolved = 0;
  }
}

}  // namespace obs
}  // namespace pasa
