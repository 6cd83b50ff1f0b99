#include "fault/plan.h"

#include <cmath>
#include <sstream>

#include "common/file.h"
#include "obs/json.h"

namespace pasa {
namespace fault {

const std::vector<std::string_view>& KnownFaultPoints() {
  static const std::vector<std::string_view> points = {
      kLbsLatency,          kLbsError,           kLbsTimeout,
      kSnapshotCorruptMove, kSnapshotRepairFail, kParallelJurisdictionFail,
      kNetSlowRead,         kNetTornWrite,       kNetConnDrop};
  return points;
}

namespace {

bool IsKnownPoint(std::string_view name) {
  for (const std::string_view point : KnownFaultPoints()) {
    if (point == name) return true;
  }
  return false;
}

// Largest integer a JSON double represents exactly; counts above it would
// silently lose precision (and casting arbitrary doubles to uint64_t is UB
// once they exceed the target range), so ReadCount rejects them instead.
constexpr double kMaxExactCount = 9007199254740992.0;  // 2^53

// Reads an optional non-negative integer member into `*out`. Negative,
// fractional and overflowing (> 2^53) values are typed parse errors.
Status ReadCount(const obs::json::Value& entry, const std::string& key,
                 uint64_t* out) {
  const obs::json::Value* v = entry.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number() || v->number() < 0.0) {
    return Status::InvalidArgument("fault plan: \"" + key +
                                   "\" must be a non-negative number");
  }
  if (v->number() != std::floor(v->number())) {
    return Status::InvalidArgument("fault plan: \"" + key +
                                   "\" must be an integer");
  }
  if (v->number() > kMaxExactCount) {
    return Status::InvalidArgument("fault plan: \"" + key +
                                   "\" overflows (must be <= 2^53)");
  }
  *out = static_cast<uint64_t>(v->number());
  return Status::Ok();
}

}  // namespace

Result<FaultPlan> FaultPlan::FromJson(std::string_view text) {
  Result<obs::json::Value> document = obs::json::Parse(text);
  if (!document.ok()) {
    return Status::InvalidArgument("fault plan: " +
                                   document.status().message());
  }
  if (!document->is_object()) {
    return Status::InvalidArgument("fault plan: top level must be an object");
  }
  FaultPlan plan;
  if (const obs::json::Value* seed = document->Find("seed")) {
    if (!seed->is_number() || seed->number() < 0.0) {
      return Status::InvalidArgument(
          "fault plan: \"seed\" must be a non-negative number");
    }
    if (seed->number() != std::floor(seed->number()) ||
        seed->number() > kMaxExactCount) {
      return Status::InvalidArgument(
          "fault plan: \"seed\" must be an integer <= 2^53");
    }
    plan.default_seed = static_cast<uint64_t>(seed->number());
  }
  const obs::json::Value* points = document->Find("points");
  if (points == nullptr || !points->is_array()) {
    return Status::InvalidArgument(
        "fault plan: missing \"points\" array");
  }
  for (const obs::json::Value& entry : points->array()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument(
          "fault plan: every point must be an object");
    }
    const obs::json::Value* name = entry.Find("point");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(
          "fault plan: every point needs a \"point\" name");
    }
    FaultPointConfig config;
    config.point = name->str();
    if (!IsKnownPoint(config.point)) {
      std::ostringstream known;
      for (const std::string_view p : KnownFaultPoints()) {
        if (known.tellp() > 0) known << ", ";
        known << p;
      }
      return Status::InvalidArgument("fault plan: unknown point \"" +
                                     config.point + "\" (known: " +
                                     known.str() + ")");
    }
    for (const FaultPointConfig& existing : plan.points) {
      if (existing.point == config.point) {
        return Status::InvalidArgument("fault plan: point \"" + config.point +
                                       "\" configured twice");
      }
    }
    if (const obs::json::Value* p = entry.Find("probability")) {
      if (!p->is_number() || p->number() < 0.0 || p->number() > 1.0) {
        return Status::InvalidArgument(
            "fault plan: \"probability\" must be a number in [0, 1]");
      }
      config.probability = p->number();
    }
    if (const obs::json::Value* latency = entry.Find("latency_micros")) {
      if (!latency->is_number() || latency->number() < 0.0) {
        return Status::InvalidArgument(
            "fault plan: \"latency_micros\" must be a non-negative number");
      }
      config.latency_micros = latency->number();
    }
    Status s = ReadCount(entry, "after", &config.after);
    if (!s.ok()) return s;
    s = ReadCount(entry, "every", &config.every);
    if (!s.ok()) return s;
    s = ReadCount(entry, "max_fires", &config.max_fires);
    if (!s.ok()) return s;
    plan.points.push_back(std::move(config));
  }
  return plan;
}

Result<FaultPlan> FaultPlan::FromJsonFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return FromJson(*text);
}

}  // namespace fault
}  // namespace pasa
