#include "sim/script.h"

#include <fstream>
#include <map>

#include "common/file.h"
#include "obs/json.h"

namespace pasa {
namespace sim {
namespace {

using obs::json::Value;

// Reads an optional small non-negative integer member of `object`.
Status ReadInt(const Value& object, const std::string& key, int* out) {
  const Value* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number() || v->number() < 0.0 || v->number() > 1e9) {
    return Status::InvalidArgument("sim script: \"" + key +
                                   "\" must be a small non-negative number");
  }
  *out = static_cast<int>(v->number());
  return Status::Ok();
}

}  // namespace

fault::FaultPlan CounterexampleScript::DerivedFaultPlan() const {
  fault::FaultPlan plan;
  plan.default_seed = model.seed;
  std::map<std::string, uint64_t> fires;
  for (const SimAction& action : actions) {
    if (action.kind == SimAction::Kind::kFireFault) ++fires[action.point];
  }
  for (const auto& [point, count] : fires) {
    fault::FaultPointConfig config;
    config.point = point;
    config.probability = 1.0;
    config.max_fires = count;
    plan.points.push_back(std::move(config));
  }
  return plan;
}

std::string CounterexampleScript::ToJson() const {
  std::map<std::string, Value> model_members;
  model_members["users"] = Value::MakeNumber(model.users);
  model_members["k"] = Value::MakeNumber(model.k);
  model_members["advances"] = Value::MakeNumber(model.max_advances);
  model_members["batches"] = Value::MakeNumber(model.move_batches);
  model_members["seed"] =
      Value::MakeNumber(static_cast<double>(model.seed));
  model_members["log2_side"] = Value::MakeNumber(model.log2_side);

  const fault::FaultPlan plan = DerivedFaultPlan();
  std::vector<Value> points;
  for (const fault::FaultPointConfig& config : plan.points) {
    std::map<std::string, Value> point;
    point["point"] = Value::MakeString(config.point);
    point["probability"] = Value::MakeNumber(config.probability);
    point["max_fires"] =
        Value::MakeNumber(static_cast<double>(config.max_fires));
    points.push_back(Value::MakeObject(std::move(point)));
  }
  std::map<std::string, Value> plan_members;
  plan_members["seed"] =
      Value::MakeNumber(static_cast<double>(plan.default_seed));
  plan_members["points"] = Value::MakeArray(std::move(points));

  std::vector<Value> action_values;
  action_values.reserve(actions.size());
  for (const SimAction& action : actions) {
    action_values.push_back(Value::MakeString(action.ToString()));
  }

  std::map<std::string, Value> members;
  members["model"] = Value::MakeObject(std::move(model_members));
  members["broken"] = Value::MakeString(broken);
  members["expect"] = Value::MakeString(expect_invariant);
  members["fault_plan"] = Value::MakeObject(std::move(plan_members));
  members["actions"] = Value::MakeArray(std::move(action_values));
  return obs::json::Serialize(Value::MakeObject(std::move(members)));
}

Result<CounterexampleScript> CounterexampleScript::FromJson(
    std::string_view text) {
  Result<Value> document = obs::json::Parse(text);
  if (!document.ok()) {
    return Status::InvalidArgument("sim script: " +
                                   document.status().message());
  }
  if (!document->is_object()) {
    return Status::InvalidArgument("sim script: top level must be an object");
  }
  CounterexampleScript script;
  if (const Value* model = document->Find("model")) {
    if (!model->is_object()) {
      return Status::InvalidArgument("sim script: \"model\" must be an "
                                     "object");
    }
    Status s = ReadInt(*model, "users", &script.model.users);
    if (!s.ok()) return s;
    s = ReadInt(*model, "k", &script.model.k);
    if (!s.ok()) return s;
    s = ReadInt(*model, "advances", &script.model.max_advances);
    if (!s.ok()) return s;
    s = ReadInt(*model, "batches", &script.model.move_batches);
    if (!s.ok()) return s;
    s = ReadInt(*model, "log2_side", &script.model.log2_side);
    if (!s.ok()) return s;
    if (const Value* seed = model->Find("seed")) {
      if (!seed->is_number() || seed->number() < 0.0) {
        return Status::InvalidArgument(
            "sim script: \"seed\" must be a non-negative number");
      }
      script.model.seed = static_cast<uint64_t>(seed->number());
    }
  }
  if (const Value* broken = document->Find("broken")) {
    if (!broken->is_string()) {
      return Status::InvalidArgument("sim script: \"broken\" must be a "
                                     "string");
    }
    script.broken = broken->str();
  }
  if (const Value* expect = document->Find("expect")) {
    if (!expect->is_string()) {
      return Status::InvalidArgument("sim script: \"expect\" must be a "
                                     "string");
    }
    script.expect_invariant = expect->str();
  }
  const Value* actions = document->Find("actions");
  if (actions == nullptr || !actions->is_array()) {
    return Status::InvalidArgument("sim script: missing \"actions\" array");
  }
  for (const Value& entry : actions->array()) {
    if (!entry.is_string()) {
      return Status::InvalidArgument(
          "sim script: every action must be a string");
    }
    Result<SimAction> action = SimAction::Parse(entry.str());
    if (!action.ok()) return action.status();
    script.actions.push_back(std::move(*action));
  }
  // The embedded fault plan is advisory (replay re-derives the schedule per
  // step), but a committed counterexample must stay a valid FaultPlan.
  if (const Value* plan = document->Find("fault_plan")) {
    Result<fault::FaultPlan> parsed =
        fault::FaultPlan::FromJson(obs::json::Serialize(*plan));
    if (!parsed.ok()) return parsed.status();
  }
  return script;
}

Result<CounterexampleScript> CounterexampleScript::FromJsonFile(
    const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return FromJson(*text);
}

Status CounterexampleScript::WriteFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return Status::Internal("cannot write counterexample script " + path);
  }
  file << ToJson() << "\n";
  if (!file.good()) {
    return Status::Internal("short write to counterexample script " + path);
  }
  return Status::Ok();
}

}  // namespace sim
}  // namespace pasa
