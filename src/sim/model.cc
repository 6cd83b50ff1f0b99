#include "sim/model.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fault/injector.h"

namespace pasa {
namespace sim {
namespace {

// FNV-1a 64-bit, also used to derive per-purpose rng streams from the seed.
uint64_t Fnv1a(std::string_view text, uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The serving-path points the model consults; net/* points belong to the
// socket front end, which the model deliberately excludes.
const std::vector<std::string>& DefaultFaultPoints() {
  static const std::vector<std::string> points = {
      std::string(fault::kLbsLatency),
      std::string(fault::kLbsError),
      std::string(fault::kLbsTimeout),
      std::string(fault::kSnapshotCorruptMove),
      std::string(fault::kSnapshotRepairFail),
      std::string(fault::kParallelJurisdictionFail)};
  return points;
}

ParamVector RequestParams() { return {{"poi", "fuel"}}; }

}  // namespace

std::string SimAction::ToString() const {
  switch (kind) {
    case Kind::kRequest:
      return "request:" + std::to_string(arg);
    case Kind::kServeStale:
      return "stale:" + std::to_string(arg);
    case Kind::kAdvance:
      return "advance:" + std::to_string(arg);
    case Kind::kFireFault:
      return "fault:" + point;
    case Kind::kExpireCache:
      return "expire";
  }
  return "?";
}

Result<SimAction> SimAction::Parse(std::string_view text) {
  SimAction action;
  if (text == "expire") {
    action.kind = Kind::kExpireCache;
    return action;
  }
  const size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("sim action: unparseable \"" +
                                   std::string(text) + "\"");
  }
  const std::string_view head = text.substr(0, colon);
  const std::string_view tail = text.substr(colon + 1);
  if (head == "fault") {
    action.kind = Kind::kFireFault;
    action.point = std::string(tail);
    return action;
  }
  if (head == "request") {
    action.kind = Kind::kRequest;
  } else if (head == "stale") {
    action.kind = Kind::kServeStale;
  } else if (head == "advance") {
    action.kind = Kind::kAdvance;
  } else {
    return Status::InvalidArgument("sim action: unknown kind \"" +
                                   std::string(head) + "\"");
  }
  int value = 0;
  for (const char c : tail) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("sim action: bad index in \"" +
                                     std::string(text) + "\"");
    }
    value = value * 10 + (c - '0');
    if (value > 1'000'000) {
      return Status::InvalidArgument("sim action: index overflows in \"" +
                                     std::string(text) + "\"");
    }
  }
  if (tail.empty()) {
    return Status::InvalidArgument("sim action: missing index in \"" +
                                   std::string(text) + "\"");
  }
  action.arg = value;
  return action;
}

SimModel::SimModel(SimOptions options, CspServer csp, SimSystem* system,
                   PoiDatabase reference_pois)
    : options_(std::move(options)),
      csp_(std::move(csp)),
      system_(system),
      reference_pois_(std::move(reference_pois)) {}

Result<SimModel> SimModel::Create(const SimOptions& options,
                                  SimSystem* system) {
  static SimSystem real_system;
  SimOptions opts = options;
  if (opts.users < 1 || opts.users > 64) {
    return Status::InvalidArgument("sim: users must be in [1, 64]");
  }
  if (opts.k < 1 || opts.k > opts.users) {
    return Status::InvalidArgument("sim: k must be in [1, users]");
  }
  if (opts.max_advances < 0 || opts.max_advances > 8) {
    return Status::InvalidArgument("sim: max_advances must be in [0, 8]");
  }
  if (opts.move_batches < 1 || opts.move_batches > 8) {
    return Status::InvalidArgument("sim: move_batches must be in [1, 8]");
  }
  if (opts.log2_side < 2 || opts.log2_side > 20) {
    return Status::InvalidArgument("sim: log2_side must be in [2, 20]");
  }
  if (opts.fault_points.empty()) {
    opts.fault_points = DefaultFaultPoints();
  }
  for (const std::string& point : opts.fault_points) {
    bool known = false;
    for (const std::string_view p : fault::KnownFaultPoints()) {
      if (p == point) known = true;
    }
    if (!known || point.rfind("net/", 0) == 0) {
      return Status::InvalidArgument(
          "sim: fault point \"" + point +
          "\" is unknown or not consulted by the modeled serving stack");
    }
  }

  const MapExtent extent{0, 0, opts.log2_side};
  const int64_t side = extent.side();
  Rng layout(Fnv1a("layout", opts.seed));
  LocationDatabase db;
  for (int i = 0; i < opts.users; ++i) {
    db.Add(static_cast<UserId>(i + 1),
           Point{static_cast<Coord>(layout.NextBounded(side)),
                 static_cast<Coord>(layout.NextBounded(side))});
  }
  Rng poi_rng(Fnv1a("pois", opts.seed));
  std::vector<PointOfInterest> pois;
  pois.reserve(opts.pois);
  for (size_t i = 0; i < opts.pois; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i + 1),
        Point{static_cast<Coord>(poi_rng.NextBounded(side)),
              static_cast<Coord>(poi_rng.NextBounded(side))},
        "fuel"});
  }

  CspOptions csp_options;
  csp_options.k = opts.k;
  csp_options.answers_per_request = opts.answers_per_request;
  // Small batches must take the incremental-repair path and large ones the
  // rebuild path (see GenerateBatch), so the threshold sits between them.
  csp_options.rebuild_fraction = 0.3;
  // Tight, fully deterministic resilience: one retry, and a breaker that
  // opens/probes within a handful of requests so its whole state machine is
  // reachable inside a shallow exploration.
  csp_options.resilience.max_attempts = 2;
  csp_options.resilience.deadline_micros = 100'000;
  csp_options.resilience.breaker_failure_threshold = 2;
  csp_options.resilience.breaker_cooldown_requests = 2;
  csp_options.resilience.jitter_seed = opts.seed;

  Result<CspServer> csp =
      CspServer::Start(std::move(db), extent, PoiDatabase(pois), csp_options);
  if (!csp.ok()) return csp.status();
  return SimModel(std::move(opts), std::move(*csp),
                  system != nullptr ? system : &real_system,
                  PoiDatabase(std::move(pois)));
}

std::vector<UserMove> SimModel::GenerateBatch(int batch) const {
  // Mover counts span the repair/rebuild boundary: the smallest batch moves
  // ~users/4 (< rebuild_fraction), the largest ~3*users/4 (> it).
  const int users = options_.users;
  const int small = std::max(1, users / 4);
  const int large = std::max(small, 3 * users / 4);
  int movers = small;
  if (options_.move_batches > 1) {
    movers += static_cast<int>((large - small) *
                               (static_cast<double>(batch) /
                                (options_.move_batches - 1)));
  }
  movers = std::min(movers, users);

  Rng rng(Fnv1a("batch", options_.seed) ^
          (static_cast<uint64_t>(advances_done_) * 131 + batch + 1));
  std::vector<uint32_t> rows = rng.SampleIndices(users, movers);
  std::sort(rows.begin(), rows.end());
  const int64_t side = extent().side();
  std::vector<UserMove> moves;
  moves.reserve(rows.size());
  for (const uint32_t row : rows) {
    const Point from = csp_.snapshot().row(row).location;
    Point to = from;
    while (to == from) {
      to = Point{static_cast<Coord>(rng.NextBounded(side)),
                 static_cast<Coord>(rng.NextBounded(side))};
    }
    moves.push_back(UserMove{row, from, to});
  }
  return moves;
}

std::vector<SimAction> SimModel::EnabledActions() const {
  std::vector<SimAction> actions;
  for (int u = 0; u < options_.users; ++u) {
    actions.push_back({SimAction::Kind::kRequest, u, ""});
  }
  for (int u = 0; u < options_.users; ++u) {
    actions.push_back({SimAction::Kind::kServeStale, u, ""});
  }
  if (advances_done_ < options_.max_advances) {
    for (int b = 0; b < options_.move_batches; ++b) {
      actions.push_back({SimAction::Kind::kAdvance, b, ""});
    }
  }
  for (const std::string& point : options_.fault_points) {
    if (pending_faults_.count(point) == 0) {
      actions.push_back({SimAction::Kind::kFireFault, 0, point});
    }
  }
  actions.push_back({SimAction::Kind::kExpireCache, 0, ""});
  return actions;
}

template <typename Body>
Status SimModel::WithPendingFaults(
    const std::vector<fault::FaultPointConfig>& extra, Body&& body) {
  fault::FaultPlan plan;
  plan.default_seed = options_.seed;
  for (const std::string& point : pending_faults_) {
    fault::FaultPointConfig config;
    config.point = point;
    config.probability = 1.0;
    config.max_fires = 1;
    if (point == fault::kLbsLatency) config.latency_micros = 30'000;
    plan.points.push_back(std::move(config));
  }
  for (const fault::FaultPointConfig& config : extra) {
    bool replaced = false;
    for (fault::FaultPointConfig& existing : plan.points) {
      if (existing.point == config.point) {
        existing = config;
        replaced = true;
      }
    }
    if (!replaced) plan.points.push_back(config);
  }
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  if (plan.points.empty()) {
    return body();
  }
  injector.Arm(plan, options_.seed);
  Status status = body();
  for (auto it = pending_faults_.begin(); it != pending_faults_.end();) {
    if (injector.fires(*it) > 0) {
      it = pending_faults_.erase(it);
    } else {
      ++it;
    }
  }
  injector.Disarm();
  return status;
}

Status SimModel::Step(const SimAction& action) {
  last_step_ = StepRecord{};
  last_step_.action = action;
  switch (action.kind) {
    case SimAction::Kind::kFireFault: {
      // Disabled (unknown or already-pending point): no-op, see Step() doc.
      bool allowed = false;
      for (const std::string& p : options_.fault_points) {
        if (p == action.point) allowed = true;
      }
      if (allowed) pending_faults_.insert(action.point);
      return Status::Ok();
    }
    case SimAction::Kind::kExpireCache:
      csp_.FlushAnswerCache();
      return Status::Ok();
    case SimAction::Kind::kRequest:
    case SimAction::Kind::kServeStale: {
      if (action.arg < 0 || action.arg >= options_.users) return Status::Ok();
      const UserLocation& row =
          csp_.snapshot().row(static_cast<size_t>(action.arg));
      const ServiceRequest sr{row.user, row.location, RequestParams()};
      last_step_.sender = row.user;
      last_step_.sender_location = row.location;
      std::vector<fault::FaultPointConfig> extra;
      if (action.kind == SimAction::Kind::kServeStale) {
        // The provider stays down for every attempt of this one request, so
        // the frontend must degrade to the cache (or fail typed) instead of
        // being rescued by a retry.
        fault::FaultPointConfig outage;
        outage.point = std::string(fault::kLbsError);
        outage.probability = 1.0;
        outage.max_fires = 0;  // unlimited within this step
        extra.push_back(std::move(outage));
      }
      return WithPendingFaults(extra, [&] {
        CspServer::ServeReceipt receipt;
        Result<LbsAnswer> answer = system_->Serve(csp_, sr, &receipt);
        if (answer.ok()) {
          last_step_.served = true;
          last_step_.receipt = receipt;
          last_step_.answer_pois = answer->pois;
          last_step_.answer_degraded = answer->degraded;
        } else {
          last_step_.serve_failed = true;
        }
        return Status::Ok();
      });
    }
    case SimAction::Kind::kAdvance: {
      if (action.arg < 0 || action.arg >= options_.move_batches ||
          advances_done_ >= options_.max_advances) {
        return Status::Ok();
      }
      // A pending jurisdiction failure eats the delivery: the feed serving
      // this shard died and the batch is retried on a later tick (the
      // explorer separately explores delivering it afterwards).
      const std::string jurisdiction(fault::kParallelJurisdictionFail);
      if (pending_faults_.count(jurisdiction) > 0) {
        pending_faults_.erase(jurisdiction);
        last_step_.advance_skipped = true;
        return Status::Ok();
      }
      last_step_.submitted = GenerateBatch(action.arg);
      last_step_.positions_before.reserve(csp_.snapshot().size());
      for (size_t i = 0; i < csp_.snapshot().size(); ++i) {
        last_step_.positions_before.push_back(csp_.snapshot().row(i).location);
      }
      return WithPendingFaults({}, [&] {
        Result<SnapshotReport> report =
            system_->Advance(csp_, last_step_.submitted);
        if (!report.ok()) {
          return Status::Internal("sim: snapshot advance failed: " +
                                  report.status().ToString());
        }
        last_step_.advanced = true;
        last_step_.report = *report;
        ++advances_done_;
        return Status::Ok();
      });
    }
  }
  return Status::Ok();
}

std::string SimModel::DigestText() const {
  std::ostringstream out;
  out << "advances=" << advances_done_ << ";pending=";
  for (const std::string& point : pending_faults_) out << point << ",";
  out << ";rows=";
  for (size_t i = 0; i < csp_.snapshot().size(); ++i) {
    const UserLocation& row = csp_.snapshot().row(i);
    out << row.user << "@" << row.location.x << "," << row.location.y << ";";
  }
  out << "cloaks=";
  const BinaryTree& tree = csp_.tree();
  for (const int32_t node : csp_.extracted_policy().assignment) {
    const Rect& c = tree.node(node).region;
    out << c.x1 << "," << c.y1 << "," << c.x2 << "," << c.y2 << ";";
  }
  out << "cost=" << csp_.policy_cost() << ";cache=";
  for (const std::string& key : csp_.frontend().cache().SortedKeys()) {
    out << key << "|";
  }
  const ResilientLbsClient& client = csp_.lbs_client();
  out << ";breaker=" << static_cast<int>(client.breaker_state()) << ","
      << client.consecutive_failures() << "," << client.cooldown_remaining();
  return out.str();
}

uint64_t SimModel::Digest() const { return Fnv1a(DigestText()); }

}  // namespace sim
}  // namespace pasa
