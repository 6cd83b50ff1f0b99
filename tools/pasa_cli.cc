// pasa_cli — command-line front end for the pasa library.
//
//   pasa_cli generate  --n 100000 --seed 1 --out locations.csv
//   pasa_cli anonymize --in locations.csv --k 50 --out cloaks.csv
//                      [--algorithm opt|casper|puq|pub]
//   pasa_cli audit     --locations locations.csv --cloaks cloaks.csv --k 50
//   pasa_cli stats     --in locations.csv [--k 50]
//   pasa_cli serve     --in locations.csv --k 50 [--snapshots N]
//                      [--requests R] [--seed S] [--watch N]
//                      [--listen PORT] [--listen-duration SECONDS]
//                      [--max-pending N] [--admin-port P]
//   pasa_cli scrape    --port P [--path /metrics] [--check 1]
//   pasa_cli explain   --audit audit.jsonl [--rid N] [--limit N]
//                      [--only served|degraded|failed|rejected|violations]
//   pasa_cli trace-merge --client client.json --server server.json
//                      --out merged.json
//   pasa_cli slowest   --port P [--limit N]
//   pasa_cli explore   [--users N] [--k K] [--advances N] [--batches N]
//                      [--seed S] [--depth D] [--budget STATES]
//                      [--invariants all|kanon,cache,quarantine,repair]
//                      [--broken none|repair|quarantine] [--out F.json]
//                      [--replay F.json]
//
// explore runs the deterministic state-space explorer (src/sim): breadth-
// first over every interleaving of requests, snapshot advances, fault
// firings, cache expiries, and stale serves on a bounded instance, checking
// the invariant catalog at every state. Exit 0 when the bounded instance is
// covered cleanly, 4 when a violation is found (the shrunk counterexample
// goes to --out as a replayable script). --replay re-runs a committed
// counterexample script and exits 4 iff the expected invariant violation
// reproduces. See docs/robustness.md.
//
// trace-merge stitches a loadgen --trace-out file and a server --trace-out
// file into one Perfetto-loadable timeline: server events move to pid 2,
// timestamps are aligned via each file's wallClockBaseMicros anchor, and
// the shared trace ids' flow events draw client->server arrows.
// slowest fetches GET /trace from a serving admin plane and pretty-prints
// the tail-trace ring: the records and span trees of the slowest and
// anomalous requests.
//
// serve --listen also accepts:
//   --exemplars 1             emit OpenMetrics exemplars (the trace id of
//                             each latency bucket's slowest request) on
//                             /metrics
// and always arms the tail-trace ring (the 8 slowest requests of the last
// 60 s plus the 32 newest anomalies; no flag changes it).
//
// Every subcommand additionally accepts:
//   --metrics-out FILE.json   observability snapshot (per-phase bulk_dp
//                             spans, latency histograms, answer-cache
//                             counters) written as structured JSON on exit
//   --trace-out FILE.json     per-event timeline as Chrome trace_event
//                             JSON, loadable in Perfetto/chrome://tracing
//   --audit-out FILE.jsonl    arm the per-request provenance ring (plus the
//                             windowed telemetry and SLO tracker) and write
//                             one JSONL ProvenanceRecord per request on
//                             exit; inspect with `pasa_cli explain`
//   --audit-mode ring|stream  ring (default) writes the retained ring on
//                             exit; stream appends each record to
//                             --audit-out as it happens, so long runs keep
//                             records the ring has already overwritten
//   --slo-config FILE.json    replace the compiled-in SLO objectives with
//                             the config file's (see docs/serving.md)
//   --log-level LEVEL         runtime log filter (debug|info|warn|error|off)
//   --fault-plan FILE.json    arm the deterministic fault injector with a
//                             seeded fault schedule (see docs/robustness.md)
//   --fault-seed N            override the plan's seed for replaying a
//                             specific chaos schedule
//   --profile-out FILE        write the span self times as collapsed
//                             stacks (flamegraph.pl/speedscope folded
//                             format) on exit, the GET /profile body
// serve with --listen additionally accepts --admin-port P: a second
// loopback listener serving live HTTP telemetry (GET /metrics, /healthz,
// /slo, /vars, /memory, /trace, /profile) on the same event loop; 0 picks
// a free port. `pasa_cli scrape --port P` fetches one admin target and
// --check 1 validates /metrics against the Prometheus text format.
// serve always arms the windowed telemetry and SLO burn-rate tracker;
// `--watch N` renders their dashboard every N epochs. anonymize and audit
// also print a human-readable metrics dump. See docs/observability.md and
// docs/robustness.md.
//
// CSV formats are documented in src/io/csv.h.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/auditor.h"
#include "common/file.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "csp/server.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "index/binary_tree.h"
#include "io/csv.h"
#include "lbs/poi.h"
#include "lbs/provider.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_context.h"
#include "net/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "obs/window.h"
#include "pasa/anonymizer.h"
#include "policies/casper.h"
#include "policies/k_inside_binary.h"
#include "policies/k_inside_quad.h"
#include "sim/broken.h"
#include "sim/explorer.h"
#include "sim/invariants.h"
#include "sim/model.h"
#include "sim/script.h"
#include "workload/bay_area.h"
#include "workload/movement.h"
#include "workload/requests.h"
#include "tools/cli_flags.h"

namespace {

using namespace pasa;
using tools::Flags;

int Fail(const Status& status) {
  obs::LogError("cli", "%s", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pasa_cli generate  --n N [--seed S] [--map-log2-side L] --out F\n"
      "  pasa_cli anonymize --in F --k K --out F2 [--algorithm "
      "opt|casper|puq|pub]\n"
      "  pasa_cli audit     --locations F --cloaks F2 --k K\n"
      "  pasa_cli stats     --in F [--k K]\n"
      "  pasa_cli serve     --in F --k K [--snapshots N] [--requests R] "
      "[--seed S] [--watch N]\n"
      "                     [--listen PORT] [--listen-duration SECONDS]\n"
      "                     [--max-pending N] [--admin-port P] "
      "[--exemplars 1]\n"
      "  pasa_cli scrape    --port P [--path /metrics] [--check 1]\n"
      "  pasa_cli memstats  --port P | --in F [--k K] [--seed S]\n"
      "  pasa_cli explain   --audit F.jsonl [--rid N] [--limit N]\n"
      "                     [--only served|degraded|failed|rejected|"
      "violations]\n"
      "  pasa_cli trace-merge --client F.json --server F2.json --out F3.json\n"
      "  pasa_cli slowest   --port P [--limit N]\n"
      "  pasa_cli explore   [--users N] [--k K] [--advances N] [--batches N]\n"
      "                     [--seed S] [--depth D] [--budget STATES]\n"
      "                     [--invariants all|kanon,cache,quarantine,repair]\n"
      "                     [--broken none|repair|quarantine] [--out F.json]\n"
      "                     [--replay F.json]\n"
      "every subcommand also accepts:\n"
      "  --metrics-out FILE.json  observability snapshot\n"
      "  --trace-out FILE.json    Chrome trace_event timeline "
      "(Perfetto-loadable)\n"
      "  --audit-out FILE.jsonl   per-request provenance audit log\n"
      "  --audit-mode ring|stream write the ring on exit (default) or "
      "append per record\n"
      "  --slo-config FILE.json   load SLO objectives instead of the "
      "compiled-in defaults\n"
      "  --log-level LEVEL        debug|info|warn|error|off\n"
      "  --fault-plan FILE.json   arm the deterministic fault injector\n"
      "  --fault-seed N           override the fault plan's seed\n"
      "  --profile-out FILE       write span self times as folded stacks "
      "on exit\n");
  return 2;
}

void PrintMetricsDump() {
  std::printf("\nmetrics:\n%s", obs::SummaryTable(obs::FullSnapshot()).c_str());
}

// Exercises the Section VII per-request path against the freshly built
// policy: samples senders, anonymizes each request, and serves it through
// the deduplicating answer cache backed by a synthetic POI set. Populates
// the cloak-lookup / serve latency histograms and answer-cache counters so
// `anonymize --metrics-out` captures the full pipeline, not just Bulk_dp.
void ServeSampleRequests(Anonymizer& engine, const LocationDatabase& db,
                         const MapExtent& extent) {
  if (db.size() == 0) return;
  obs::ScopedSpan span("cli/serve_sample_requests", obs::ScopedSpan::kRoot);
  obs::LogDebug("cli", "serving sampled requests through the answer cache");
  Rng rng(42);
  std::vector<PointOfInterest> pois;
  constexpr size_t kNumPois = 256;
  pois.reserve(kNumPois);
  for (size_t i = 0; i < kNumPois; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng.NextBounded(extent.side())),
              static_cast<Coord>(rng.NextBounded(extent.side()))},
        "poi"});
  }
  CachingLbsFrontend frontend(LbsProvider(PoiDatabase(std::move(pois)), 10));
  const size_t samples = std::min<size_t>(db.size(), 2000);
  const size_t stride = std::max<size_t>(1, db.size() / samples);
  for (size_t row = 0; row < db.size(); row += stride) {
    const ServiceRequest sr{db.row(row).user, db.row(row).location,
                            {{"poi", "poi"}}};
    // Each sampled request is one provenance record when --audit-out armed
    // the ring; Anonymize and Serve annotate through CurrentProvenance().
    obs::ScopedProvenanceRecord prov;
    Result<AnonymizedRequest> ar = engine.Anonymize(sr);
    if (!ar.ok()) {
      if (obs::ProvenanceRecord* p = prov.get()) {
        p->sender = sr.sender;
        p->outcome = obs::RequestOutcome::kRejected;
        p->status = ar.status().code();
      }
      continue;
    }
    WallTimer lbs_timer;
    Result<LbsAnswer> answer = frontend.Serve(*ar);
    if (obs::ProvenanceRecord* p = prov.get()) {
      p->lbs_seconds = lbs_timer.ElapsedSeconds();
      if (answer.ok()) {
        p->outcome = answer->degraded ? obs::RequestOutcome::kDegraded
                                      : obs::RequestOutcome::kServed;
      } else {
        p->outcome = obs::RequestOutcome::kFailed;
        p->status = answer.status().code();
      }
    }
  }
}

int RunGenerate(const Flags& flags) {
  const int64_t n = flags.GetInt("n", 0);
  if (n <= 0 || !flags.Has("out")) return Usage();
  BayAreaOptions options;
  options.log2_map_side =
      static_cast<int>(flags.GetInt("map-log2-side", 17));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2010));
  const BayAreaGenerator generator(options);
  const LocationDatabase db = generator.Generate(static_cast<size_t>(n));
  Status s = SaveLocationDatabaseCsv(db, flags.GetString("out"));
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s users to %s (map side 2^%d m)\n",
              WithThousandsSeparators(static_cast<int64_t>(db.size())).c_str(),
              flags.GetString("out").c_str(), options.log2_map_side);
  return 0;
}

int RunAnonymize(const Flags& flags) {
  if (!flags.Has("in") || !flags.Has("out")) return Usage();
  const int k = static_cast<int>(flags.GetInt("k", 50));
  Result<LocationDatabase> db = LoadLocationDatabaseCsv(flags.GetString("in"));
  if (!db.ok()) return Fail(db.status());
  Result<MapExtent> extent = MapExtent::Covering(db->BoundingBox());
  if (!extent.ok()) return Fail(extent.status());

  const std::string algorithm = flags.GetString("algorithm", "opt");
  obs::LogInfo("cli", "anonymize: %zu users, k=%d, algorithm=%s", db->size(),
               k, algorithm.c_str());
  std::unique_ptr<BulkPolicyAlgorithm> policy;
  if (algorithm == "opt") {
    // Handled below: the optimum path keeps the engine alive so the
    // per-request simulation can reuse the extracted policy.
  } else if (algorithm == "casper") {
    policy = std::make_unique<CasperPolicy>(*extent);
  } else if (algorithm == "puq") {
    policy = std::make_unique<PolicyUnawareQuad>(*extent);
  } else if (algorithm == "pub") {
    policy = std::make_unique<PolicyUnawareBinary>(*extent);
  } else {
    return Usage();
  }

  WallTimer timer;
  std::unique_ptr<Anonymizer> engine;
  std::string algorithm_name;
  Result<CloakingTable> table = Status::Internal("unset");
  if (algorithm == "opt") {
    AnonymizerOptions engine_options;
    engine_options.k = k;
    Result<Anonymizer> built = Anonymizer::Build(*db, *extent, engine_options);
    if (!built.ok()) return Fail(built.status());
    engine = std::make_unique<Anonymizer>(std::move(*built));
    table = engine->policy();
    algorithm_name = "PolicyAware-OPT";
  } else {
    table = policy->Cloak(*db, k);
    if (!table.ok()) return Fail(table.status());
    algorithm_name = policy->name();
  }
  const double seconds = timer.ElapsedSeconds();
  Status s = SaveCloakingCsv(*db, *table, flags.GetString("out"));
  if (!s.ok()) return Fail(s);
  std::printf(
      "%s cloaked %s users at k=%d in %.3f s (total cost %s, avg area "
      "%.0f)\n",
      algorithm_name.c_str(),
      WithThousandsSeparators(static_cast<int64_t>(db->size())).c_str(), k,
      seconds, WithThousandsSeparators(table->TotalCost()).c_str(),
      table->AverageArea());
  if (engine != nullptr) ServeSampleRequests(*engine, *db, *extent);
  PrintMetricsDump();
  return 0;
}

int RunAudit(const Flags& flags) {
  if (!flags.Has("locations") || !flags.Has("cloaks")) return Usage();
  const int k = static_cast<int>(flags.GetInt("k", 50));
  Result<LocationDatabase> db =
      LoadLocationDatabaseCsv(flags.GetString("locations"));
  if (!db.ok()) return Fail(db.status());
  Result<CloakingTable> table =
      LoadCloakingCsv(flags.GetString("cloaks"), *db);
  if (!table.ok()) return Fail(table.status());

  const bool masking = table->IsMasking(*db);
  const AuditReport aware = AuditPolicyAware(*table);
  const AuditReport unaware = AuditPolicyUnaware(*table, *db);
  TablePrinter out({"check", "result"});
  out.AddRow({"masking (every cloak contains its user)",
              masking ? "yes" : "NO"});
  out.AddRow({"policy-unaware attacker: min possible senders",
              TablePrinter::Cell(
                  static_cast<int64_t>(unaware.min_possible_senders))});
  out.AddRow({"policy-AWARE attacker: min possible senders",
              TablePrinter::Cell(
                  static_cast<int64_t>(aware.min_possible_senders))});
  out.AddRow({"sender k-anonymous vs policy-unaware (k=" + std::to_string(k) +
                  ")",
              unaware.Anonymous(k) ? "yes" : "NO"});
  out.AddRow({"sender k-anonymous vs policy-aware  (k=" + std::to_string(k) +
                  ")",
              aware.Anonymous(k) ? "yes" : "NO"});
  out.Print();
  const size_t breaches = aware.Breaches(k).size();
  if (breaches > 0) {
    std::printf("%zu request(s) would expose their sender to a policy-aware "
                "attacker.\n",
                breaches);
  }
  PrintMetricsDump();
  return masking && aware.Anonymous(k) ? 0 : 3;
}

// Pretty-prints one audit record: the cloak decision (which node, why it is
// k-anonymous), the LBS hop, and where the latency went.
void PrintProvenanceRecord(const obs::ProvenanceRecord& r) {
  std::printf("request %lld (sender %lld): %s, status %s\n",
              static_cast<long long>(r.rid), static_cast<long long>(r.sender),
              obs::RequestOutcomeName(r.outcome), StatusCodeName(r.status));
  if (r.outcome != obs::RequestOutcome::kRejected) {
    std::printf("  cloak: [%lld,%lld)x[%lld,%lld), area %lld\n",
                static_cast<long long>(r.cloak_x1),
                static_cast<long long>(r.cloak_x2),
                static_cast<long long>(r.cloak_y1),
                static_cast<long long>(r.cloak_y2),
                static_cast<long long>(r.cloak_area));
    std::printf("  policy: node %d (path %s, depth %d), group size %llu vs "
                "k=%d (margin %+lld), C(m)=%llu passed up\n",
                r.policy_node,
                r.tree_path.known() ? r.tree_path.ToString().c_str() : "?",
                r.node_depth, static_cast<unsigned long long>(r.group_size),
                r.k,
                static_cast<long long>(r.group_size) -
                    static_cast<long long>(r.k),
                static_cast<unsigned long long>(r.passed_up));
    const char* hop = r.cache_hit
                          ? "answer cache hit"
                          : (r.stale_fallback ? "STALE cache fallback"
                                              : "provider fetch");
    std::printf("  lbs: %s, %u attempt(s), %u retr%s%s%s\n", hop,
                r.lbs_attempts, r.lbs_retries, r.lbs_retries == 1 ? "y" : "ies",
                r.breaker_rejected ? ", rejected by open breaker" : "",
                r.deadline_exceeded ? ", deadline exceeded" : "");
    if (!r.fault_fires.empty()) {
      std::string fires;
      for (const auto& [point, count] : r.fault_fires) {
        if (!fires.empty()) fires += ", ";
        fires += point + " x" + std::to_string(count);
      }
      std::printf("  faults fired: %s\n", fires.c_str());
    }
  }
  std::printf("  latency: total %.1f us (cloak %.1f us, lbs %.1f us, "
              "simulated %.0f us)\n",
              r.total_seconds * 1e6, r.cloak_seconds * 1e6,
              r.lbs_seconds * 1e6, r.lbs_simulated_micros);
}

// Reconstructs cloak decisions from a --audit-out JSONL file, optionally
// filtered to one request id or one outcome class ("violations" selects
// accepted requests whose anonymity group was smaller than k — under the
// maintained optimal policy there should be none).
int RunExplain(const Flags& flags) {
  if (!flags.Has("audit")) return Usage();
  const std::string only = flags.GetString("only", "");
  if (!only.empty() && only != "served" && only != "degraded" &&
      only != "failed" && only != "rejected" && only != "violations") {
    return Usage();
  }
  Result<std::vector<obs::ProvenanceRecord>> records =
      obs::ReadProvenanceJsonlFile(flags.GetString("audit"));
  if (!records.ok()) return Fail(records.status());
  const bool have_rid = flags.Has("rid");
  const int64_t rid = flags.GetInt("rid", 0);
  const int64_t limit = flags.GetInt("limit", 0);
  size_t matched = 0;
  size_t shown = 0;
  for (const obs::ProvenanceRecord& r : *records) {
    if (have_rid && r.rid != rid) continue;
    if (only == "violations") {
      const bool violation = r.outcome != obs::RequestOutcome::kRejected &&
                             r.group_size < static_cast<uint64_t>(r.k);
      if (!violation) continue;
    } else if (!only.empty() &&
               only != obs::RequestOutcomeName(r.outcome)) {
      continue;
    }
    ++matched;
    if (limit > 0 && shown >= static_cast<size_t>(limit)) continue;
    ++shown;
    PrintProvenanceRecord(r);
  }
  std::printf("%zu of %zu audit record(s) matched (%zu shown)\n", matched,
              records->size(), shown);
  return 0;
}

// The `serve --watch` dashboard: SLO burn rates and the sliding windows,
// evaluated now, `elapsed_seconds` into the run.
void PrintWatchDashboard(int epoch, double elapsed_seconds) {
  const uint64_t now = obs::NowMicros();
  TablePrinter table({"objective / window", "state", "detail"});
  for (const obs::SloState& slo : obs::SloTracker::Global().Evaluate(now)) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "target=%.4g fast_burn=%.2f slow_burn=%.2f fired=%llu",
                  slo.target, slo.fast_burn, slo.slow_burn,
                  static_cast<unsigned long long>(slo.alerts_fired));
    table.AddRow({slo.name, slo.alerting ? "ALERT" : "ok", detail});
  }
  const obs::WindowSnapshot windows =
      obs::WindowRegistry::Global().Snapshot(now);
  for (const auto& [name, h] : windows.histograms) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "n=%llu p50=%.1f us p95=%.1f us p99=%.1f us",
                  static_cast<unsigned long long>(h.count), h.p50 * 1e6,
                  h.p95 * 1e6, h.p99 * 1e6);
    table.AddRow({name, "window", detail});
  }
  for (const auto& [name, r] : windows.rates) {
    char detail[128];
    std::snprintf(detail, sizeof(detail), "rate=%.4f (%llu/%llu)", r.rate,
                  static_cast<unsigned long long>(r.good),
                  static_cast<unsigned long long>(r.total));
    table.AddRow({name, "window", detail});
  }
  std::printf("\n[watch] epoch %d, %.3f s elapsed\n", epoch,
              elapsed_seconds);
  table.Print();
}

// Runs the resilient CSP serving path end to end: per snapshot, a burst of
// service requests through the answer cache / resilient LBS client, then a
// snapshot advance with movement (quarantine + incremental repair or
// rebuild). With --fault-plan this is the CLI face of the chaos harness:
// the printed report shows how much degradation the faults caused and that
// the k-anonymity audit still passes.
// Serves the wire protocol on a loopback socket until a client sends
// kShutdownRequest or --listen-duration expires. The CspServer itself is
// only ever touched from the NetServer's event loop.
int RunListen(CspServer* csp, const Flags& flags, int k) {
  net::NetServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("listen", 0));
  options.max_pending =
      static_cast<size_t>(flags.GetInt("max-pending", 4096));
  if (flags.Has("admin-port")) {
    options.admin_port = static_cast<int>(flags.GetInt("admin-port", -1));
  }
  options.exemplars = flags.GetInt("exemplars", 0) != 0;
  const double duration = flags.GetDouble("listen-duration", 30.0);
  Result<std::unique_ptr<net::NetServer>> server =
      net::NetServer::Start(csp, options);
  if (!server.ok()) return Fail(server.status());
  std::printf("listening on 127.0.0.1:%u for up to %.1f s\n",
              unsigned{(*server)->port()}, duration);
  if ((*server)->admin_port() != 0) {
    std::printf("admin plane on http://127.0.0.1:%u "
                "(/metrics /healthz /slo /vars /memory /trace /profile)\n",
                unsigned{(*server)->admin_port()});
  }
  std::fflush(stdout);
  (*server)->WaitForShutdown(duration);
  (*server)->Stop();
  const net::NetServer::Stats net = (*server)->stats();
  const CspServer::Stats& stats = csp->stats();
  const bool anonymous = AuditPolicyAware(csp->policy()).Anonymous(k);
  TablePrinter out({"metric", "value"});
  out.AddRow({"connections accepted",
              TablePrinter::Cell(
                  static_cast<int64_t>(net.connections_accepted))});
  out.AddRow({"frames decoded / rejected",
              std::to_string(net.frames_decoded) + " / " +
                  std::to_string(net.frames_rejected)});
  out.AddRow({"requests served (responses written)",
              TablePrinter::Cell(
                  static_cast<int64_t>(net.requests_served))});
  out.AddRow({"admission rejected (queue full)",
              TablePrinter::Cell(
                  static_cast<int64_t>(net.admission_rejected))});
  out.AddRow({"net faults injected",
              TablePrinter::Cell(
                  static_cast<int64_t>(net.faults_injected))});
  out.AddRow({"bytes read / written",
              std::to_string(net.bytes_read) + " / " +
                  std::to_string(net.bytes_written)});
  if ((*server)->admin_port() != 0) {
    out.AddRow({"admin connections / http requests",
                std::to_string(net.admin_connections) + " / " +
                    std::to_string(net.admin_requests)});
  }
  out.AddRow({"csp requests served",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.requests_served))});
  out.AddRow({"csp requests rejected",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.requests_rejected))});
  out.AddRow({"snapshots advanced",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.snapshots_advanced))});
  out.AddRow({"final policy k-anonymous (policy-aware, k=" +
                  std::to_string(k) + ")",
              anonymous ? "yes" : "NO"});
  out.Print();
  PrintMetricsDump();
  return anonymous ? 0 : 3;
}

int RunServe(const Flags& flags) {
  if (!flags.Has("in")) return Usage();
  const int k = static_cast<int>(flags.GetInt("k", 50));
  const int snapshots = static_cast<int>(flags.GetInt("snapshots", 5));
  const int per_epoch = static_cast<int>(flags.GetInt("requests", 1000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2010));
  const int watch = static_cast<int>(flags.GetInt("watch", 0));
  if (snapshots < 1 || per_epoch < 0 || watch < 0) return Usage();
  if (flags.Has("listen")) {
    const int64_t port = flags.GetInt("listen", 0);
    if (port < 0 || port > 65535) return Usage();
    if (flags.GetDouble("listen-duration", 30.0) <= 0.0 ||
        flags.GetInt("max-pending", 4096) < 1 ||
        flags.GetInt("admin-port", 0) < 0 ||
        flags.GetInt("admin-port", 0) > 65535) {
      return Usage();
    }
  }
  // serve is the SLO-bearing path: always arm the windowed telemetry and
  // burn-rate tracker so the final report (and --watch) can show them.
  obs::WindowRegistry::Global().Enable();
  obs::SloTracker::Global().Enable();
  Result<LocationDatabase> db = LoadLocationDatabaseCsv(flags.GetString("in"));
  if (!db.ok()) return Fail(db.status());
  Result<MapExtent> extent = MapExtent::Covering(db->BoundingBox());
  if (!extent.ok()) return Fail(extent.status());

  Rng rng(seed);
  std::vector<PointOfInterest> pois;
  constexpr size_t kNumPois = 512;
  const std::vector<std::string> categories = {"rest", "gas", "hospital"};
  pois.reserve(kNumPois);
  for (size_t i = 0; i < kNumPois; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng.NextBounded(extent->side())),
              static_cast<Coord>(rng.NextBounded(extent->side()))},
        categories[rng.NextBounded(categories.size())]});
  }
  CspOptions options;
  options.k = k;
  obs::LogInfo("cli", "serve: %zu users, k=%d, %d snapshot(s), %d "
               "request(s) each%s",
               db->size(), k, snapshots, per_epoch,
               fault::FaultInjector::Global().armed()
                   ? ", fault injector ARMED" : "");
  WallTimer timer;
  Result<CspServer> csp = CspServer::Start(std::move(*db), *extent,
                                           PoiDatabase(std::move(pois)),
                                           options);
  if (!csp.ok()) return Fail(csp.status());

  if (flags.Has("listen")) return RunListen(&*csp, flags, k);

  RequestGenerator requests(seed + 1);
  MovementOptions movement;
  movement.moving_fraction = 0.02;
  for (int epoch = 0; epoch < snapshots; ++epoch) {
    for (const ServiceRequest& sr :
         requests.Draw(csp->snapshot(), static_cast<size_t>(per_epoch))) {
      csp->HandleRequest(sr).ok();  // failures are counted in stats
    }
    movement.seed = seed + 100 + static_cast<uint64_t>(epoch);
    const std::vector<UserMove> moves =
        DrawMoves(csp->snapshot(), *extent, movement);
    Result<SnapshotReport> report = csp->AdvanceSnapshot(moves);
    if (!report.ok()) return Fail(report.status());
    if (watch > 0 && (epoch + 1) % watch == 0) {
      PrintWatchDashboard(epoch + 1, timer.ElapsedSeconds());
    }
  }
  const double seconds = timer.ElapsedSeconds();

  const CspServer::Stats& stats = csp->stats();
  const ResilientLbsClient::Stats& client = csp->lbs_client().stats();
  const bool anonymous = AuditPolicyAware(csp->policy()).Anonymous(k);
  TablePrinter out({"metric", "value"});
  out.AddRow({"requests served",
              TablePrinter::Cell(static_cast<int64_t>(stats.requests_served))});
  out.AddRow({"  of which degraded (stale answers)",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.requests_degraded))});
  out.AddRow({"requests failed (provider down)",
              TablePrinter::Cell(static_cast<int64_t>(stats.requests_failed))});
  out.AddRow({"lbs requests actually seen",
              TablePrinter::Cell(
                  static_cast<int64_t>(csp->lbs_requests_seen()))});
  out.AddRow({"lbs retries / fail-fast / breaker opens",
              std::to_string(client.retries) + " / " +
                  std::to_string(client.fail_fast) + " / " +
                  std::to_string(client.breaker_opens)});
  out.AddRow({"snapshots advanced",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.snapshots_advanced))});
  out.AddRow({"moves quarantined",
              TablePrinter::Cell(
                  static_cast<int64_t>(stats.moves_quarantined))});
  out.AddRow({"incremental updates / rebuilds / repair fallbacks",
              std::to_string(stats.incremental_updates) + " / " +
                  std::to_string(stats.rebuilds) + " / " +
                  std::to_string(stats.repair_fallbacks)});
  out.AddRow({"final policy k-anonymous (policy-aware, k=" +
                  std::to_string(k) + ")",
              anonymous ? "yes" : "NO"});
  out.Print();
  std::printf("served %d snapshot(s) in %.3f s\n", snapshots, seconds);
  PrintMetricsDump();
  return anonymous ? 0 : 3;
}

// Fetches one admin-plane target over HTTP and prints the body; with
// --check 1 the body must additionally pass the Prometheus text-format
// checker (how CI validates /metrics without a real Prometheus server).
int RunScrape(const Flags& flags) {
  const int64_t port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) return Usage();
  const std::string target = flags.GetString("path", "/metrics");
  Result<net::HttpResponse> response = net::HttpGet(
      static_cast<uint16_t>(port), target, flags.GetDouble("timeout", 5.0));
  if (!response.ok()) return Fail(response.status());
  std::fwrite(response->body.data(), 1, response->body.size(), stdout);
  std::fflush(stdout);
  if (response->status != 200) {
    obs::LogError("cli", "GET %s -> HTTP %d", target.c_str(),
                  response->status);
    return 1;
  }
  if (flags.GetInt("check", 0) != 0) {
    const Status s = obs::CheckPrometheusText(response->body);
    if (!s.ok()) return Fail(s);
    std::fprintf(stderr, "prometheus text format: ok (%zu bytes)\n",
                 response->body.size());
  }
  return 0;
}

// Per-subsystem memory accounting: scraped live from a serving process's
// GET /memory (--port), or computed offline by building the full serving
// stack from a snapshot CSV (--in) and reporting every long-lived
// structure's ApproxBytes into the accountant.
int RunMemstats(const Flags& flags) {
  if (flags.Has("port")) {
    const int64_t port = flags.GetInt("port", 0);
    if (port <= 0 || port > 65535) return Usage();
    Result<net::HttpResponse> response =
        net::HttpGet(static_cast<uint16_t>(port), "/memory",
                     flags.GetDouble("timeout", 5.0));
    if (!response.ok()) return Fail(response.status());
    if (response->status != 200) {
      obs::LogError("cli", "GET /memory -> HTTP %d", response->status);
      return 1;
    }
    Result<obs::json::Value> doc = obs::json::Parse(response->body);
    if (!doc.ok()) return Fail(doc.status());
    const obs::json::Value* subsystems = doc->Find("subsystems");
    if (subsystems == nullptr || !subsystems->is_object()) {
      return Fail(Status::InvalidArgument(
          "GET /memory returned no subsystems object"));
    }
    // Load the server's numbers into a local accountant so the table is
    // the one the offline path prints.
    obs::MemoryAccountant accountant;
    for (const auto& [name, bytes] : subsystems->object()) {
      accountant.GetCounter(name).Set(static_cast<uint64_t>(bytes.number()));
    }
    std::printf("%s", accountant.SummaryTable().c_str());
    const uint64_t total = accountant.TotalBytes();
    const obs::json::Value* users = doc->Find("users");
    const obs::json::Value* per_user = doc->Find("bytes_per_user");
    std::printf("total: %llu bytes", static_cast<unsigned long long>(total));
    if (users != nullptr && users->number() > 0) {
      std::printf(" over %llu users (%.1f bytes/user)",
                  static_cast<unsigned long long>(users->number()),
                  per_user != nullptr ? per_user->number() : 0.0);
    }
    std::printf("\n");
    return 0;
  }

  if (!flags.Has("in")) return Usage();
  const int k = static_cast<int>(flags.GetInt("k", 50));
  Result<LocationDatabase> db = LoadLocationDatabaseCsv(flags.GetString("in"));
  if (!db.ok()) return Fail(db.status());
  const size_t users = db->size();
  Result<MapExtent> extent = MapExtent::Covering(db->BoundingBox());
  if (!extent.ok()) return Fail(extent.status());
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 2010)));
  std::vector<PointOfInterest> pois;
  constexpr size_t kNumPois = 512;
  const std::vector<std::string> categories = {"rest", "gas", "hospital"};
  pois.reserve(kNumPois);
  for (size_t i = 0; i < kNumPois; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng.NextBounded(extent->side())),
              static_cast<Coord>(rng.NextBounded(extent->side()))},
        categories[rng.NextBounded(categories.size())]});
  }
  CspOptions options;
  options.k = k;
  Result<CspServer> csp = CspServer::Start(std::move(*db), *extent,
                                           PoiDatabase(std::move(pois)),
                                           options);
  if (!csp.ok()) return Fail(csp.status());

  obs::MemoryAccountant& accountant = obs::MemoryAccountant::Global();
  csp->ReportMemory(accountant);
  obs::ReportObsMemory(accountant);
  std::printf("%s", accountant.SummaryTable().c_str());
  const uint64_t total = accountant.TotalBytes();
  std::printf("total: %llu bytes over %zu users (%.1f bytes/user, k=%d)\n",
              static_cast<unsigned long long>(total), users,
              users == 0 ? 0.0
                         : static_cast<double>(total) /
                               static_cast<double>(users),
              k);
  return 0;
}

// Stitches a client-side and a server-side Chrome trace into one timeline.
// Both files carry a "wallClockBaseMicros" anchor (wall-clock micros at
// their ts == 0), so rebasing every server timestamp by the anchor delta
// puts both processes on the client's clock. Server events (and their flow
// halves) move to pid 2 so Perfetto draws them as a second process; the
// flow events already share ids (the trace ids), which is what draws the
// client->server arrows.
int RunTraceMerge(const Flags& flags) {
  if (!flags.Has("client") || !flags.Has("server") || !flags.Has("out")) {
    return Usage();
  }
  struct Side {
    const char* role;
    double pid;
    obs::json::Value doc;
    double base_micros = 0.0;
  };
  Side sides[2] = {{"client", 1.0, {}, 0.0}, {"server", 2.0, {}, 0.0}};
  for (Side& side : sides) {
    Result<std::string> text = ReadFile(flags.GetString(side.role));
    if (!text.ok()) return Fail(text.status());
    Result<obs::json::Value> doc = obs::json::Parse(*text);
    if (!doc.ok()) {
      return Fail(Status::InvalidArgument(
          std::string(side.role) + " trace: " + doc.status().ToString()));
    }
    const obs::json::Value* events = doc->Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      return Fail(Status::InvalidArgument(
          std::string(side.role) +
          " trace has no traceEvents array (not a Chrome trace?)"));
    }
    const obs::json::Value* base = doc->Find("wallClockBaseMicros");
    if (base == nullptr || !base->is_number()) {
      return Fail(Status::InvalidArgument(
          std::string(side.role) +
          " trace has no wallClockBaseMicros anchor (written by an older "
          "build?)"));
    }
    side.base_micros = base->number();
    side.doc = std::move(*doc);
  }
  // Merged timeline uses the client's clock: client events keep their ts,
  // server events shift by the wall-clock delta between the two anchors.
  const double delta_micros = sides[1].base_micros - sides[0].base_micros;
  std::vector<obs::json::Value> merged;
  for (Side& side : sides) {
    const bool is_server = side.pid == 2.0;
    // Process-name metadata so Perfetto labels the two tracks.
    merged.push_back(obs::json::Value::MakeObject({
        {"ph", obs::json::Value::MakeString("M")},
        {"pid", obs::json::Value::MakeNumber(side.pid)},
        {"name", obs::json::Value::MakeString("process_name")},
        {"args", obs::json::Value::MakeObject(
                     {{"name", obs::json::Value::MakeString(
                           is_server ? "pasa-server" : "pasa-client")}})},
    }));
    for (const obs::json::Value& event :
         side.doc.Find("traceEvents")->array()) {
      if (!event.is_object()) continue;
      std::map<std::string, obs::json::Value> fields = event.object();
      fields["pid"] = obs::json::Value::MakeNumber(side.pid);
      if (is_server) {
        const auto ts = fields.find("ts");
        if (ts != fields.end() && ts->second.is_number()) {
          ts->second =
              obs::json::Value::MakeNumber(ts->second.number() + delta_micros);
        }
      }
      merged.push_back(obs::json::Value::MakeObject(std::move(fields)));
    }
  }
  const obs::json::Value out = obs::json::Value::MakeObject({
      {"displayTimeUnit", obs::json::Value::MakeString("ms")},
      {"wallClockBaseMicros",
       obs::json::Value::MakeNumber(sides[0].base_micros)},
      {"traceEvents", obs::json::Value::MakeArray(std::move(merged))},
  });
  const Status s =
      obs::WriteTextFile(flags.GetString("out"), obs::json::Serialize(out));
  if (!s.ok()) return Fail(s);
  std::printf("merged %s + %s -> %s (server clock shifted %+.0f us)\n",
              flags.GetString("client").c_str(),
              flags.GetString("server").c_str(),
              flags.GetString("out").c_str(), delta_micros);
  return 0;
}

// Pretty-prints one tail trace's span tree, children indented under their
// parents (a span whose parent is not in the set — e.g. the client-side
// remote parent — prints at the root).
void PrintSpanTree(const obs::json::Value& spans) {
  std::map<std::string, std::vector<const obs::json::Value*>> children;
  std::vector<const obs::json::Value*> roots;
  auto field = [](const obs::json::Value* span, const char* key) {
    const obs::json::Value* v = span->Find(key);
    return v == nullptr ? std::string() : v->str();
  };
  std::map<std::string, bool> present;
  for (const obs::json::Value& span : spans.array()) {
    present[field(&span, "span_id")] = true;
  }
  for (const obs::json::Value& span : spans.array()) {
    const std::string parent = field(&span, "parent_span_id");
    if (present.count(parent) != 0 &&
        parent != "0000000000000000") {
      children[parent].push_back(&span);
    } else {
      roots.push_back(&span);
    }
  }
  struct Printer {
    std::map<std::string, std::vector<const obs::json::Value*>>* children;
    void Print(const obs::json::Value* span, int depth) {
      const obs::json::Value* path = span->Find("path");
      const obs::json::Value* duration = span->Find("duration_micros");
      std::printf("    %*s%-32s %10.1f us\n", depth * 2, "",
                  path == nullptr ? "?" : path->str().c_str(),
                  duration == nullptr ? 0.0 : duration->number());
      const obs::json::Value* id = span->Find("span_id");
      if (id == nullptr) return;
      const auto it = children->find(id->str());
      if (it == children->end()) return;
      for (const obs::json::Value* child : it->second) {
        Print(child, depth + 1);
      }
    }
  } printer{&children};
  for (const obs::json::Value* root : roots) printer.Print(root, 0);
}

void PrintTailTraces(const char* heading, const obs::json::Value& traces,
                     size_t limit) {
  std::printf("%s (%zu):\n", heading,
              std::min(limit, traces.array().size()));
  size_t shown = 0;
  for (const obs::json::Value& trace : traces.array()) {
    if (shown++ >= limit) break;
    const obs::json::Value* id = trace.Find("trace_id");
    const obs::json::Value* rid = trace.Find("rid");
    const obs::json::Value* outcome = trace.Find("outcome");
    const obs::json::Value* total = trace.Find("total_seconds");
    std::printf("  trace %s rid %lld %s, total %.1f us\n",
                id == nullptr ? "?" : id->str().c_str(),
                rid == nullptr ? 0LL
                               : static_cast<long long>(rid->number()),
                outcome == nullptr ? "?" : outcome->str().c_str(),
                (total == nullptr ? 0.0 : total->number()) * 1e6);
    const obs::json::Value* spans = trace.Find("spans");
    if (spans != nullptr) PrintSpanTree(*spans);
  }
}

// Fetches GET /trace from a serving admin plane and renders the tail-trace
// ring: the window's slowest requests and the recent anomalies, each with
// its full span tree.
int RunSlowest(const Flags& flags) {
  const int64_t port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) return Usage();
  const size_t limit = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("limit", 8)));
  Result<net::HttpResponse> response =
      net::HttpGet(static_cast<uint16_t>(port), "/trace",
                   flags.GetDouble("timeout", 5.0));
  if (!response.ok()) return Fail(response.status());
  if (response->status != 200) {
    obs::LogError("cli", "GET /trace -> HTTP %d", response->status);
    return 1;
  }
  Result<obs::json::Value> doc = obs::json::Parse(response->body);
  if (!doc.ok()) return Fail(doc.status());
  const obs::json::Value* window = doc->Find("window_seconds");
  std::printf("tail traces over a %.0f s window\n",
              window == nullptr ? 0.0 : window->number());
  const obs::json::Value* slowest = doc->Find("slowest");
  const obs::json::Value* anomalies = doc->Find("anomalies");
  if (slowest != nullptr) PrintTailTraces("slowest", *slowest, limit);
  if (anomalies != nullptr && !anomalies->array().empty()) {
    PrintTailTraces("anomalies (newest first)", *anomalies, limit);
  }
  return 0;
}

int RunStats(const Flags& flags) {
  if (!flags.Has("in")) return Usage();
  const int k = static_cast<int>(flags.GetInt("k", 50));
  Result<LocationDatabase> db = LoadLocationDatabaseCsv(flags.GetString("in"));
  if (!db.ok()) return Fail(db.status());
  Result<MapExtent> extent = MapExtent::Covering(db->BoundingBox());
  if (!extent.ok()) return Fail(extent.status());
  Result<BinaryTree> tree =
      BinaryTree::Build(*db, *extent, TreeOptions{.split_threshold = k});
  if (!tree.ok()) return Fail(tree.status());
  const BinaryTree::ShapeStats shape = tree->ComputeShapeStats();
  TablePrinter out({"metric", "value"});
  out.AddRow({"users", WithThousandsSeparators(
                           static_cast<int64_t>(db->size()))});
  out.AddRow({"bounding box", db->BoundingBox().ToString()});
  out.AddRow({"map extent side (power of two)",
              WithThousandsSeparators(extent->side())});
  out.AddRow({"binary tree nodes", WithThousandsSeparators(
                                       static_cast<int64_t>(shape.live_nodes))});
  out.AddRow({"binary tree height",
              TablePrinter::Cell(static_cast<int64_t>(shape.height))});
  out.AddRow({"max leaf occupancy",
              TablePrinter::Cell(
                  static_cast<int64_t>(shape.max_leaf_occupancy))});
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// explore: the deterministic state-space explorer (src/sim).

std::string JoinActions(const std::vector<sim::SimAction>& actions) {
  std::string out;
  for (const sim::SimAction& action : actions) {
    if (!out.empty()) out += " ";
    out += action.ToString();
  }
  return out;
}

// Re-runs a committed counterexample script. Exit 4 iff the violation the
// script expects reproduces, 0 for an expected-clean script that replays
// clean, 1 when the outcome diverges from the expectation.
int ReplayCounterexample(const Flags& flags, uint32_t invariant_mask) {
  Result<sim::CounterexampleScript> script =
      sim::CounterexampleScript::FromJsonFile(flags.GetString("replay"));
  if (!script.ok()) return Fail(script.status());
  const std::string broken =
      flags.Has("broken") ? flags.GetString("broken") : script->broken;
  Result<sim::SimSystem*> system = sim::SystemForName(broken);
  if (!system.ok()) return Fail(system.status());
  sim::ExplorerOptions options;
  options.model = script->model;
  options.invariant_mask = invariant_mask;
  options.system = *system;
  std::printf("replaying %zu action(s), broken=%s, expect=%s\n  %s\n",
              script->actions.size(), broken.empty() ? "none" : broken.c_str(),
              script->expect_invariant.empty()
                  ? "clean"
                  : script->expect_invariant.c_str(),
              JoinActions(script->actions).c_str());
  Result<std::optional<sim::Violation>> outcome =
      sim::ReplayTrace(options, script->actions);
  if (!outcome.ok()) return Fail(outcome.status());
  if (outcome->has_value()) {
    std::printf("violation: invariant=%s detail=%s\n",
                (*outcome)->invariant.c_str(), (*outcome)->detail.c_str());
  } else {
    std::printf("replay clean: no invariant violated\n");
  }
  const std::string got = outcome->has_value() ? (*outcome)->invariant : "";
  if (got != script->expect_invariant) {
    std::fprintf(stderr,
                 "error: counterexample did not reproduce (expected \"%s\", "
                 "got \"%s\")\n",
                 script->expect_invariant.c_str(), got.c_str());
    return 1;
  }
  return outcome->has_value() ? 4 : 0;
}

int RunExplore(const Flags& flags) {
  Result<uint32_t> mask =
      sim::ParseInvariantMask(flags.GetString("invariants", "all"));
  if (!mask.ok()) {
    std::fprintf(stderr, "error: %s\n", mask.status().ToString().c_str());
    return Usage();
  }
  if (flags.Has("replay")) return ReplayCounterexample(flags, *mask);

  sim::ExplorerOptions options;
  options.model.users = static_cast<int>(flags.GetInt("users", 8));
  options.model.k = static_cast<int>(flags.GetInt("k", 3));
  options.model.max_advances = static_cast<int>(flags.GetInt("advances", 2));
  options.model.move_batches = static_cast<int>(flags.GetInt("batches", 2));
  options.model.seed = static_cast<uint64_t>(flags.GetInt("seed", 2010));
  options.model.log2_side = static_cast<int>(
      flags.GetInt("map-log2-side", options.model.log2_side));
  options.invariant_mask = *mask;
  options.max_depth = static_cast<int>(flags.GetInt("depth", 3));
  options.max_states = static_cast<uint64_t>(flags.GetInt("budget", 20'000));
  const std::string broken = flags.GetString("broken", "none");
  Result<sim::SimSystem*> system = sim::SystemForName(broken);
  if (!system.ok()) {
    std::fprintf(stderr, "error: %s\n", system.status().ToString().c_str());
    return Usage();
  }
  options.system = *system;

  std::printf(
      "explore: users=%d k=%d advances=%d batches=%d seed=%llu depth=%d "
      "budget=%llu broken=%s\n",
      options.model.users, options.model.k, options.model.max_advances,
      options.model.move_batches,
      static_cast<unsigned long long>(options.model.seed), options.max_depth,
      static_cast<unsigned long long>(options.max_states), broken.c_str());
  Result<sim::ExploreResult> result = sim::Explore(options);
  if (!result.ok()) return Fail(result.status());
  std::printf(
      "explore: states_visited=%llu states_pruned=%llu transitions=%llu "
      "depth_reached=%d exhausted=%s\n",
      static_cast<unsigned long long>(result->stats.states_visited),
      static_cast<unsigned long long>(result->stats.states_pruned),
      static_cast<unsigned long long>(result->stats.transitions),
      result->stats.depth_reached, result->stats.exhausted ? "yes" : "no");
  if (!result->violation.has_value()) {
    std::printf(result->stats.exhausted
                    ? "no violation: bounded instance exhaustively covered\n"
                    : "no violation within the state budget (coverage "
                      "incomplete)\n");
    return 0;
  }
  std::printf("violation: invariant=%s detail=%s\n",
              result->violation->invariant.c_str(),
              result->violation->detail.c_str());
  std::printf("trace (%zu actions): %s\n", result->trace.size(),
              JoinActions(result->trace).c_str());
  std::printf("shrunk (%zu actions): %s\n", result->shrunk_trace.size(),
              JoinActions(result->shrunk_trace).c_str());
  if (flags.Has("out")) {
    sim::CounterexampleScript script;
    script.model = options.model;
    script.broken = broken == "none" ? "" : broken;
    script.expect_invariant = result->violation->invariant;
    script.actions = result->shrunk_trace;
    const Status s = script.WriteFile(flags.GetString("out"));
    if (!s.ok()) return Fail(s);
    std::printf("wrote counterexample script to %s\n",
                flags.GetString("out").c_str());
  }
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (flags.Has("log-level")) {
    Result<obs::LogLevel> level =
        obs::ParseLogLevel(flags.GetString("log-level"));
    if (!level.ok()) {
      std::fprintf(stderr, "error: %s\n", level.status().ToString().c_str());
      return Usage();
    }
    obs::Logger::Global().SetLevel(*level);
  }
  if (flags.Has("fault-plan")) {
    Result<fault::FaultPlan> plan =
        fault::FaultPlan::FromJsonFile(flags.GetString("fault-plan"));
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
      return Usage();
    }
    const uint64_t fault_seed = flags.Has("fault-seed")
        ? static_cast<uint64_t>(flags.GetInt("fault-seed", 0))
        : plan->default_seed;
    fault::FaultInjector::Global().Arm(*plan, fault_seed);
    obs::LogInfo("cli", "fault injector armed: %zu point(s), seed %llu",
                 plan->points.size(),
                 static_cast<unsigned long long>(fault_seed));
  } else if (flags.Has("fault-seed")) {
    std::fprintf(stderr, "error: --fault-seed requires --fault-plan\n");
    return Usage();
  }
  if (flags.Has("slo-config")) {
    Result<std::vector<obs::SloObjective>> objectives =
        obs::SloObjectivesFromJsonFile(flags.GetString("slo-config"));
    if (!objectives.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   objectives.status().ToString().c_str());
      return Usage();
    }
    obs::SloTracker::Global().Configure(*objectives);
    obs::LogInfo("cli", "slo config loaded: %zu objective(s) from %s",
                 objectives->size(), flags.GetString("slo-config").c_str());
  }
  const std::string audit_mode = flags.GetString("audit-mode", "ring");
  if (audit_mode != "ring" && audit_mode != "stream") {
    std::fprintf(stderr, "error: --audit-mode must be ring or stream\n");
    return Usage();
  }
  const bool tracing = flags.Has("trace-out");
  if (tracing) {
    obs::TraceEventSink::Global().SetCurrentThreadName("main");
    obs::TraceEventSink::Global().Start();
  }
  const bool auditing = flags.Has("audit-out");
  if (!auditing && flags.Has("audit-mode")) {
    std::fprintf(stderr, "error: --audit-mode requires --audit-out\n");
    return Usage();
  }
  const bool audit_streaming = auditing && audit_mode == "stream";
  if (auditing) {
    obs::ProvenanceRing::Global().Enable();
    obs::WindowRegistry::Global().Enable();
    obs::SloTracker::Global().Enable();
    if (audit_streaming) {
      const Status s =
          obs::ProvenanceRing::Global().StreamTo(flags.GetString("audit-out"));
      if (!s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    obs::LogInfo("cli", "provenance ring armed (capacity %zu, %s mode)",
                 obs::ProvenanceRing::Global().capacity(),
                 audit_mode.c_str());
  }
  obs::LogDebug("cli", "running subcommand '%s'", command.c_str());
  int rc;
  if (command == "generate") {
    rc = RunGenerate(flags);
  } else if (command == "anonymize") {
    rc = RunAnonymize(flags);
  } else if (command == "audit") {
    rc = RunAudit(flags);
  } else if (command == "stats") {
    rc = RunStats(flags);
  } else if (command == "serve") {
    rc = RunServe(flags);
  } else if (command == "scrape") {
    rc = RunScrape(flags);
  } else if (command == "memstats") {
    rc = RunMemstats(flags);
  } else if (command == "explain") {
    rc = RunExplain(flags);
  } else if (command == "trace-merge") {
    rc = RunTraceMerge(flags);
  } else if (command == "slowest") {
    rc = RunSlowest(flags);
  } else if (command == "explore") {
    rc = RunExplore(flags);
  } else {
    return Usage();
  }
  if (flags.Has("profile-out")) {
    const std::string path = flags.GetString("profile-out");
    const Status s = obs::WriteTextFile(
        path, obs::ExportFolded(obs::MetricsRegistry::Global().Snapshot()));
    if (!s.ok()) {
      Fail(s);
      if (rc == 0) rc = 1;
    } else {
      obs::LogInfo("cli", "wrote span self-time profile to %s", path.c_str());
    }
  }
  if (auditing) {
    obs::ProvenanceRing& ring = obs::ProvenanceRing::Global();
    if (audit_streaming) {
      // Stream mode already wrote every record (including any the ring has
      // overwritten); just flush and close.
      ring.StopStreaming();
      obs::LogInfo("cli", "streamed %llu provenance record(s) to %s",
                   static_cast<unsigned long long>(ring.streamed()),
                   flags.GetString("audit-out").c_str());
    } else {
      const Status s = ring.WriteJsonlFile(flags.GetString("audit-out"));
      if (!s.ok()) {
        Fail(s);
        if (rc == 0) rc = 1;
      } else {
        obs::LogInfo("cli",
                     "wrote %zu provenance record(s) (%llu overwritten) to %s",
                     ring.size(),
                     static_cast<unsigned long long>(ring.overwritten()),
                     flags.GetString("audit-out").c_str());
      }
    }
  }
  if (flags.Has("metrics-out")) {
    const Status s = obs::WriteJsonFile(obs::MetricsRegistry::Global(),
                                        flags.GetString("metrics-out"));
    if (!s.ok()) {
      Fail(s);
      if (rc == 0) rc = 1;
    }
  }
  if (tracing) {
    obs::TraceEventSink& sink = obs::TraceEventSink::Global();
    sink.Stop();
    const Status s = sink.WriteChromeTraceFile(flags.GetString("trace-out"));
    if (!s.ok()) {
      Fail(s);
      if (rc == 0) rc = 1;
    } else {
      obs::LogInfo("cli", "wrote trace with %zu event(s) (%llu dropped) to %s",
                   sink.size(),
                   static_cast<unsigned long long>(sink.dropped()),
                   flags.GetString("trace-out").c_str());
    }
  }
  return rc;
}
