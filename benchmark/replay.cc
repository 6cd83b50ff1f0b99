#include "replay.h"

#include <optional>

#include "csp/server.h"
#include "index/binary_tree.h"
#include "io/csv.h"
#include "lbs/provider.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/window.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/extraction.h"
#include "pasa/incremental.h"

namespace pasa_bench {
namespace {

using pasa::Result;
using pasa::Status;
namespace net = pasa::net;
namespace obs = pasa::obs;

/// Answers per LBS request, as CspOptions has it.
constexpr size_t kAnswersPerRequest = 10;

// Production arms every observability layer: `serve` turns on the windows
// and the SLO tracker, --audit-out the provenance ring, and the metrics
// kill switch is on by default.
void ArmObservability(bool armed) {
  obs::Configure(obs::ObsOptions{.enabled = armed});
  if (armed) {
    obs::WindowRegistry::Global().Enable();
    obs::SloTracker::Global().Enable();
    obs::ProvenanceRing::Global().Enable();
  } else {
    obs::WindowRegistry::Global().Disable();
    obs::SloTracker::Global().Disable();
    obs::ProvenanceRing::Global().Disable();
  }
}

// The serve response the server's front end builds for one request.
net::ServeResponseMsg ToResponse(const pasa::CspServer::ServeReceipt& receipt,
                                 const pasa::LbsAnswer& answer) {
  net::ServeResponseMsg msg;
  msg.rid = receipt.rid;
  msg.group_size = receipt.group_size;
  msg.degraded = answer.degraded;
  msg.cloak_x1 = receipt.cloak.x1;
  msg.cloak_y1 = receipt.cloak.y1;
  msg.cloak_x2 = receipt.cloak.x2;
  msg.cloak_y2 = receipt.cloak.y2;
  msg.pois = answer.pois;
  return msg;
}

// Pulls the next frame out of `decoder` after feeding it `bytes`.
bool RoundTrip(net::FrameDecoder* decoder, const std::string& bytes,
               net::Frame* frame) {
  decoder->Feed(bytes);
  Status error;
  return decoder->Next(frame, &error) == net::FrameDecoder::Poll::kFrame;
}

class Replay {
 public:
  Replay(const Inputs& in, SpanRecorder* rec) : in_(in), rec_(rec) {}

  Status SetUp(const std::string& csv_path);
  Status CheckFirstAnswer(
      const std::optional<net::ServeResponseMsg>& served);
  Status Requests(size_t traced_requests);
  Status Advances(const std::vector<net::SnapshotReportMsg>& reports);
  ReplayOutcome Finish();

 private:
  void Error(std::string message) { errors_.push_back(std::move(message)); }
  double MeanUs(const char* name) const {
    const auto it = self_.find(name);
    return it == self_.end() ? 0.0 : it->second.mean_ns / 1e3;
  }
  void Put(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  double PerUser(uint64_t bytes) const {
    return static_cast<double>(bytes) / static_cast<double>(in_.spec.users);
  }

  const Inputs& in_;
  SpanRecorder* rec_;
  pasa::LocationDatabase db_;
  std::optional<pasa::CspServer> csp_;
  std::map<std::string, SpanRecorder::SelfTime> self_;
  MetricMap metrics_;
  std::vector<std::string> errors_;
  std::vector<double> rows_repaired_;
};

Status Replay::SetUp(const std::string& csv_path) {
  ArmObservability(true);
  if (rec_ == nullptr) {
    db_ = in_.db;
  } else {
    // What `pasa_cli serve` does before it listens, one layer at a time.
    {
      ScopedSpan span(rec_, "io.load_csv", 0);
      Result<pasa::LocationDatabase> loaded =
          pasa::LoadLocationDatabaseCsv(csv_path);
      if (!loaded.ok()) return loaded.status();
      db_ = std::move(*loaded);
    }
    if (db_.rows() != in_.db.rows()) Error("the CSV changed the snapshot");
    std::optional<pasa::BinaryTree> tree;
    {
      ScopedSpan span(rec_, "index.tree_build", 0);
      Result<pasa::BinaryTree> built = pasa::BinaryTree::Build(
          db_, in_.extent, pasa::TreeOptions{.split_threshold = kK});
      if (!built.ok()) return built.status();
      tree.emplace(std::move(*built));
    }
    std::optional<pasa::DpMatrix> matrix;
    {
      ScopedSpan span(rec_, "pasa.bulk_dp", 0);
      Result<pasa::DpMatrix> computed =
          pasa::ComputeDpMatrix(*tree, kK, pasa::DpOptions{});
      if (!computed.ok()) return computed.status();
      matrix.emplace(std::move(*computed));
    }
    std::optional<pasa::ExtractedPolicy> policy;
    {
      ScopedSpan span(rec_, "pasa.extract", 0);
      Result<pasa::ExtractedPolicy> extracted =
          pasa::ExtractOptimalPolicy(*tree, *matrix, kK);
      if (!extracted.ok()) return extracted.status();
      policy.emplace(std::move(*extracted));
    }
    uint64_t dense_cells = 0;
    for (const pasa::DpRow& row : matrix->rows) dense_cells += row.dense.size();
    Put("index.tree_nodes", static_cast<double>(tree->num_live_nodes()),
        "count");
    Put("pasa.dense_cells", static_cast<double>(dense_cells), "count");
    Put("mem.snapshot_bpu", PerUser(db_.ApproxBytes()), "B");
    Put("mem.tree_bpu", PerUser(tree->ApproxBytes()), "B");
    Put("mem.matrix_bpu", PerUser(matrix->ApproxBytes()), "B");
    Put("mem.policy_bpu", PerUser(policy->ApproxBytes()), "B");
  }
  pasa::LocationDatabase snapshot = db_;
  pasa::CspOptions options;
  options.k = kK;
  ScopedSpan span(rec_, "csp.start", 0);
  Result<pasa::CspServer> started = pasa::CspServer::Start(
      std::move(snapshot), in_.extent, pasa::PoiDatabase(in_.pois), options);
  if (!started.ok()) return started.status();
  csp_.emplace(std::move(*started));
  return Status::Ok();
}

// The per-layer numbers stand for the server only if this process serves
// what it serves: same snapshot, same policy, same POI set. Request 0 came
// before any advance, so the freshly started replay must answer it alike.
Status Replay::CheckFirstAnswer(
    const std::optional<net::ServeResponseMsg>& served) {
  if (!served.has_value()) {
    Error("the server did not answer request 0");
    return Status::Ok();
  }
  pasa::CspServer::ServeReceipt receipt;
  Result<pasa::LbsAnswer> answer =
      csp_->HandleRequest(in_.MakeRequest(0), &receipt);
  if (!answer.ok()) return answer.status();
  net::ServeResponseMsg replayed = ToResponse(receipt, *answer);
  replayed.rid = served->rid;
  if (replayed != *served) {
    Error("request 0: the server's cloak, group size or POIs differ from "
          "the replay's");
  }
  return Status::Ok();
}

Status Replay::Requests(size_t traced_requests) {
  pasa::CachingLbsFrontend frontend(
      pasa::LbsProvider(pasa::PoiDatabase(in_.pois), kAnswersPerRequest));
  const pasa::LbsProvider provider(pasa::PoiDatabase(in_.pois),
                                   kAnswersPerRequest);
  auto misses = [&] { return frontend.cache_stats().misses; };

  // The warm-up stream fills both answer caches as it does the server's;
  // only the front end's misses are kept as spans.
  for (size_t i = 0; i < in_.warmup; ++i) {
    const pasa::ServiceRequest sr = in_.MakeRequest(i);
    if (!csp_->HandleRequest(sr).ok()) {
      return Status::Internal("warm-up request " + std::to_string(i) +
                              " failed in the replay");
    }
    uint64_t group_size = 0;
    Result<pasa::AnonymizedRequest> ar = csp_->Cloak(sr, &group_size);
    if (!ar.ok()) return ar.status();
    const size_t before = misses();
    const int64_t start = SpanRecorder::Now();
    frontend.Serve(*ar).ok();
    const int64_t end = SpanRecorder::Now();
    if (misses() != before) {
      rec_->Add("lbs.serve_miss", i, SpanRecorder::kNoParent, start, end);
    }
  }
  pasa::CspServer disarmed(*csp_);

  const size_t begin = in_.warmup;
  const size_t end = begin + std::min(traced_requests, in_.open);
  net::FrameDecoder server_side;
  net::FrameDecoder client_side;
  net::Frame frame;
  std::vector<pasa::AnonymizedRequest> served;
  served.reserve(end - begin);
  uint64_t response_bytes = 0;
  size_t hits = 0;
  for (size_t i = begin; i < end; ++i) {
    const pasa::ServiceRequest sr = in_.MakeRequest(i);
    ScopedSpan root(rec_, "request", i);
    std::string wire;
    {
      ScopedSpan span(rec_, "net.req_encode", i, root.id());
      wire = net::EncodeFrame(net::MsgType::kServeRequest,
                              net::EncodeServiceRequest(sr), in_.Trace(i));
    }
    std::optional<pasa::ServiceRequest> request;
    {
      ScopedSpan span(rec_, "net.req_decode", i, root.id());
      if (RoundTrip(&server_side, wire, &frame)) {
        Result<pasa::ServiceRequest> decoded =
            net::DecodeServiceRequest(frame.payload);
        if (decoded.ok()) request.emplace(std::move(*decoded));
      }
    }
    if (!request.has_value() || *request != sr) {
      return Status::Internal("request codec round trip failed");
    }
    pasa::CspServer::ServeReceipt receipt;
    std::optional<pasa::LbsAnswer> answer;
    {
      ScopedSpan span(rec_, "csp.handle", i, root.id());
      Result<pasa::LbsAnswer> handled = csp_->HandleRequest(*request, &receipt);
      if (handled.ok()) answer.emplace(std::move(*handled));
    }
    if (!answer.has_value()) {
      return Status::Internal("request " + std::to_string(i) +
                              " failed in the replay");
    }
    std::optional<pasa::AnonymizedRequest> ar;
    {
      ScopedSpan span(rec_, "csp.cloak", i, root.id());
      uint64_t group_size = 0;
      Result<pasa::AnonymizedRequest> cloaked =
          csp_->Cloak(*request, &group_size);
      if (cloaked.ok()) ar.emplace(std::move(*cloaked));
    }
    if (!ar.has_value()) return Status::Internal("Cloak failed in the replay");
    {
      ScopedSpan span(rec_, "lbs.serve_hit", i, root.id());
      const size_t before = misses();
      frontend.Serve(*ar).ok();
      if (misses() != before) {
        span.Rename("lbs.serve_miss");
      } else {
        ++hits;
      }
    }
    {
      ScopedSpan span(rec_, "lbs.provider", i, root.id());
      provider.Answer(*ar);
    }
    std::string response;
    {
      ScopedSpan span(rec_, "net.resp_encode", i, root.id());
      response = net::EncodeFrame(
          net::MsgType::kServeResponse,
          net::EncodeServeResponse(ToResponse(receipt, *answer)));
    }
    response_bytes += response.size();
    bool verified = false;
    {
      ScopedSpan span(rec_, "net.resp_decode", i, root.id());
      if (RoundTrip(&client_side, response, &frame)) {
        Result<net::ServeResponseMsg> decoded =
            net::DecodeServeResponse(frame.payload);
        verified = decoded.ok() &&
                   CheckServeResponse(*decoded, sr.location).empty();
      }
    }
    if (!verified) {
      Error("replayed request " + std::to_string(i) + " failed verification");
    }
    served.push_back(std::move(*ar));
  }

  // The same requests on the copy, with every observability layer off;
  // the copy holds the same cache, so it sees the same hits and misses.
  ArmObservability(false);
  for (size_t i = begin; i < end; ++i) {
    const pasa::ServiceRequest sr = in_.MakeRequest(i);
    ScopedSpan span(rec_, "csp.handle_disarmed", i);
    disarmed.HandleRequest(sr).ok();
  }
  ArmObservability(true);

  // Every request again, now all hits, so the hit path is timed on every
  // workload (cold_lbs never hits otherwise).
  for (size_t j = 0; j < served.size(); ++j) {
    ScopedSpan span(rec_, "lbs.serve_hit", begin + j);
    frontend.Serve(served[j]).ok();
  }

  const size_t n = std::max<size_t>(1, end - begin);
  Put("net.resp_bytes",
      static_cast<double>(response_bytes) / static_cast<double>(n), "B");
  Put("lbs.hit_ratio", static_cast<double>(hits) / static_cast<double>(n),
      "ratio");
  Put("lbs.bytes_per_entry",
      static_cast<double>(frontend.cache().ApproxBytes()) /
          static_cast<double>(std::max<size_t>(1, frontend.cache().size())),
      "B");
  obs::MemoryAccountant accountant;
  csp_->ReportMemory(accountant);
  const std::map<std::string, uint64_t> bytes = accountant.Snapshot();
  Put("mem.user_index_bpu", PerUser(bytes.at("csp/user_index")), "B");
  Put("mem.answer_cache_bpu", PerUser(bytes.at("lbs/answer_cache")), "B");
  return Status::Ok();
}

Status Replay::Advances(
    const std::vector<net::SnapshotReportMsg>& reports) {
  pasa::LocationDatabase current = db_;
  std::optional<pasa::IncrementalAnonymizer> engine;
  auto rebuild = [&] {
    ScopedSpan span(rec_, "pasa.rebuild", 0);
    Result<pasa::IncrementalAnonymizer> built =
        pasa::IncrementalAnonymizer::Build(current, in_.extent, kK,
                                           pasa::DpOptions{});
    if (!built.ok()) return built.status();
    engine.emplace(std::move(*built));
    return Status::Ok();
  };
  if (rec_ != nullptr) {
    if (Status s = rebuild(); !s.ok()) return s;
  }
  for (size_t b = 0; b < in_.batches.size(); ++b) {
    const Batch& batch = in_.batches[b];
    if (rec_ != nullptr) {
      // The advance's trip through the wire codec, both directions.
      ScopedSpan span(rec_, "net.advance_codec", b);
      net::Frame frame;
      net::FrameDecoder decoder;
      net::SnapshotAdvanceMsg msg;
      msg.moves = batch.moves;
      const std::string advance = net::EncodeFrame(
          net::MsgType::kSnapshotAdvance, net::EncodeSnapshotAdvance(msg));
      if (!RoundTrip(&decoder, advance, &frame) ||
          !net::DecodeSnapshotAdvance(frame.payload).ok()) {
        return Status::Internal("advance codec round trip failed");
      }
      const std::string report = net::EncodeFrame(
          net::MsgType::kSnapshotReport,
          net::EncodeSnapshotReport(b < reports.size()
                                        ? reports[b]
                                        : net::SnapshotReportMsg{}));
      if (!RoundTrip(&decoder, report, &frame) ||
          !net::DecodeSnapshotReport(frame.payload).ok()) {
        return Status::Internal("report codec round trip failed");
      }
    }
    std::optional<pasa::SnapshotReport> report;
    {
      ScopedSpan span(rec_,
                      batch.expect_rebuild ? "csp.advance_rebuild"
                                           : "csp.advance_repair",
                      b);
      Result<pasa::SnapshotReport> advanced =
          csp_->AdvanceSnapshot(batch.moves);
      if (!advanced.ok()) return advanced.status();
      report.emplace(*advanced);
    }
    if (b >= reports.size()) {
      Error("advance " + std::to_string(b) + " has no server report");
    } else if (reports[b].policy_cost != report->policy_cost) {
      Error("advance " + std::to_string(b) + ": server policy cost " +
            std::to_string(reports[b].policy_cost) + ", replay " +
            std::to_string(report->policy_cost));
    }
    if (rec_ == nullptr) continue;

    current = ApplyMovesByRow(current, batch.moves);
    if (batch.expect_rebuild) {
      if (Status s = rebuild(); !s.ok()) return s;
    } else {
      ScopedSpan span(rec_, "pasa.repair", b);
      Result<size_t> rows = engine->ApplyMoves(batch.moves);
      if (!rows.ok()) return rows.status();
      rows_repaired_.push_back(static_cast<double>(*rows));
    }
    std::optional<pasa::ExtractedPolicy> policy;
    {
      ScopedSpan span(rec_, "pasa.advance_extract", b);
      Result<pasa::ExtractedPolicy> extracted = engine->ExtractPolicy();
      if (!extracted.ok()) return extracted.status();
      policy.emplace(std::move(*extracted));
    }
    if (policy->cost != report->policy_cost) {
      Error("advance " + std::to_string(b) +
            ": the benchmark's engine disagrees with the server on cost");
    }
  }
  return Status::Ok();
}

ReplayOutcome Replay::Finish() {
  ReplayOutcome out;
  if (rec_ != nullptr) {
    self_ = rec_->SelfTimes();
    const double s = 1e6;  // us per s
    Put("io.load_csv_s", MeanUs("io.load_csv") / s, "s");
    Put("index.tree_build_s", MeanUs("index.tree_build") / s, "s");
    Put("pasa.bulk_dp_s", MeanUs("pasa.bulk_dp") / s, "s");
    Put("pasa.extract_s", MeanUs("pasa.extract") / s, "s");
    Put("csp.start_s", MeanUs("csp.start") / s, "s");
    for (const char* name :
         {"net.req_encode", "net.req_decode", "net.resp_encode",
          "net.resp_decode", "csp.cloak", "csp.handle", "lbs.serve_hit",
          "lbs.serve_miss", "lbs.provider"}) {
      Put(std::string(name) + "_us", MeanUs(name), "us");
    }
    Put("obs.armed_us",
        MeanUs("csp.handle") - MeanUs("csp.handle_disarmed"), "us");
    const double ms = 1e3;  // us per ms
    Put("csp.advance_repair_ms", MeanUs("csp.advance_repair") / ms, "ms");
    if (self_.count("csp.advance_rebuild") != 0) {
      Put("csp.advance_rebuild_ms", MeanUs("csp.advance_rebuild") / ms,
          "ms");
    }
    Put("pasa.repair_ms", MeanUs("pasa.repair") / ms, "ms");
    Put("pasa.rows_repaired", Mean(rows_repaired_), "count");
    Put("pasa.rebuild_ms", MeanUs("pasa.rebuild") / ms, "ms");
    Put("pasa.advance_extract_ms", MeanUs("pasa.advance_extract") / ms, "ms");
    Put("csp.advance_self_ms",
        (MeanUs("csp.advance_repair") - MeanUs("pasa.repair") -
         MeanUs("pasa.advance_extract")) /
            ms,
        "ms");
    Put("net.advance_codec_ms", MeanUs("net.advance_codec") / ms, "ms");
  }
  out.metrics = std::move(metrics_);
  out.errors = std::move(errors_);
  return out;
}

}  // namespace

Result<ReplayOutcome> RunReplay(
    const Inputs& in, const std::string& csv_path,
    const std::optional<net::ServeResponseMsg>& first_response,
    const std::vector<net::SnapshotReportMsg>& reports,
    SpanRecorder* recorder, size_t traced_requests) {
  Replay replay(in, recorder);
  if (Status s = replay.SetUp(csv_path); !s.ok()) return s;
  if (Status s = replay.CheckFirstAnswer(first_response); !s.ok()) return s;
  if (recorder != nullptr) {
    if (Status s = replay.Requests(traced_requests); !s.ok()) return s;
  }
  if (Status s = replay.Advances(reports); !s.ok()) return s;
  return replay.Finish();
}

}  // namespace pasa_bench
