#include "pasa/anonymizer.h"

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pasa/incremental.h"

namespace pasa {

Result<Anonymizer> Anonymizer::Build(const LocationDatabase& db,
                                     const MapExtent& extent,
                                     const AnonymizerOptions& options) {
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  obs::ScopedSpan build_span("anonymizer/build", obs::ScopedSpan::kRoot);
  Result<std::pair<BinaryTree, DpMatrix>> built = BuildTreeAndMatrix(
      db, extent, options.k, options.dp, options.orientation);
  if (!built.ok()) return built.status();
  auto& [tree, matrix] = *built;
  Result<ExtractedPolicy> policy = [&] {
    obs::ScopedSpan extract_span("extract_policy");
    return ExtractOptimalPolicy(tree, matrix, options.k);
  }();
  if (!policy.ok()) return policy.status();

  obs::LogDebug("anonymizer", "built optimal policy: %zu users, k=%d, "
                "cost %lld",
                db.size(), options.k,
                static_cast<long long>(policy->cost));
  // The matrix is dropped with `built`: serving reads only tree and policy.
  return Anonymizer(options, db, std::move(tree), std::move(*policy));
}

Result<Anonymizer> Anonymizer::Build(const LocationDatabase& db,
                                     const AnonymizerOptions& options) {
  Result<MapExtent> extent = MapExtent::Covering(db.BoundingBox());
  if (!extent.ok()) return extent.status();
  return Build(db, *extent, options);
}

Result<Rect> Anonymizer::CloakForUser(UserId user) const {
  Result<size_t> row = db_.IndexOf(user);
  if (!row.ok()) return row.status();
  return CloakForRow(*row);
}

Result<AnonymizedRequest> Anonymizer::Anonymize(const ServiceRequest& sr) {
  static obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "anonymizer/cloak_lookup_seconds");
  obs::ScopedHistogramTimer timer(latency);
  Result<size_t> row = ValidSenderRow(sr, db_);
  if (!row.ok()) return row.status();
  const int32_t node = policy_.assignment[*row];
  AnonymizedRequest ar{next_rid_++, tree_.node(node).region, sr.params};
  if (obs::ProvenanceRecord* p = obs::CurrentProvenance()) {
    AnnotateCloakDecision(tree_, policy_, options_.k, node, ar.rid, sr.sender,
                          p);
  }
  return ar;
}

Result<CloakingTable> PolicyAwareOptimumAlgorithm::Cloak(
    const LocationDatabase& db, int k) const {
  AnonymizerOptions options;
  options.k = k;
  Result<Anonymizer> a = has_extent_ ? Anonymizer::Build(db, extent_, options)
                                     : Anonymizer::Build(db, options);
  if (!a.ok()) return a.status();
  return a->policy();
}

}  // namespace pasa
