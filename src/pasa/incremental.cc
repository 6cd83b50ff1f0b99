#include "pasa/incremental.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"

namespace pasa {
namespace {

Result<std::pair<BinaryTree, DpMatrix>> BuildTreeAndMatrix(
    const LocationDatabase& db, const MapExtent& extent, int k,
    const DpOptions& dp_options) {
  Result<BinaryTree> tree = [&] {
    obs::ScopedSpan tree_span("tree_build");
    return BinaryTree::Build(db, extent, TreeOptions{.split_threshold = k});
  }();
  if (!tree.ok()) return tree.status();
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, k, dp_options);
  if (!matrix.ok()) return matrix.status();
  return std::pair(std::move(*tree), std::move(*matrix));
}

}  // namespace

Status ApplyMovesToDatabase(const std::vector<UserMove>& moves,
                            LocationDatabase* db) {
  for (const UserMove& move : moves) {
    Status s = db->MoveRow(move.row, move.to);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Result<IncrementalAnonymizer> IncrementalAnonymizer::Build(
    LocationDatabase db, const MapExtent& extent, int k,
    const DpOptions& dp_options) {
  Result<std::pair<BinaryTree, DpMatrix>> built =
      BuildTreeAndMatrix(db, extent, k, dp_options);
  if (!built.ok()) return built.status();
  return IncrementalAnonymizer(k, dp_options, std::move(db),
                               std::move(*built));
}

Status IncrementalAnonymizer::Rebuild(const std::vector<UserMove>& moves) {
  obs::ScopedSpan span("rebuild");
  if (Status s = ApplyMovesToDatabase(moves, &db_); !s.ok()) return s;
  Result<std::pair<BinaryTree, DpMatrix>> built =
      BuildTreeAndMatrix(db_, tree_.extent(), k_, dp_options_);
  if (!built.ok()) return built.status();
  std::tie(tree_, matrix_) = std::move(*built);
  return Status::Ok();
}

Result<size_t> IncrementalAnonymizer::ApplyMoves(
    const std::vector<UserMove>& moves) {
  obs::ScopedSpan span("incremental/repair", obs::ScopedSpan::kRoot);
  std::vector<int32_t> dirty;
  dirty.reserve(moves.size() * 48);
  // Lockstep: a split during move i sees moves up to i at their new places
  // and later movers still at their old ones.
  const Rect map = tree_.node(BinaryTree::kRootId).region;
  for (const UserMove& move : moves) {
    if (!map.Contains(move.to)) {
      return Status::InvalidArgument("new location " + move.to.ToString() +
                                     " outside the tree's root region");
    }
    if (move.row < db_.size() && db_.row(move.row).location != move.from) {
      return Status::InvalidArgument(
          "old location does not match the tree's view of row " +
          std::to_string(move.row));
    }
    Status s = db_.MoveRow(move.row, move.to);  // rejects an unknown row
    if (s.ok()) s = tree_.ApplyMove(move.row, move.from, db_, &dirty);
    if (!s.ok()) return s;
  }

  // Deduplicate, drop abandoned nodes, grow the matrix for new arena slots.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  if (matrix_.rows.size() < tree_.num_nodes()) {
    matrix_.rows.reserve(tree_.num_nodes());  // exactly: resize would double
    matrix_.rows.resize(tree_.num_nodes());
  }

  // Children before parents: a child's binary depth is strictly greater
  // than its parent's, so recompute in depth-descending order.
  std::sort(dirty.begin(), dirty.end(), [&](int32_t a, int32_t b) {
    return tree_.node(a).depth > tree_.node(b).depth;
  });

  DpScratch scratch;
  DpPhaseProfile profile;  // dirty leaves' laps go to leaf_init, unreported
  DpPhaseProfile* p = obs::Enabled() ? &profile : nullptr;
  size_t recomputed = 0;
  for (const int32_t id : dirty) {
    if (!tree_.node(id).live) {
      matrix_.rows[id] = DpRow{};  // reclaim abandoned rows
      continue;
    }
    matrix_.rows[id] =
        ComputeNodeRow(tree_, id, matrix_, k_, dp_options_, &scratch, p);
    ++recomputed;
  }
  if (p != nullptr) {
    auto& registry = obs::MetricsRegistry::Global();
    if (dp_options_.two_stage) {
      registry.RecordSpan("incremental/repair/temp_convolution",
                          p->Seconds(p->temp_convolution_ticks),
                          p->internal_rows);
      registry.RecordSpan("incremental/repair/suffix_sweep",
                          p->Seconds(p->suffix_sweep_ticks), p->internal_rows);
    }
    registry.GetCounter("incremental/moves_applied").Increment(moves.size());
    registry.GetCounter("incremental/rows_recomputed").Increment(recomputed);
    registry.GetCounter("incremental/repairs").Increment();
    obs::TraceCounter("incremental/rows_recomputed",
                      static_cast<double>(recomputed));
  }
  obs::LogDebug("incremental", "repair: %zu moves, %zu dirty rows, "
                "%zu recomputed",
                moves.size(), dirty.size(), recomputed);
  return recomputed;
}

}  // namespace pasa
