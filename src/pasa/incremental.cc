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

constexpr char kTornMessage[] =
    "a failed repair or rebuild left the tree and matrix apart; rebuild first";

}  // namespace

Result<std::pair<BinaryTree, DpMatrix>> BuildTreeAndMatrix(
    const LocationDatabase& db, const MapExtent& extent, int k,
    const DpOptions& dp_options, SplitOrientation orientation) {
  Result<BinaryTree> tree = [&] {
    obs::ScopedSpan tree_span("tree_build");
    return BinaryTree::Build(
        db, extent,
        TreeOptions{.split_threshold = k, .orientation = orientation});
  }();
  if (!tree.ok()) return tree.status();
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, k, dp_options);
  if (!matrix.ok()) return matrix.status();
  return std::pair(std::move(*tree), std::move(*matrix));
}

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
  policy_ = ExtractedPolicy{};
  policy_state_ = PolicyState::kTorn;
  std::vector<int32_t>().swap(changed_);
  if (Status s = ApplyMovesToDatabase(moves, &db_); !s.ok()) return s;
  Result<std::pair<BinaryTree, DpMatrix>> built =
      BuildTreeAndMatrix(db_, tree_.extent(), k_, dp_options_);
  if (!built.ok()) return built.status();
  std::tie(tree_, matrix_) = std::move(*built);
  policy_state_ = PolicyState::kStale;
  return Status::Ok();
}

Result<size_t> IncrementalAnonymizer::ApplyMoves(
    const std::vector<UserMove>& moves) {
  obs::ScopedSpan span("incremental/repair", obs::ScopedSpan::kRoot);
  if (policy_state_ == PolicyState::kTorn) {
    return Status::Internal(kTornMessage);
  }
  const bool policy_was_current = policy_state_ == PolicyState::kCurrent;
  policy_state_ = PolicyState::kTorn;
  changed_.clear();
  const size_t old_nodes = tree_.num_nodes();
  std::vector<BinaryTree::Touch> touched;
  touched.reserve(moves.size() * 48);
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
    if (s.ok()) s = tree_.ApplyMove(move.row, move.from, db_, &touched);
    if (!s.ok()) return s;
  }
  if (matrix_.rows.size() < tree_.num_nodes()) {
    matrix_.rows.reserve(tree_.num_nodes());  // exactly: resize would double
    matrix_.rows.resize(tree_.num_nodes());
  }

  // Per node, for this call only: its count now minus before the batch,
  // and whether it was touched / is new or changed (row or count).
  enum : uint8_t { kTouched = 1, kChanged = 2 };
  std::vector<int32_t> delta(tree_.num_nodes(), 0);
  std::vector<uint8_t> state(tree_.num_nodes(), 0);
  // Children before parents: a child's binary depth is strictly greater
  // than its parent's, so one sort of (inverted depth, node) keys orders
  // the touched nodes.
  std::vector<uint64_t> keys;
  for (const BinaryTree::Touch& t : touched) {
    delta[t.node] += t.delta;
    if (state[t.node] & kTouched) continue;
    state[t.node] |= kTouched;
    const uint64_t depth = static_cast<uint64_t>(tree_.node(t.node).depth);
    keys.push_back(((uint64_t{0xffff} - depth) << 32) |
                   static_cast<uint32_t>(t.node));
  }
  std::sort(keys.begin(), keys.end());

  DpScratch scratch;
  DpPhaseProfile profile;  // dirty leaves' laps go to leaf_init, unreported
  DpPhaseProfile* p = obs::Enabled() ? &profile : nullptr;
  size_t recomputed = 0;
  size_t rows_changed = 0;
  for (const uint64_t key : keys) {
    const int32_t id = static_cast<int32_t>(key & 0xffffffffu);
    const BinaryTree::Node& n = tree_.node(id);
    const bool is_new = static_cast<size_t>(id) >= old_nodes;
    if (!n.live) {
      matrix_.rows[id] = DpRow{};  // reclaim abandoned rows
      if (!is_new) changed_.push_back(id);
      continue;
    }
    if (!is_new && !n.IsLeaf() && !(state[n.first_child] & kChanged) &&
        !(state[n.first_child + 1] & kChanged)) {
      continue;  // both children's rows and counts are as before the batch
    }
    DpRow row =
        ComputeNodeRow(tree_, id, matrix_, k_, dp_options_, &scratch, p);
    ++recomputed;
    DpRow& old = matrix_.rows[id];
    if (!is_new && delta[id] == 0 && row.dense == old.dense &&
        row.children_pass == old.children_pass) {
      continue;
    }
    old = std::move(row);
    state[id] |= kChanged;
    changed_.push_back(id);
    ++rows_changed;
  }
  policy_state_ =
      policy_was_current ? PolicyState::kOneRepair : PolicyState::kStale;
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
    registry.GetCounter("incremental/rows_changed").Increment(rows_changed);
    registry.GetCounter("incremental/repairs").Increment();
    obs::TraceCounter("incremental/rows_recomputed",
                      static_cast<double>(recomputed));
  }
  obs::LogDebug("incremental", "repair: %zu moves, %zu dirty rows, "
                "%zu recomputed, %zu changed",
                moves.size(), keys.size(), recomputed, rows_changed);
  return recomputed;
}

Status IncrementalAnonymizer::RefreshPolicy() {
  if (policy_state_ == PolicyState::kCurrent) return Status::Ok();
  if (policy_state_ == PolicyState::kTorn) {
    policy_ = ExtractedPolicy{};
    return Status::Internal(kTornMessage);
  }
  Status s = Status::Ok();
  if (policy_state_ == PolicyState::kOneRepair) {
    s = UpdateOptimalPolicy(tree_, matrix_, k_, changed_, &policy_);
  } else if (Result<ExtractedPolicy> full = ExtractPolicy(); full.ok()) {
    policy_ = std::move(*full);
  } else {
    s = full.status();
  }
  std::vector<int32_t>().swap(changed_);
  if (!s.ok()) policy_ = ExtractedPolicy{};
  policy_state_ = s.ok() ? PolicyState::kCurrent : PolicyState::kStale;
  return s;
}

}  // namespace pasa
