#ifndef PASA_PASA_BULK_DP_BINARY_H_
#define PASA_PASA_BULK_DP_BINARY_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/binary_tree.h"
#include "pasa/configuration.h"
#include "pasa/minplus.h"

namespace pasa {

/// Optimization toggles for the binary-tree Bulk_dp (Section V). Both default
/// on; the ablation benchmark turns them off individually.
struct DpOptions {
  /// Lemma 5: cap the number of locations a node at height h may pass up at
  /// (k+1)h (besides the always-available "pass everything" option).
  bool lemma5_pruning = true;
  /// Two-stage evaluation of internal nodes: materialize
  /// temp[j] = min_{l1+l2=j} M[m1][l1] + M[m2][l2] once, then derive all
  /// M[m][u] from it, instead of re-scanning child pairs per u.
  bool two_stage = true;
};

/// The DP row of one tree node over the "dense" pass-up values u = 0..cap,
/// where cap = min(d-k, Lemma-5 bound) and cap = dense.size() - 1; the row
/// is empty when d < k. The u = d(m) entry ("pass everything up") always
/// exists implicitly with cost 0 and is not stored.
struct DpRow {
  /// dense[u]: minimum configuration cost of the subtree with C(m) = u.
  std::vector<Cost> dense;
  /// Internal rows only, one per cost: the number of locations the two
  /// children pass up (j = C(m1) + C(m2)) in the minimizing configuration,
  /// the bookkeeping extraction walks back down (0 where no configuration
  /// exists). Empty for leaves, which have no children to split j between.
  std::vector<uint32_t> children_pass;

  /// Cost of C(m) = u; `u == d` is the implicit zero-cost entry.
  Cost CostAt(uint32_t u, uint32_t d) const {
    if (u == d) return 0;
    return u < dense.size() ? dense[u] : kInfiniteCost;
  }
};

/// Per-phase wall clock accumulated while filling DP rows, reported by the
/// observability layer as "bulk_dp/*" spans. Plain (non-atomic) fields: each
/// DP run profiles into its own instance. Only the phases the selected
/// DpOptions actually execute accumulate time (two-stage fills
/// temp_convolution/suffix_sweep, the direct variant fills direct_scan).
///
/// Phases are consecutive laps of one tick counter, so a phase boundary
/// costs a single counter read; the time between two rows goes to the phase
/// that follows it. On x86-64 the counter is the time-stamp counter, about
/// half the cost of a steady_clock read, which matters on small trees where
/// a row takes a microsecond; elsewhere it is the steady clock. Seconds()
/// converts ticks at the rate measured against the steady clock since
/// construction.
struct DpPhaseProfile {
  DpPhaseProfile();

  /// Ends the current phase and starts the next; returns its ticks.
  uint64_t Lap();
  /// `ticks` in seconds.
  double Seconds(uint64_t ticks) const;

  uint64_t leaf_init_ticks = 0;         ///< leaf rows (clause (i)/(ii))
  uint64_t temp_convolution_ticks = 0;  ///< two-stage stage 1: temp matrix
  uint64_t suffix_sweep_ticks = 0;      ///< two-stage stage 2 + suffix minima
  uint64_t direct_scan_ticks = 0;       ///< un-staged direct evaluation
  uint64_t leaf_rows = 0;
  uint64_t internal_rows = 0;
  uint64_t dense_cells = 0;  ///< dense DP entries materialized

 private:
  std::chrono::steady_clock::time_point start_;
  uint64_t start_ticks_;
  uint64_t lap_ticks_;
};

/// Working memory of the two-stage fill: the children's (min,+)
/// convolution, the merged temp list g and its suffix minima (the kernel
/// reads the children's cost arrays in place). One scratch serves every row
/// of one ComputeDpMatrix or ApplyMoves call, so a row allocates only its
/// own costs and passes. A scratch is not shared between threads: each
/// concurrent caller owns one.
struct DpScratch {
  explicit DpScratch(MinPlusIsa isa = DispatchedMinPlusIsa()) : isa(isa) {}

  MinPlusIsa isa;  ///< convolution kernel; must be MinPlusIsaSupported
  std::vector<Cost> conv;
  std::vector<uint32_t> g_j;  ///< g's j values, ascending
  std::vector<Cost> g_cost;   ///< g(j)
  std::vector<Cost> suffix_cost;
  std::vector<uint32_t> suffix_j;
};

/// The full configuration matrix M of algorithm Bulk_dp, one row per tree
/// node (dead nodes have empty rows).
struct DpMatrix {
  std::vector<DpRow> rows;

  /// Minimum cost of a complete (C(root) = 0) configuration, i.e. the cost
  /// of the optimal policy-aware sender k-anonymous policy.
  Result<Cost> OptimalCost(const BinaryTree& tree) const;

  /// Approximate heap bytes of the matrix — the row array plus every row's
  /// cost and pass arrays (memory accounting, obs/mem.h).
  uint64_t ApproxBytes() const {
    uint64_t bytes = static_cast<uint64_t>(rows.capacity()) * sizeof(DpRow);
    for (const DpRow& row : rows) {
      bytes += static_cast<uint64_t>(row.dense.capacity()) * sizeof(Cost) +
               static_cast<uint64_t>(row.children_pass.capacity()) *
                   sizeof(uint32_t);
    }
    return bytes;
  }
};

/// The optimized Bulk_dp of Section V on the binary semi-quadrant tree:
/// fills the configuration matrix bottom-up in O(|B| (kh)^2) with both
/// optimizations on. Fails with Infeasible when the snapshot holds fewer
/// than k users (no complete k-summation configuration exists). An empty
/// snapshot yields an empty matrix with optimal cost 0.
Result<DpMatrix> ComputeDpMatrix(const BinaryTree& tree, int k,
                                 const DpOptions& options);

/// Recomputes the row of a single node from its (already computed) child
/// rows — the unit of work shared by the bulk computation above and by
/// incremental maintenance (Section IV "Incremental Maintenance of M").
/// `scratch` is reused working memory and selects the convolution kernel.
/// A non-null `profile` accumulates per-phase timings (obs layer).
DpRow ComputeNodeRow(const BinaryTree& tree, int32_t node,
                     const DpMatrix& matrix, int k, const DpOptions& options,
                     DpScratch* scratch, DpPhaseProfile* profile = nullptr);

}  // namespace pasa

#endif  // PASA_PASA_BULK_DP_BINARY_H_
