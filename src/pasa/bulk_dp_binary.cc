#include "pasa/bulk_dp_binary.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pasa {
namespace {

uint64_t ReadTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// Pass-up candidates of a row: the dense values [0..cap] plus d itself, as
// (pass-up, cost) pairs.
void AppendPassUps(const DpRow& row, uint32_t d,
                   std::vector<std::pair<uint32_t, Cost>>* out) {
  for (size_t l = 0; l < row.dense.size(); ++l) {
    out->emplace_back(static_cast<uint32_t>(l), row.dense[l]);
  }
  out->emplace_back(d, 0);
}

int32_t ComputeCap(uint32_t d, int k, int depth, bool pruning) {
  int64_t cap = static_cast<int64_t>(d) - k;
  if (pruning) {
    cap = std::min<int64_t>(cap, static_cast<int64_t>(k + 1) * depth);
  }
  return cap < 0 ? -1 : static_cast<int32_t>(cap);
}

DpRow ComputeLeafRow(const BinaryTree::Node& n, int k,
                     const DpOptions& options) {
  // d < k (cap -1): clause (i), pass everything up; the row stays empty.
  const int32_t cap = ComputeCap(n.count, k, n.depth, options.lemma5_pruning);
  const Cost area = n.region.Area();
  DpRow row;
  row.dense.resize(cap + 1);
  for (int32_t u = 0; u <= cap; ++u) {
    // Clause (ii) second disjunct: cloak d - u >= k locations at the leaf.
    row.dense[u] = area * static_cast<Cost>(n.count - u);
  }
  return row;
}

// Direct (un-staged) evaluation: for every u re-scan all child pass-up
// pairs. This is Algorithm 1 adapted to two children, before the temp-matrix
// optimization; kept for the ablation benchmark.
void FillDirect(const BinaryTree::Node& n, const DpRow& r1, const DpRow& r2,
                uint32_t d1, uint32_t d2, int k, DpRow* row,
                DpPhaseProfile* profile) {
  const Cost area = n.region.Area();
  std::vector<std::pair<uint32_t, Cost>> f1, f2;
  AppendPassUps(r1, d1, &f1);
  AppendPassUps(r2, d2, &f2);
  const uint32_t n_row = static_cast<uint32_t>(row->dense.size());
  for (uint32_t u = 0; u < n_row; ++u) {
    Cost best = kInfiniteCost;
    uint32_t best_j = 0;
    for (const auto& [l1, c1] : f1) {
      for (const auto& [l2, c2] : f2) {
        const uint32_t j = l1 + l2;
        // k-summation clause (iii)/(iv): cloak nothing or at least k.
        if (j != u && (j < u || j - u < static_cast<uint32_t>(k))) continue;
        const Cost x = c1 + c2 + static_cast<Cost>(j - u) * area;
        if (x < best) {
          best = x;
          best_j = j;
        }
      }
    }
    row->dense[u] = best;
    row->children_pass[u] = best_j;
  }
  if (profile) profile->direct_scan_ticks += profile->Lap();
}

// One sorted input of stage 1b: j = first + i carries cost[i], i < size.
struct Run {
  uint32_t first = 0;
  const Cost* cost = nullptr;
  uint32_t size = 0;
};

// Merges interval runs into g: every j some run reaches, ascending, with the
// minimum cost over the runs that reach it. The runs' ends cut [min j,
// max j] into segments each covered by a fixed set of runs, so each segment
// is one tight loop.
void MergeRuns(const Run (&runs)[4], DpScratch* s) {
  uint32_t cuts[8];
  size_t total = 0;
  for (size_t r = 0; r < 4; ++r) {
    cuts[2 * r] = runs[r].first;
    cuts[2 * r + 1] = runs[r].first + runs[r].size;
    total += runs[r].size;
  }
  std::sort(std::begin(cuts), std::end(cuts));
  s->g_j.resize(total);
  s->g_cost.resize(total);
  size_t w = 0;
  for (size_t c = 0; c + 1 < 8; ++c) {
    const uint32_t lo = cuts[c];
    const uint32_t hi = cuts[c + 1];
    if (lo == hi) continue;
    const Run* active[4];
    size_t n = 0;
    for (const Run& run : runs) {
      if (run.first <= lo && hi <= run.first + run.size) active[n++] = &run;
    }
    if (n == 0) continue;
    for (uint32_t j = lo; j < hi; ++j) {
      Cost best = active[0]->cost[j - active[0]->first];
      for (size_t a = 1; a < n; ++a) {
        best = std::min(best, active[a]->cost[j - active[a]->first]);
      }
      s->g_j[w] = j;
      s->g_cost[w] = best;
      ++w;
    }
  }
  s->g_j.resize(w);
  s->g_cost.resize(w);
}

// Two-stage evaluation (Section V "From O(|B|(kh)^3) to O(|B|(kh)^2)"):
// stage 1 materializes g(j) = min cost of the children jointly passing up j
// (the paper's temp matrix, here a sorted sparse list because the reachable
// j values are [0..cap1+cap2], d1+[0..cap2], d1+d2 and d2+[0..cap1]);
// stage 2 derives every M[m][u] from g with a suffix-minimum sweep.
void FillTwoStage(const BinaryTree::Node& n, const DpRow& r1, const DpRow& r2,
                  uint32_t d1, uint32_t d2, int k, DpRow* row,
                  DpScratch* s, DpPhaseProfile* profile) {
  const Cost area = n.region.Area();
  static constexpr Cost kZero = 0;
  const Cost* c1 = r1.dense.data();
  const Cost* c2 = r2.dense.data();
  const uint32_t n1 = static_cast<uint32_t>(r1.dense.size());
  const uint32_t n2 = static_cast<uint32_t>(r2.dense.size());

  // Stage 1a: dense x dense (min,+) convolution.
  uint32_t n_conv = 0;
  if (n1 > 0 && n2 > 0) {
    n_conv = n1 + n2 - 1;
    s->conv.assign(n_conv, kInfiniteCost);
    MinPlusConvolve(s->isa, c1, n1, c2, n2, s->conv.data());
  }
  // Stage 1b: one child passes everything (cost 0), the other is dense or
  // passes everything too. Each run is sorted; merging them keeps the
  // minimum cost per j.
  const Run runs[4] = {{0, s->conv.data(), n_conv},
                       {d1, c2, n2},
                       {d1 + d2, &kZero, 1},
                       {d2, c1, n1}};
  MergeRuns(runs, s);
  if (profile) profile->temp_convolution_ticks += profile->Lap();

  // Suffix minima of g(j) + j*area, with the achieving j for bookkeeping.
  const size_t g_size = s->g_j.size();
  const uint32_t* g_j = s->g_j.data();
  const Cost* g_cost = s->g_cost.data();
  s->suffix_cost.resize(g_size + 1);
  s->suffix_j.resize(g_size + 1);
  Cost* suffix_cost = s->suffix_cost.data();
  uint32_t* suffix_j = s->suffix_j.data();
  suffix_cost[g_size] = kInfiniteCost;
  suffix_j[g_size] = 0;
  for (size_t i = g_size; i-- > 0;) {
    const Cost here = g_cost[i] + static_cast<Cost>(g_j[i]) * area;
    if (here <= suffix_cost[i + 1]) {
      suffix_cost[i] = here;
      suffix_j[i] = g_j[i];
    } else {
      suffix_cost[i] = suffix_cost[i + 1];
      suffix_j[i] = suffix_j[i + 1];
    }
  }

  // Stage 2: M[m][u] = min(g(u),  min_{j >= u+k} g(j) + (j-u)*area).
  // Both cursors only advance: `exact` to the first j >= u, `far` to the
  // first j >= u + k.
  size_t exact = 0;
  size_t far = 0;
  const uint32_t n_row = static_cast<uint32_t>(row->dense.size());
  for (uint32_t u = 0; u < n_row; ++u) {
    Cost best = kInfiniteCost;
    uint32_t best_j = 0;
    while (exact < g_size && g_j[exact] < u) ++exact;
    if (exact < g_size && g_j[exact] == u) {
      best = g_cost[exact];
      best_j = u;
    }
    const uint32_t bound = u + static_cast<uint32_t>(k);
    while (far < g_size && g_j[far] < bound) ++far;
    if (suffix_cost[far] != kInfiniteCost) {
      const Cost x = suffix_cost[far] - static_cast<Cost>(u) * area;
      if (x < best) {
        best = x;
        best_j = suffix_j[far];
      }
    }
    row->dense[u] = best;
    row->children_pass[u] = best_j;
  }
  if (profile) profile->suffix_sweep_ticks += profile->Lap();
}

}  // namespace

DpRow ComputeNodeRow(const BinaryTree& tree, int32_t node,
                     const DpMatrix& matrix, int k, const DpOptions& options,
                     DpScratch* scratch, DpPhaseProfile* profile) {
  const BinaryTree::Node& n = tree.node(node);
  assert(n.live);
  if (n.IsLeaf()) {
    DpRow row = ComputeLeafRow(n, k, options);
    if (profile != nullptr) {
      profile->leaf_init_ticks += profile->Lap();
      ++profile->leaf_rows;
      profile->dense_cells += row.dense.size();
    }
    return row;
  }

  const int32_t c1 = n.first_child;
  const int32_t c2 = n.first_child + 1;
  assert(tree.node(c1).live && tree.node(c2).live);
  const DpRow& r1 = matrix.rows[c1];
  const DpRow& r2 = matrix.rows[c2];
  const uint32_t d1 = tree.node(c1).count;
  const uint32_t d2 = tree.node(c2).count;

  const int32_t cap = ComputeCap(n.count, k, n.depth, options.lemma5_pruning);
  DpRow row;
  if (profile) ++profile->internal_rows;
  if (cap < 0) return row;
  row.dense.resize(cap + 1);
  row.children_pass.resize(cap + 1);
  if (options.two_stage) {
    FillTwoStage(n, r1, r2, d1, d2, k, &row, scratch, profile);
  } else {
    FillDirect(n, r1, r2, d1, d2, k, &row, profile);
  }
  if (profile) profile->dense_cells += row.dense.size();
  return row;
}

DpPhaseProfile::DpPhaseProfile()
    : start_(std::chrono::steady_clock::now()),
      start_ticks_(ReadTicks()),
      lap_ticks_(start_ticks_) {}

uint64_t DpPhaseProfile::Lap() {
  const uint64_t now = ReadTicks();
  // A counter that steps back (a thread moved to a core whose counter
  // lags) yields an empty lap rather than a wrapped one.
  const uint64_t ticks = now > lap_ticks_ ? now - lap_ticks_ : 0;
  lap_ticks_ = now;
  return ticks;
}

double DpPhaseProfile::Seconds(uint64_t ticks) const {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const uint64_t now = ReadTicks();
  if (now <= start_ticks_) return 0.0;
  return static_cast<double>(ticks) * elapsed /
         static_cast<double>(now - start_ticks_);
}

Result<DpMatrix> ComputeDpMatrix(const BinaryTree& tree, int k,
                                 const DpOptions& options) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const uint32_t total = tree.node(BinaryTree::kRootId).count;
  if (total > 0 && total < static_cast<uint32_t>(k)) {
    return Status::Infeasible(
        "snapshot has " + std::to_string(total) + " users, fewer than k = " +
        std::to_string(k) + "; no policy-aware k-anonymous policy exists");
  }
  obs::ScopedSpan span("bulk_dp", obs::ScopedSpan::kRoot);
  DpScratch scratch;
  DpMatrix matrix;
  matrix.rows.resize(tree.num_nodes());
  DpPhaseProfile profile;
  DpPhaseProfile* p = obs::Enabled() ? &profile : nullptr;
  // Leaves first, timed as one block rather than one clock read per leaf;
  // then internal nodes in reverse index order, every child before its
  // parent.
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const BinaryTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (!n.live || !n.IsLeaf()) continue;
    matrix.rows[i] = ComputeLeafRow(n, k, options);
    if (p != nullptr) {
      ++p->leaf_rows;
      p->dense_cells += matrix.rows[i].dense.size();
    }
  }
  if (p != nullptr) p->leaf_init_ticks += p->Lap();
  for (size_t i = tree.num_nodes(); i-- > 0;) {
    const int32_t id = static_cast<int32_t>(i);
    if (!tree.node(id).live || tree.node(id).IsLeaf()) continue;
    matrix.rows[id] =
        ComputeNodeRow(tree, id, matrix, k, options, &scratch, p);
  }
  if (p != nullptr) {
    auto& registry = obs::MetricsRegistry::Global();
    registry
        .GetGauge(obs::LabeledName("bulk_dp/kernel_info",
                                   {{"isa", MinPlusIsaName(scratch.isa)}}))
        .Set(1);
    registry.RecordSpan("bulk_dp/leaf_init", p->Seconds(p->leaf_init_ticks),
                        p->leaf_rows);
    if (options.two_stage) {
      registry.RecordSpan("bulk_dp/temp_convolution",
                          p->Seconds(p->temp_convolution_ticks),
                          p->internal_rows);
      registry.RecordSpan("bulk_dp/suffix_sweep",
                          p->Seconds(p->suffix_sweep_ticks),
                          p->internal_rows);
    } else {
      registry.RecordSpan("bulk_dp/direct_scan",
                          p->Seconds(p->direct_scan_ticks), p->internal_rows);
    }
    registry.GetCounter("bulk_dp/runs").Increment();
    registry.GetCounter("bulk_dp/rows_computed")
        .Increment(p->leaf_rows + p->internal_rows);
    registry.GetCounter("bulk_dp/dense_cells").Increment(p->dense_cells);
  }
  return matrix;
}

Result<Cost> DpMatrix::OptimalCost(const BinaryTree& tree) const {
  const BinaryTree::Node& root = tree.node(BinaryTree::kRootId);
  if (root.count == 0) return Cost{0};
  const DpRow& row = rows[BinaryTree::kRootId];
  const Cost cost = row.CostAt(0, root.count);
  if (cost >= kInfiniteCost) {
    return Status::Infeasible("no complete k-summation configuration");
  }
  return cost;
}

}  // namespace pasa
