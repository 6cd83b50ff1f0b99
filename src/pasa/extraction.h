#ifndef PASA_PASA_EXTRACTION_H_
#define PASA_PASA_EXTRACTION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/binary_tree.h"
#include "model/cloaking.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/configuration.h"

namespace pasa {
namespace obs {
struct ProvenanceRecord;
}  // namespace obs

/// A concrete optimal policy materialized from a configuration matrix: the
/// configuration it realizes and the cloaking node of every snapshot row
/// ("exhibit in linear time one of the policies C represents", Section
/// IV-B). Row `r`'s cloak is that node's region,
/// `tree.node(assignment[r]).region`, read from the tree the policy was
/// extracted from.
struct ExtractedPolicy {
  Configuration config;
  std::vector<int32_t> assignment;  ///< cloaking tree node per snapshot row
  Cost cost = 0;

  /// Rows assigned to `node` of `tree` (the tree this policy was extracted
  /// from): the size of the anonymity group a sender cloaked there hides
  /// in, >= k for every node used. Derived from the configuration: the
  /// locations available at the node (d(m) at a leaf, C(m1) + C(m2) above)
  /// minus the C(m) it passes up.
  uint32_t GroupSize(const BinaryTree& tree, int32_t node) const;

  /// Materializes the per-row cloaks over `tree`, which must be the tree
  /// this policy was extracted from. For the callers that need a
  /// CloakingTable (auditors, the Section VI baselines, exports); serving
  /// reads the tree directly.
  CloakingTable Table(const BinaryTree& tree) const;

  /// Approximate heap bytes across the members (memory accounting,
  /// obs/mem.h).
  uint64_t ApproxBytes() const {
    return config.ApproxBytes() +
           static_cast<uint64_t>(assignment.capacity()) * sizeof(int32_t);
  }
};

/// Walks the matrix top-down picking minimum-cost entries (the paper's
/// retrieval step), then assigns concrete users to cloaking nodes bottom-up.
/// The choice of *which* C(m) locations a node cloaks is arbitrary by Lemma
/// 1; we pick deterministically in resident-row order.
Result<ExtractedPolicy> ExtractOptimalPolicy(const BinaryTree& tree,
                                             const DpMatrix& matrix, int k);

/// Brings `policy`, extracted from this tree and matrix before one
/// incremental repair, up to date with the repaired ones. `changed` lists
/// every node the repair changed: new nodes, nodes whose row or count
/// changed, and abandoned ones. The top-down pass revisits only the nodes
/// they reach; the pools are rebuilt in full (a leaf's row order changes
/// with any move through it). The result is identical to
/// ExtractOptimalPolicy on the repaired tree. On failure `policy` is partly
/// updated and must be discarded.
Status UpdateOptimalPolicy(const BinaryTree& tree, const DpMatrix& matrix,
                           int k, const std::vector<int32_t>& changed,
                           ExtractedPolicy* policy);

/// Records the cloak decision behind one request on `record`: its rid and
/// sender, k, the rectangle of cloaking node `node`, the node's place in
/// `tree`, the anonymity group it hides the sender in and C(node).
/// Allocates nothing: tree_path is a packed word, rendered only when the
/// record is serialized. The path walk reads one node per level, so it runs
/// only while the provenance ring, its one reader, is armed. Shared by
/// CspServer and Anonymizer, so every audit record describes a decision the
/// same way.
void AnnotateCloakDecision(const BinaryTree& tree,
                           const ExtractedPolicy& policy, int k, int32_t node,
                           int64_t rid, int64_t sender,
                           obs::ProvenanceRecord* record);

}  // namespace pasa

#endif  // PASA_PASA_EXTRACTION_H_
