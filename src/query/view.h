#ifndef DELPROP_QUERY_VIEW_H_
#define DELPROP_QUERY_VIEW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "relational/database.h"
#include "relational/deletion_set.h"
#include "query/conjunctive_query.h"

namespace delprop {

/// One witness (the paper's match μ restricted to base tuples): the base
/// tuple matched by each body atom, in atom order.
using Witness = std::vector<TupleRef>;

/// One answer tuple of a materialized view together with its why-provenance.
/// For key-preserving queries each view tuple has exactly one witness — the
/// structural property all of the paper's algorithms rely on.
struct ViewTuple {
  /// The head values μ(y1), ..., μ(yq).
  Tuple values;
  /// All witnesses producing these head values (deduplicated).
  std::vector<Witness> witnesses;
};

/// A materialized query result Q(D) with lineage.
///
/// Tuples are addressed two ways. A *position* (`index` below) is the
/// tuple's place in the view; positions are dense and shift down when
/// RemoveTuples compacts earlier tuples away. A *serial* is assigned once,
/// when AddMatch creates the tuple, and never changes: serials ascend with
/// position, so serial -> position is a binary search, and structures keyed
/// by serial (the head-value index here, VseInstance's kill map) survive a
/// compaction without being rewritten.
class View {
 public:
  View(const ConjunctiveQuery* query, const Database* database)
      : query_(query), database_(database) {}

  /// Adds a witness for head values `values`, creating the view tuple if new.
  /// Returns the view-tuple index.
  size_t AddMatch(const Tuple& values, Witness witness);

  /// Index of the view tuple with head `values`, if present.
  std::optional<size_t> Find(const Tuple& values) const;

  /// Stable serial of the tuple at position `index`.
  uint32_t serial(size_t index) const { return serials_[index]; }

  /// Position of the tuple with serial `serial`, which must still be in the
  /// view (O(log size)).
  size_t PositionOf(uint32_t serial) const;

  /// In-place witness list of tuple `index` — for VseInstance::ApplyDelta's
  /// incremental maintenance only. Callers must leave the list non-empty or
  /// remove the emptied tuple via RemoveTuples before anything else reads
  /// the view.
  std::vector<Witness>& MutableWitnesses(size_t index) {
    return tuples_[index].witnesses;
  }

  /// Removes the tuples at `sorted_indices` (ascending, distinct), compacting
  /// the survivors in order. Preserving the survivors' relative order keeps
  /// dense-id iteration — and every solver tie-break derived from it —
  /// deterministic across deltas. The head-value index is keyed on serials,
  /// so only the removed tuples' entries are touched.
  void RemoveTuples(const std::vector<size_t>& sorted_indices);

  /// True if view tuple `index` survives deleting `deletion` from the source:
  /// some witness is disjoint from the deletion set.
  bool Survives(size_t index, const DeletionSet& deletion) const;

  /// Renders view tuple `index` as "Q(a, b)".
  std::string RenderTuple(size_t index) const;

  const ConjunctiveQuery& query() const { return *query_; }
  const Database& database() const { return *database_; }
  const ViewTuple& tuple(size_t index) const { return tuples_[index]; }
  size_t size() const { return tuples_.size(); }

 private:
  const ConjunctiveQuery* query_;
  const Database* database_;
  std::vector<ViewTuple> tuples_;
  std::vector<uint32_t> serials_;  // parallel to tuples_, ascending
  // A view would need 2^32 tuple creations in its lifetime to wrap this.
  uint32_t next_serial_ = 0;
  std::unordered_map<Tuple, uint32_t, VectorHash<ValueId>> serial_by_values_;
};

}  // namespace delprop

#endif  // DELPROP_QUERY_VIEW_H_
