#ifndef DELPROP_DP_BASE_DELTA_H_
#define DELPROP_DP_BASE_DELTA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"
#include "query/view.h"
#include "relational/database.h"
#include "relational/deletion_set.h"

namespace delprop {

/// One base-tuple insertion of a BaseDelta: a pre-interned tuple destined
/// for `relation`. Use Database::dict() to intern text values first.
struct BaseInsert {
  RelationId relation = 0;
  Tuple tuple;
};

/// A batch of live base-data changes, applied atomically by
/// VseInstance::ApplyDelta. Inserted rows are physically appended to the
/// database; deleted rows join the instance's base mask (row indices stay
/// stable, matching the repo-wide logical-deletion contract). Deletes are
/// validated against the pre-delta database, so a row inserted by this same
/// delta cannot also be deleted by it.
struct BaseDelta {
  std::vector<BaseInsert> inserts;
  std::vector<TupleRef> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
};

/// Knobs for VseInstance::ApplyDelta.
struct ApplyDeltaOptions {
  /// Reject — with InvalidArgument naming the relation/row — any delete of a
  /// base row that still occurs in a witness of a live view tuple. For
  /// callers doing pure base-table cleanup who want proof the views are
  /// untouched; off by default because removing view tuples is the point of
  /// deletion propagation.
  bool forbid_witnessed_deletes = false;
  /// Patch-vs-rebuild threshold: the compiled PlanCore is spliced from the
  /// previous core while (removed + added) witnesses stay within this
  /// fraction of the old witness count; larger deltas drop the core and the
  /// next compiled() pays a counted full rebuild instead.
  double patch_threshold = 0.5;
};

/// What one ApplyDelta did: the size of the induced view delta and which
/// plan-maintenance path ran.
struct ApplyDeltaReport {
  size_t view_tuples_added = 0;
  size_t view_tuples_removed = 0;
  size_t witnesses_added = 0;
  size_t witnesses_removed = 0;
  /// Candidate rows the insert join (internal::CollectDeltaMatches) tested,
  /// summed over the views — a deterministic measure of its work.
  size_t delta_rows_examined = 0;
  /// Base rows (occurrence + kill) the core patch re-derived instead of
  /// copying: the distinct bases of removed and appended witnesses and of
  /// every witness of a tuple whose witness list changed, including bases
  /// that leave the core. 0 unless core_patched — a deterministic measure
  /// of the patch's non-copy work.
  size_t core_rows_rederived = 0;
  bool core_patched = false;  // PlanCore spliced from the previous core
  bool core_rebuilt = false;  // threshold exceeded: core dropped for rebuild
};

namespace internal {

/// Appends every (head values, witness) match of `query` over D \ mask whose
/// witness uses at least one row with index ≥ first_new_row[relation] — i.e.
/// exactly the matches created by appending those rows. Each new witness is
/// emitted once by the canonical first-new-atom decomposition: the earliest
/// atom bound to a new row is the pivot, atoms before it range over old rows
/// only, atoms after it over every live row.
///
/// The join is pivot-first: per pivot atom the pivot is placed first, then
/// the rest in the evaluator's greedy order (GreedyAtomOrder). An atom whose
/// key positions are all bound by earlier atoms is probed with one
/// Relation::FindByKey; any other atom is range-scanned. When every atom
/// after the pivot is reached through its key (a leaf insert on a
/// parent-key chain walks up the parents), a one-row insert costs one probe
/// per atom, whatever the database size.
///
/// Output order: pivot atoms in body order, pivot rows ascending, and each
/// pivot row's matches sorted by witness (atom-ordered TupleRefs) — the order
/// a body-order backtracking scan emits, so view-tuple numbering does not
/// depend on the join order. `first_new_row` must have one entry per
/// relation. If `rows_examined` is non-null, the number of candidate rows the
/// join tested (pivot rows included) is added to it.
Status CollectDeltaMatches(const Database& database,
                           const ConjunctiveQuery& query,
                           const DeletionSet& mask,
                           const std::vector<uint32_t>& first_new_row,
                           std::vector<std::pair<Tuple, Witness>>* out,
                           size_t* rows_examined = nullptr);

}  // namespace internal
}  // namespace delprop

#endif  // DELPROP_DP_BASE_DELTA_H_
