#include "query/view.h"

#include <algorithm>

namespace delprop {

size_t View::AddMatch(const Tuple& values, Witness witness) {
  auto [it, inserted] = serial_by_values_.emplace(values, next_serial_);
  size_t index;
  if (inserted) {
    index = tuples_.size();
    ViewTuple vt;
    vt.values = values;
    tuples_.push_back(std::move(vt));
    serials_.push_back(next_serial_++);
  } else {
    index = PositionOf(it->second);
  }
  std::vector<Witness>& witnesses = tuples_[index].witnesses;
  if (std::find(witnesses.begin(), witnesses.end(), witness) ==
      witnesses.end()) {
    witnesses.push_back(std::move(witness));
  }
  return index;
}

size_t View::PositionOf(uint32_t serial) const {
  return static_cast<size_t>(
      std::lower_bound(serials_.begin(), serials_.end(), serial) -
      serials_.begin());
}

void View::RemoveTuples(const std::vector<size_t>& sorted_indices) {
  if (sorted_indices.empty()) return;
  for (size_t index : sorted_indices) {
    serial_by_values_.erase(tuples_[index].values);
  }
  // Tuples before the first removed one keep their positions.
  size_t next_removed = 0;
  size_t write = sorted_indices.front();
  for (size_t read = write; read < tuples_.size(); ++read) {
    if (next_removed < sorted_indices.size() &&
        sorted_indices[next_removed] == read) {
      ++next_removed;
      continue;
    }
    if (write != read) {
      tuples_[write] = std::move(tuples_[read]);
      serials_[write] = serials_[read];
    }
    ++write;
  }
  tuples_.resize(write);
  serials_.resize(write);
}

std::optional<size_t> View::Find(const Tuple& values) const {
  auto it = serial_by_values_.find(values);
  if (it == serial_by_values_.end()) return std::nullopt;
  return PositionOf(it->second);
}

bool View::Survives(size_t index, const DeletionSet& deletion) const {
  for (const Witness& witness : tuples_[index].witnesses) {
    bool hit = false;
    for (const TupleRef& ref : witness) {
      if (deletion.Contains(ref)) {
        hit = true;
        break;
      }
    }
    if (!hit) return true;
  }
  return false;
}

std::string View::RenderTuple(size_t index) const {
  const ValueDictionary& dict = database_->dict();
  std::string out = query_->name();
  out += '(';
  const Tuple& values = tuples_[index].values;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += dict.Text(values[i]);
  }
  out += ')';
  return out;
}

}  // namespace delprop
