#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() {
  // Preallocated so recording a span never reallocates mid-job.
  spans_.reserve(1 << 20);
  open_.reserve(64);
}

uint32_t Tracer::Name(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(uint32_t name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.request = request;
  span.probe = probe_;
  uint32_t index = static_cast<uint32_t>(spans_.size());
  open_.push_back(index);
  spans_.push_back(span);
  spans_.back().start = Clock::now();
  return index;
}

void Tracer::End(uint32_t span) {
  spans_[span].end = Clock::now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> job;
  std::vector<double> probe;
  for (const Span& span : spans_) {
    if (names_[span.name] != name) continue;
    (span.probe ? probe : job).push_back(span.ms());
  }
  return job.empty() ? probe : job;
}

double Tracer::JobTotalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (!span.probe && names_[span.name] == name) total += span.ms();
  }
  return total;
}

double Tracer::ChildrenMs(uint32_t span) const {
  double total = 0.0;
  for (uint32_t i = span + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == span) total += spans_[i].ms();
  }
  return total;
}

double Tracer::JobChildrenMs(const std::string& parent) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (!span.probe && span.parent != kNoParent &&
        names_[spans_[span.parent].name] == parent) {
      total += span.ms();
    }
  }
  return total;
}

std::map<std::string, double> Tracer::SelfTimes(uint32_t root) const {
  // Spans are stored in open order, so a child always follows its parent:
  // one forward pass marks the subtree, a second charges each span's
  // duration to itself and debits it from its parent.
  std::vector<char> in_tree(spans_.size(), 0);
  in_tree[root] = 1;
  for (uint32_t i = root + 1; i < spans_.size(); ++i) {
    uint32_t parent = spans_[i].parent;
    if (parent != kNoParent && in_tree[parent]) in_tree[i] = 1;
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (uint32_t i = root; i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    self[i] += spans_[i].ms();
    if (i != root) self[spans_[i].parent] -= spans_[i].ms();
  }
  std::map<std::string, double> by_name;
  for (uint32_t i = root; i < spans_.size(); ++i) {
    if (in_tree[i]) by_name[names_[spans_[i].name]] += self[i];
  }
  return by_name;
}

Status Tracer::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(out, "# span\tname\tparent\trequest\tprobe\tstart_us\tend_us\n");
  Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    long parent = span.parent == kNoParent ? -1 : static_cast<long>(span.parent);
    std::fprintf(out, "%zu\t%s\t%ld\t%llu\t%d\t%.3f\t%.3f\n", i,
                 names_[span.name].c_str(), parent,
                 static_cast<unsigned long long>(span.request),
                 span.probe ? 1 : 0, MsBetween(origin, span.start) * 1000.0,
                 MsBetween(origin, span.end) * 1000.0);
  }
  if (std::fclose(out) != 0) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

}  // namespace perfbench
