#include "attribution.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {
namespace {

using coca::obs::SpanRecord;

/// Sorted, disjoint intervals with prefix sums, answering "how much of
/// [a, b) do they cover" in O(log n).
class Coverage {
 public:
  explicit Coverage(const std::vector<SpanRecord>& slices) {
    for (const SpanRecord& s : slices) {
      starts_.push_back(s.start_ns);
      ends_.push_back(s.start_ns + s.dur_ns);
    }
    for (std::size_t i = 1; i < starts_.size(); ++i) {
      if (starts_[i] < ends_[i - 1]) {
        throw std::runtime_error("attribution: overlapping slices");
      }
    }
    prefix_.assign(1, 0);
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      prefix_.push_back(prefix_.back() + (ends_[i] - starts_[i]));
    }
  }

  std::uint64_t total() const { return prefix_.back(); }

  std::uint64_t covered(std::uint64_t a, std::uint64_t b) const {
    // First slice ending after a, last slice starting before b.
    const auto i = static_cast<std::size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), a) - ends_.begin());
    const auto j_end = static_cast<std::size_t>(
        std::lower_bound(starts_.begin(), starts_.end(), b) - starts_.begin());
    if (i >= j_end) return 0;
    const std::size_t j = j_end - 1;
    std::uint64_t sum = prefix_[j + 1] - prefix_[i];
    if (a > starts_[i]) sum -= a - starts_[i];
    if (ends_[j] > b) sum -= ends_[j] - b;
    return sum;
  }

 private:
  std::vector<std::uint64_t> starts_;
  std::vector<std::uint64_t> ends_;
  std::vector<std::uint64_t> prefix_;
};

}  // namespace

RunSpans collect_spans(const coca::obs::Tracer& tracer) {
  RunSpans run;
  std::map<std::string, std::size_t> party_of_label;
  const auto n = static_cast<int>(tracer.track_count());
  for (int t = 0; t < n; ++t) {
    const std::string& kind = tracer.track_kind(t);
    if (kind == "engine") {
      run.rounds = tracer.spans(t);
    } else if (kind == "party") {
      party_of_label[tracer.track_label(t)] = run.parties.size();
      run.parties.push_back({tracer.spans(t), {}});
    }
  }
  const std::string suffix = " slices";
  for (int t = 0; t < n; ++t) {
    if (tracer.track_kind(t) != "slices") continue;
    std::string label = tracer.track_label(t);
    if (label.size() < suffix.size()) continue;
    label.resize(label.size() - suffix.size());
    const auto it = party_of_label.find(label);
    if (it == party_of_label.end()) {
      throw std::runtime_error("attribution: slice track without party: " +
                               tracer.track_label(t));
    }
    run.parties[it->second].slices = tracer.spans(t);
  }
  return run;
}

Split attribute(const RunSpans& run) {
  Split split;
  for (const SpanRecord& r : run.rounds) {
    split.round_ns += static_cast<double>(r.dur_ns);
  }
  for (const PartySpans& p : run.parties) {
    const Coverage cover(p.slices);
    split.slice_ns += static_cast<double>(cover.total());
    split.slices += p.slices.size();
    std::vector<std::uint64_t> inside(p.spans.size());
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
      const SpanRecord& s = p.spans[i];
      inside[i] = cover.covered(s.start_ns, s.start_ns + s.dur_ns);
    }
    std::vector<double> self(inside.begin(), inside.end());
    std::uint64_t top_level = 0;
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
      const std::int64_t parent = p.spans[i].parent;
      if (parent < 0) {
        top_level += inside[i];
      } else {
        self[static_cast<std::size_t>(parent)] -=
            static_cast<double>(inside[i]);
      }
    }
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
      split.self_ns[p.spans[i].name] += self[i];
      ++split.calls[p.spans[i].name];
    }
    split.self_ns[kUnphased] += static_cast<double>(cover.total() - top_level);
  }
  return split;
}

}  // namespace perfbench
