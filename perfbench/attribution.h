// Self-time attribution: splits a traced run's round time over disjoint
// leaves that sum to it.
//
// A party's phase spans stay open across round barriers, so their wall
// duration includes every other party's slices and the engine's delivery
// work. Only the time inside the party's own slice spans is the party's:
// a span's self time is the part of its interval its party's slices cover,
// minus the same for its child spans. Slice time under no span at all is
// charged to kUnphased. Everything inside a round span but outside every
// slice is the round engine's (barrier, merge, transcript, observer, and
// the RoundRouter call, which the wire workload times separately).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

inline constexpr const char* kUnphased = "(unphased)";

/// A traced run's wall time outside every round span (network set-up, fiber
/// stacks, teardown, the caller's checks) may be at most this share of it;
/// beyond that the split no longer explains the run.
inline constexpr double kUnaccountedTolerance = 0.05;

/// One party's spans: phases and kernels from its party track, and the
/// slice spans from its slice track.
struct PartySpans {
  std::vector<coca::obs::SpanRecord> spans;
  std::vector<coca::obs::SpanRecord> slices;
};

struct RunSpans {
  std::vector<coca::obs::SpanRecord> rounds;  // the engine track
  std::vector<PartySpans> parties;
};

/// Groups a finished run's tracks by kind: "engine", "party" and the
/// matching "<label> slices" track.
RunSpans collect_spans(const coca::obs::Tracer& tracer);

struct Split {
  /// Self time per span name inside the owning party's slices, plus
  /// kUnphased. Sums to slice_ns when spans nest inside slices.
  std::map<std::string, double> self_ns;
  /// Closed spans per name.
  std::map<std::string, std::uint64_t> calls;
  double round_ns = 0;
  double slice_ns = 0;
  std::uint64_t slices = 0;
};

Split attribute(const RunSpans& run);

}  // namespace perfbench
