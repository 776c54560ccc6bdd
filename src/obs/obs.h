// Structured tracing & metrics: the observability substrate.
//
// The paper's headline claim is a communication *budget* -- O(ln +
// k n^2 log^2 n) honest bits split across distinct protocol phases -- and
// this module is what turns each term of that formula into an attributable
// measurement. A `Tracer` collects *spans* (named, nested intervals opened
// around protocol phases, engine rounds, party slices, and compute
// kernels) and *metrics* (named counters and log2 histograms), organized
// into *tracks*: one per execution context (the engine controller, every
// protocol-running party, plus a per-party slice track). Exporters in
// obs/export.h turn one run's tracer into a Chrome/Perfetto timeline, a
// flat `coca-metrics-v1` JSON, or a plain-text round table.
//
// Concurrency & determinism contract:
//  * Tracks are registered before the run starts (single-threaded setup).
//  * After registration, a track is written only by its own execution
//    context -- the engine guarantees a runner's spans/counters are touched
//    only while that runner computes -- so no locks are taken anywhere.
//  * Per-track span sequences follow protocol program order, which the
//    round engine fixes; everything except wall-clock timestamps is
//    therefore bit-identical from run to run (tests/test_obs.cpp pins
//    this).
//  * With `Options::timing == false` no clock is ever read and every ns
//    field is 0: the canonical mode the determinism test compares in.
//
// Zero-overhead-when-disabled: protocols and the engine check one pointer
// (`SyncNetwork`'s tracer, or the thread-local scope below) before doing
// any tracing work. Hot compute kernels MUST use the `COCA_OBS_SPAN` macro
// -- a single thread-local load and branch when tracing is off -- and
// never call the Tracer API directly (CI greps for violations).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace coca::obs {

/// Log2 histogram: bucket i counts observations v with 2^(i-1) < v <= 2^i
/// (bucket 0 counts v == 0). Fixed size, trivially mergeable.
struct Histogram {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void observe(std::uint64_t value);
  void merge(const Histogram& other);
};

/// Named counters and histograms. One registry per track; written only by
/// the track's own execution context, merged single-threaded at export.
class MetricsRegistry {
 public:
  void count(std::string_view name, std::uint64_t delta);
  void observe(std::string_view name, std::uint64_t value);

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  void merge(const MetricsRegistry& other);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// One closed span. `parent` indexes the enclosing span on the same track
/// (-1 = top level); bytes/messages are *leaf-charged*: a charge lands on
/// the innermost span open at charge time only, so sums over any track are
/// exact, never double counted. Exporters reconstruct inclusive (subtree)
/// totals from the parent links.
struct SpanRecord {
  std::string name;
  std::string cat;
  std::uint64_t round = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::int64_t parent = -1;
};

class Tracer {
 public:
  struct Options {
    /// Read the monotonic clock for span timestamps. Off = canonical mode:
    /// every ns field is 0 and the trace is schedule-deterministic.
    bool timing = true;
  };

  Tracer();
  explicit Tracer(Options options);

  bool timing_enabled() const { return options_.timing; }
  /// Monotonic ns since tracer construction (0 in canonical mode).
  std::uint64_t now_ns() const;

  /// Registers a track (pre-run, single-threaded). `kind` is a coarse
  /// grouping for exporters ("engine", "party", "slices"); `honest` marks
  /// tracks whose charges count toward the paper's BITS_l measure.
  int add_track(std::string label, std::string kind, bool honest);
  std::size_t track_count() const { return tracks_.size(); }
  const std::string& track_label(int track) const;
  const std::string& track_kind(int track) const;
  bool track_honest(int track) const;

  // --- Span lifecycle. Called only from the track's own execution context.
  void begin(int track, std::string name, std::string cat,
             std::uint64_t round);
  /// Closes the innermost open span on `track`.
  void end(int track);
  /// Charges bytes/messages to the innermost open span on `track` (or to
  /// the track's unattributed bucket when none is open).
  void charge(int track, std::uint64_t bytes, std::uint64_t messages);

  // --- Metrics (same single-writer-per-track rule).
  void count(int track, std::string_view name, std::uint64_t delta);
  void observe(int track, std::string_view name, std::uint64_t value);

  // --- Post-run queries (all contexts quiesced; open spans are ignored).
  const std::vector<SpanRecord>& spans(int track) const;
  std::uint64_t unattributed_bytes(int track) const;

  /// Bytes per span name with *inclusive* (subtree) semantics over honest
  /// tracks: a charge counts toward its span's name and every ancestor's.
  /// This is the accounting `RunStats::honest_bytes_by_phase` uses, now
  /// derived from real span data.
  std::map<std::string, std::uint64_t> inclusive_bytes_by_name() const;

  /// Merged metrics over all tracks (deterministic: tracks merge in
  /// registration order, names are sorted).
  MetricsRegistry merged_metrics() const;

  /// Per-(track, cat) span rollup, in track order then first-seen cat
  /// order: {count, bytes, messages, wall_ns}.
  struct CatRollup {
    int track = 0;
    std::string cat;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t wall_ns = 0;
  };
  std::vector<CatRollup> rollup_by_cat() const;

 private:
  struct Track {
    std::string label;
    std::string kind;
    bool honest = false;
    std::vector<SpanRecord> spans;
    std::vector<std::size_t> open;  // indices of open spans, innermost last
    std::uint64_t unattributed_bytes = 0;
    MetricsRegistry metrics;
  };

  Track& track_at(int track);
  const Track& track_at(int track) const;

  Options options_;
  std::uint64_t t0_ns_ = 0;
  // unique_ptr: track addresses stay stable; the vector itself is only
  // touched during pre-run registration.
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// Merged metrics across many tracers (deterministic: tracers merge in
/// list order, each contributing its own merged_metrics()). The sharded
/// engine uses this to fold per-instance tracers into one aggregate
/// registry in canonical instance order; null entries are skipped.
MetricsRegistry merged_metrics_over(std::span<const Tracer* const> tracers);

/// Thread-local tracing scope: which tracer/track (if any) the *current
/// thread's* protocol code should attribute kernel spans to. The round
/// engine installs it around every party slice; everywhere else it is
/// null and `COCA_OBS_SPAN` costs one load and one branch.
struct ThreadScope {
  Tracer* tracer = nullptr;
  int track = -1;
  std::uint64_t round = 0;
};

ThreadScope& thread_scope();

/// RAII guard behind COCA_OBS_SPAN. Snapshots the thread scope at
/// construction so a scope change mid-span cannot unbalance the stack.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat) {
    const ThreadScope& s = thread_scope();
    if (s.tracer != nullptr) {
      tracer_ = s.tracer;
      track_ = s.track;
      tracer_->begin(track_, name, cat, s.round);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(track_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  int track_ = -1;
};

}  // namespace coca::obs

// The ONLY sanctioned way to trace a hot path (compute kernels: RS
// encode/decode, Merkle build/verify). Compiles to a thread-local load and
// a branch when tracing is off; CI's macro-discipline check greps
// src/codec and src/crypto for direct Tracer usage.
#define COCA_OBS_SPAN_CONCAT2(a, b) a##b
#define COCA_OBS_SPAN_CONCAT(a, b) COCA_OBS_SPAN_CONCAT2(a, b)
#define COCA_OBS_SPAN(name, cat)                        \
  ::coca::obs::ScopedSpan COCA_OBS_SPAN_CONCAT(         \
      coca_obs_span_, __COUNTER__) {                    \
    (name), (cat)                                       \
  }
