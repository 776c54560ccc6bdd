// Instance-sharded execution engine: many concurrent CA/BA instances over
// a fixed pool of worker threads.
//
// The production shape the ROADMAP aims at multiplexes thousands of
// agreement instances (one per key/shard) over shared workers; the paper's
// per-instance bit/round guarantees only survive that multiplexing if each
// instance's execution is untouched by its neighbors. This engine makes
// that an invariant rather than a hope:
//
//  * Sharding. K instances are dealt round-robin over W workers
//    (instance i runs on worker i % W). Each worker runs its instances
//    sequentially, each on its own private SyncNetwork -- no protocol
//    state, RNG stream, or payload buffer is shared between instances.
//  * Lanes. Each instance owns a lock-free SPSC ring (spsc_ring.h). The
//    worker is the lane's only producer: a net::RoundObserver pushes one
//    RoundEvent per delivered round from the instance's controller
//    context. The collector (the calling thread) is the only consumer.
//  * Canonical merge order. The collector drains lanes strictly in
//    instance order 0..K-1 every sweep, and all cross-instance aggregates
//    (bytes-by-round, merged metrics) are commutative folds -- so every
//    report field except wall-clock time is independent of worker count
//    and interleaving.
//
// Headline invariant (tier-1 asserted across worker counts {1, 2, 8}):
// every instance's transcript, RunStats, and phase_breakdown are
// bit-identical to the same case run alone on a single SyncNetwork.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/fuzzer.h"
#include "obs/obs.h"

namespace coca::engine {

struct EngineOptions {
  /// Worker threads (clamped to the instance count; >= 1).
  int workers = 1;
  /// Per-lane ring capacity in RoundEvents; producers yield when full.
  std::size_t lane_capacity = 256;
  /// Record each instance's canonical transcript (the equivalence gate).
  bool record_transcripts = true;
  /// Attach a per-instance canonical-mode Tracer (timing off) and fold the
  /// registries into EngineReport::metrics in instance order.
  bool trace = false;
};

/// Always zero. Kept only because the perfbench harness reads these fields;
/// remove them with the harness's next revision.
struct KernelBatchStats {
  std::uint64_t flushes = 0;
  std::uint64_t rs_calls = 0;
  std::uint64_t merkle_calls = 0;
};

/// One delivered round, streamed over an instance's lane while the
/// instance still runs.
struct RoundEvent {
  std::uint32_t instance = 0;
  std::uint32_t round = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  /// Lane terminator: the instance finished (outcome published); no
  /// further events follow on this lane.
  bool done = false;
};

struct InstanceResult {
  adv::FuzzOutcome outcome;
  net::Transcript transcript;  // empty unless record_transcripts
  int worker = -1;             // which worker ran it
  /// Rounds the collector observed live over the lane; equals
  /// outcome.stats.rounds minus the trailing leftover-only flush (the
  /// observer reports merged rounds only, see net::RoundObserver).
  std::uint64_t rounds_streamed = 0;
};

struct EngineReport {
  std::vector<InstanceResult> instances;  // indexed like the input cases
  // Aggregates over all instances (from the authoritative RunStats, not
  // the streamed events; commutative sums, so worker-count independent).
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t rounds = 0;
  /// Live-streamed cross-instance view: honest bytes per round index,
  /// folded from the lane events in canonical drain order.
  std::vector<std::uint64_t> honest_bytes_by_round;
  /// Folded per-instance metrics in instance order (empty unless trace).
  obs::MetricsRegistry metrics;
  KernelBatchStats kernel_batch;  // always zero, see KernelBatchStats
  double seconds = 0.0;  // wall clock, the only schedule-dependent field
};

class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Runs every case to completion and returns the per-instance results
  /// plus cross-instance aggregates. Cases are validated up front (throws
  /// Error on a malformed one before any instance starts).
  EngineReport run(const std::vector<adv::FuzzCase>& cases);

 private:
  EngineOptions options_;
};

// ---------------------------------------------------------------------------
// Cross-instance isolation: the sharded fuzz target.

struct ShardedCaseOptions {
  int instances = 4;  // total instances incl. the victim (>= 2)
  int workers = 2;
  /// Seed for deriving the honest neighbors' input seeds.
  std::uint64_t neighbor_seed = 1;
};

/// Verdict of one sharded isolation check: the victim's own oracle verdict
/// plus any cross-instance leaks (a neighbor whose transcript, stats, or
/// verdict differs from its solo run).
struct IsolationReport {
  adv::FuzzVerdict victim;
  std::vector<std::string> violations;  // isolation breaches only
  bool ok() const { return violations.empty(); }
};

/// Runs `victim` inside a sharded engine surrounded by honest neighbor
/// instances (same protocol/n/ell, derived seeds, no corruption, no
/// faults), and checks every neighbor against its own solo SyncNetwork run:
/// transcript, honest_bytes/messages/rounds, payload_copies/bytes_copied,
/// phase_breakdown, and oracle violations must all be bit-identical.
/// Equality-based on purpose: it stays two-sided-correct even on builds
/// (e.g. COCA_CANARY_BUG) where the solo baseline itself fails the oracle.
IsolationReport check_isolation(const adv::FuzzCase& victim,
                                const ShardedCaseOptions& options);

}  // namespace coca::engine
