// The benchmark's three workloads. Each is a closed loop: one caller runs
// an op, waits for its decision, checks it, and runs the next. No message
// delay is injected, so latency is processor time plus syscalls.
//
//   sim_long_inputs  Pi_Z in the simulator, n=7, t=2 garbage senders,
//                    ell=2^21 exactly-ell-bit inputs: the paper's l*n regime.
//   engine_sharded   64 honest Pi_Z instances (n=7, t=2, ell=2^14) through
//                    the sharded engine at 3 workers; one batch is one op.
//   wire_uds         honest Pi_Z (n=7, t=2, ell=2^12) over an in-process
//                    daemon on one UDS connection, one session per op.
//
// A workload's seed changes input values, never the amount of work: every
// pool has a fixed shape (see make_workload), so rounds per agreement are
// identical across seeds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attribution.h"

namespace perfbench {

/// What a traced pass adds up, summed over its agreements.
struct LayerTotals {
  std::uint64_t agreements = 0;
  std::uint64_t rounds = 0;
  double wall_ns = 0;   // around each traced run, excluding session set-up
  double route_ns = 0;  // inside RoundRouter::route (wire only)
  Split split;
  std::map<std::string, std::uint64_t> phase_bits;  // leaf-charged bits
  std::uint64_t honest_messages = 0;
  std::uint64_t payload_copies = 0;

  void add(const Split& s);
};

/// One op's outcome: `error` is empty iff every agreement in it passed
/// Agreement, Convex Validity and matched its simulator reference.
struct OpResult {
  std::uint64_t agreements = 0;
  /// The op's own work, without its checks: for wire_uds, session open to
  /// session close.
  double latency_ns = 0;
  std::string error;
};

/// Readings a workload takes itself, over the untraced ops since
/// reset_counters().
struct LayerReadings {
  std::map<std::string, double> metrics;
  /// Untraced ms per agreement on the same path traced_op runs; 0 = the
  /// untraced pass's own mean.
  double untraced_ms_per_agreement = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the op on pool entry `i` (mod the pool size) and checks it.
  virtual OpResult op(std::size_t i) = 0;
  /// The same work with a timing tracer per agreement; adds to `totals`.
  virtual OpResult traced_op(std::size_t i, LayerTotals& totals) = 0;
  virtual void reset_counters() {}
  /// May run extra ops (the sharded engine's 1-worker baseline).
  virtual LayerReadings layer_readings() { return {}; }

  std::uint64_t agreements_per_op() const { return agreements_per_op_; }
  /// Digest of every generated input in the pool.
  std::uint64_t input_digest() const { return digest_; }
  /// Means over the pool's simulator references: exact for a seed.
  double bits_per_agreement() const { return bits_per_agreement_; }
  double rounds_per_agreement() const { return rounds_per_agreement_; }

 protected:
  std::uint64_t agreements_per_op_ = 1;
  std::uint64_t digest_ = 0;
  double bits_per_agreement_ = 0;
  double rounds_per_agreement_ = 0;
};

/// getrusage(`who`) readings: CPU times in ns, counts as counted.
struct Usage {
  double user_ns = 0;
  double sys_ns = 0;
  double minflt = 0;
  double nvcsw = 0;
  double nivcsw = 0;

  double busy_ns() const { return user_ns + sys_ns; }
};

Usage usage(int who);

const std::vector<std::string>& workload_names();

/// Set-up: generates the pool from `seed`, runs the simulator references,
/// starts the daemon and connects (wire_uds), and runs the warm-up ops.
/// Throws on an unknown name or a failed reference or warm-up.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
