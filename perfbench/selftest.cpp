// The benchmark's own tests: self-time attribution on hand-built spans,
// seed independence of every workload's shape, and one real traced run
// per workload whose leaves must sum to its wall time.
#include <cmath>
#include <iostream>
#include <string>

#include "attribution.h"
#include "workloads.h"

namespace perfbench {
namespace {

using coca::obs::SpanRecord;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-6; }

SpanRecord span(const char* name, std::uint64_t start, std::uint64_t end,
                std::int64_t parent = -1) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.dur_ns = end - start;
  s.parent = parent;
  return s;
}

/// Two rounds, [0,100) and [100,200). Party 0 runs PiZ across the barrier
/// with FindPrefix nested inside and an RS encode inside that; its last
/// slice runs after PiZ closed. Party 1's only slice has no span open.
void hand_built_spans() {
  RunSpans run;
  run.rounds = {span("round 0", 0, 100), span("round 1", 100, 200)};
  PartySpans p0;
  p0.slices = {span("slice", 10, 40), span("slice", 110, 150),
               span("slice", 192, 198)};
  p0.spans = {span("PiZ", 5, 190), span("FindPrefix", 20, 130, 0),
              span("rs.encode", 25, 35, 1)};
  PartySpans p1;
  p1.slices = {span("slice", 50, 90)};
  run.parties = {p0, p1};

  const Split s = attribute(run);
  // PiZ covers 30 + 40 of party 0's slices; FindPrefix 20 + 20 of that;
  // the kernel 10 of FindPrefix. Gaps between slices count for nobody.
  expect(near(s.self_ns.at("PiZ"), 30), "nested phase self time");
  expect(near(s.self_ns.at("FindPrefix"), 30), "phase across a barrier");
  expect(near(s.self_ns.at("rs.encode"), 10), "kernel inside a slice");
  expect(near(s.self_ns.at(kUnphased), 6 + 40), "slices outside any phase");
  expect(near(s.slice_ns, 116) && s.slices == 4, "slice totals");
  expect(near(s.round_ns, 200), "round total");
  double leaves = 0;
  for (const auto& [name, ns] : s.self_ns) leaves += ns;
  expect(near(leaves, s.slice_ns), "leaves sum to slice time");
  expect(s.calls.at("rs.encode") == 1 && s.calls.at("PiZ") == 1,
         "span calls");
}

void seed_independence(const std::string& name) {
  const auto a = make_workload(name, 1);
  const auto b = make_workload(name, 2);
  expect(a->input_digest() != b->input_digest(),
         name + ": seeds 1 and 2 give different inputs");
  expect(a->rounds_per_agreement() == b->rounds_per_agreement(),
         name + ": identical rounds_per_agreement (" +
             std::to_string(a->rounds_per_agreement()) + ")");
  const double bits_a = a->bits_per_agreement();
  const double bits_b = b->bits_per_agreement();
  const double tolerance = name == "engine_sharded" ? 0.01 : 0.0;
  expect(std::fabs(bits_a - bits_b) <= tolerance * bits_a,
         name + ": honest_bits_per_agreement " + std::to_string(bits_a) +
             " vs " + std::to_string(bits_b));
}

void traced_run(const std::string& name) {
  const auto w = make_workload(name, 3);
  LayerTotals t;
  const OpResult r = w->traced_op(0, t);
  expect(r.error.empty() && t.agreements == r.agreements,
         name + ": traced op passes its checks");
  double self = 0;
  for (const auto& [span_name, ns] : t.split.self_ns) self += ns;
  expect(std::fabs(self - t.split.slice_ns) <= 1e-9 * t.split.slice_ns,
         name + ": phase and kernel leaves sum to slice time");
  const double engine_ns = t.split.round_ns - t.split.slice_ns - t.route_ns;
  expect(engine_ns >= 0, name + ": round-engine leaf is non-negative");
  const double unaccounted = t.wall_ns - t.split.round_ns;
  expect(unaccounted >= 0 && unaccounted <= kUnaccountedTolerance * t.wall_ns,
         name + ": leaves sum to traced wall time within " +
             std::to_string(kUnaccountedTolerance * 100) + "% (outside: " +
             std::to_string(100 * unaccounted / t.wall_ns) + "%)");
  expect(t.split.calls.count("rs.encode") != 0, name + ": kernels traced");
  if (name == "wire_uds") expect(t.route_ns > 0, name + ": routes timed");
}

}  // namespace

int run_selftest() {
  hand_built_spans();
  for (const std::string& name : workload_names()) {
    seed_independence(name);
    traced_run(name);
  }
  std::cout << (failures == 0 ? "selftest: all passed"
                              : "selftest: " + std::to_string(failures) +
                                    " failed")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
