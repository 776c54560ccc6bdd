// coca_perfbench: runs one workload for a fixed time and prints its
// metrics as one JSON line (the last line of stdout), preceded by a meta
// line.
//
//   coca_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA]
//   coca_perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// split instead: half the time untraced (OS cost, transport and engine
// readings), half with a timing tracer per agreement (self time per
// phase and kernel). Exits 1 if any op failed its checks, 2 on bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attribution.h"
#include "net/sync_network.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kProbeSeconds = 1.0;

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Name and unit of every end-to-end metric, in print order.
const MetricList& end_to_end_metrics() {
  static const MetricList m = {
      {"latency_mean_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"agreements_per_s", "1/s"},
      {"honest_bits_per_agreement", "bit"},
      {"rounds_per_agreement", "count"},
      {"success_rate", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<std::string>& ca_phases() {
  static const std::vector<std::string> p = {
      "piz",        "pin",     "find_prefix",  "find_prefix_blocks",
      "fixed_length_ca", "fixed_length_ca_blocks", "add_last_block",
      "get_output", "high_cost_ca", "unphased", "other"};
  return p;
}

const std::vector<std::string>& ba_phases() {
  static const std::vector<std::string> p = {
      "ba_plus", "long_ba_plus", "long_ba_plus.distribute",
      "long_ba_plus.root-agreement"};
  return p;
}

const std::vector<std::string>& kernels() {
  static const std::vector<std::string> k = {
      "codec.rs_encode", "codec.rs_decode", "crypto.merkle_build",
      "crypto.merkle_verify"};
  return k;
}

/// Name and unit of every per-layer metric, in print order.
MetricList per_layer_metrics() {
  MetricList m = {
      {"net.round_overhead_ms", "ms"},
      {"net.round_overhead_us_per_round", "us"},
      {"net.slices_per_agreement", "count"},
      {"net.honest_messages_per_agreement", "count"},
      {"net.payload_copies_per_agreement", "count"},
  };
  for (const std::string& p : ca_phases()) {
    m.push_back({"ca." + p + ".self_ms", "ms"});
    m.push_back({"ca." + p + ".bits", "bit"});
  }
  for (const std::string& p : ba_phases()) {
    m.push_back({"ba." + p + ".self_ms", "ms"});
    m.push_back({"ba." + p + ".bits", "bit"});
  }
  for (const std::string& k : kernels()) {
    m.push_back({k + ".ms", "ms"});
    m.push_back({k + ".calls", "count"});
  }
  const MetricList rest = {
      {"engine.speedup_vs_1_worker", "x"},
      {"engine.worker_idle_frac", "ratio"},
      {"engine.kernel_batch.flushes", "count"},
      {"engine.kernel_batch.calls_per_flush", "count"},
      {"svc.open_ms", "ms"},
      {"svc.route_us_p50", "us"},
      {"svc.route_us_p90", "us"},
      {"svc.route_share", "ratio"},
      {"svc.frames_per_round", "count"},
      {"svc.bytes_per_round", "B"},
      {"svc.wire_copies_per_round", "count"},
      {"net.pool_slab_allocs_per_round", "count"},
      {"proc.cpu_ms_per_agreement", "ms"},
      {"proc.sys_cpu_share", "ratio"},
      {"proc.minor_faults_per_agreement", "count"},
      {"proc.vol_ctx_switches_per_agreement", "count"},
      {"proc.invol_ctx_switches_per_agreement", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"trace.unaccounted_ms", "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Metric prefix of a span or phase name: phases map to ca./ba., kernels
/// to codec./crypto.; any other phase is ca.other.
std::string layer_key(const std::string& name) {
  static const std::map<std::string, std::string> keys = {
      {"PiZ", "ca.piz"},
      {"PiN", "ca.pin"},
      {"FindPrefix", "ca.find_prefix"},
      {"FindPrefixBlocks", "ca.find_prefix_blocks"},
      {"FixedLengthCA", "ca.fixed_length_ca"},
      {"FixedLengthCABlocks", "ca.fixed_length_ca_blocks"},
      {"AddLastBlock", "ca.add_last_block"},
      {"GetOutput", "ca.get_output"},
      {"HighCostCA", "ca.high_cost_ca"},
      {kUnphased, "ca.unphased"},
      {coca::net::kUnattributedPhase, "ca.unphased"},
      {"BA+", "ba.ba_plus"},
      {"lBA+", "ba.long_ba_plus"},
      {"lBA+/distribute", "ba.long_ba_plus.distribute"},
      {"lBA+/root-agreement", "ba.long_ba_plus.root-agreement"},
      {"rs.encode", "codec.rs_encode"},
      {"rs.decode", "codec.rs_decode"},
      {"merkle.build", "crypto.merkle_build"},
      {"merkle.verify", "crypto.merkle_verify"},
  };
  const auto it = keys.find(name);
  return it == keys.end() ? "ca.other" : it->second;
}

bool is_kernel_key(const std::string& key) {
  return std::find(kernels().begin(), kernels().end(), key) != kernels().end();
}

struct Pass {
  std::vector<double> latency_ms;  // successful ops only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t agreements = 0;
  double wall_s = 0;
  std::string first_error;

  double latency_sum_ms() const {
    double s = 0;
    for (const double v : latency_ms) s += v;
    return s;
  }
};

/// Closed loop: ops back to back until `seconds` have passed (at least one).
Pass measure(Workload& w, double seconds, LayerTotals* totals) {
  Pass p;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t i = 0;
  do {
    const OpResult r = totals != nullptr ? w.traced_op(i, *totals) : w.op(i);
    ++i;
    ++p.attempted;
    p.agreements += r.agreements;
    if (r.error.empty()) {
      p.latency_ms.push_back(r.latency_ns / 1e6);
    } else {
      ++p.failed;
      if (p.first_error.empty()) p.first_error = r.error;
    }
  } while (Clock::now() < deadline);
  p.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return p;
}

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::map<std::string, double> layer_metrics(const LayerTotals& t,
                                            const LayerReadings& readings,
                                            const Usage& u0, const Usage& u1,
                                            const Pass& untraced,
                                            const Pass& traced) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : per_layer_metrics()) m[name] = 0;
  const double a = static_cast<double>(std::max<std::uint64_t>(t.agreements, 1));
  const double overhead_ns = t.split.round_ns - t.split.slice_ns - t.route_ns;
  m["net.round_overhead_ms"] = overhead_ns / a / 1e6;
  m["net.round_overhead_us_per_round"] =
      t.rounds == 0 ? 0 : overhead_ns / static_cast<double>(t.rounds) / 1e3;
  m["net.slices_per_agreement"] = static_cast<double>(t.split.slices) / a;
  m["net.honest_messages_per_agreement"] =
      static_cast<double>(t.honest_messages) / a;
  m["net.payload_copies_per_agreement"] =
      static_cast<double>(t.payload_copies) / a;
  for (const auto& [name, ns] : t.split.self_ns) {
    const std::string key = layer_key(name);
    m[key + (is_kernel_key(key) ? ".ms" : ".self_ms")] += ns / a / 1e6;
  }
  for (const auto& [name, calls] : t.split.calls) {
    const std::string key = layer_key(name);
    if (is_kernel_key(key)) m[key + ".calls"] += static_cast<double>(calls) / a;
  }
  for (const auto& [phase, bits] : t.phase_bits) {
    m[layer_key(phase) + ".bits"] += static_cast<double>(bits) / a;
  }
  for (const auto& [name, v] : readings.metrics) m[name] = v;

  const double agreements = static_cast<double>(untraced.agreements);
  const double busy = u1.busy_ns() - u0.busy_ns();
  m["proc.cpu_ms_per_agreement"] = busy / 1e6 / agreements;
  m["proc.sys_cpu_share"] = busy > 0 ? (u1.sys_ns - u0.sys_ns) / busy : 0;
  m["proc.minor_faults_per_agreement"] = (u1.minflt - u0.minflt) / agreements;
  m["proc.vol_ctx_switches_per_agreement"] = (u1.nvcsw - u0.nvcsw) / agreements;
  m["proc.invol_ctx_switches_per_agreement"] =
      (u1.nivcsw - u0.nivcsw) / agreements;

  const double base = readings.untraced_ms_per_agreement > 0
                          ? readings.untraced_ms_per_agreement
                          : untraced.latency_sum_ms() / agreements;
  const double traced_ms =
      traced.latency_sum_ms() / static_cast<double>(traced.agreements);
  m["obs.trace_overhead_pct"] = (traced_ms / base - 1.0) * 100.0;
  m["trace.unaccounted_ms"] = (t.wall_ns - t.split.round_ns) / a / 1e6;
  return m;
}

std::string probe_json(const ProbeReading& r) {
  return "{\"alu_ns_per_iter\": " + num(r.alu_ns_per_iter) +
         ", \"fault_us_per_mib\": " + num(r.fault_us_per_mib) +
         ", \"chase_ns_per_load\": " + num(r.chase_ns_per_load) + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
  bool selftest = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "coca_perfbench: " << why << "\n"
            << "usage: coca_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n"
               "       coca_perfbench --selftest\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) {
        usage_error("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage_error("bad --trace " + v);
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!a.selftest && !have_workload) usage_error("--workload is required");
  const auto& names = workload_names();
  if (!a.selftest &&
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage_error("unknown workload " + a.workload);
  }
  return a;
}

int run(const Args& args) {
  const ProbeReading probe_before = run_probe(kProbeSeconds);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const auto start = Clock::now();
    w = make_workload(args.workload, args.seed);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }

  Pass untraced;
  Pass traced;
  std::map<std::string, double> metrics;
  if (args.trace == 0) {
    untraced = measure(*w, args.seconds, nullptr);
  } else {
    w->reset_counters();
    const Usage u0 = usage(RUSAGE_SELF);
    untraced = measure(*w, args.seconds / 2, nullptr);
    const Usage u1 = usage(RUSAGE_SELF);
    const LayerReadings readings = w->layer_readings();
    LayerTotals totals;
    traced = measure(*w, args.seconds / 2, &totals);
    metrics = layer_metrics(totals, readings, u0, u1, untraced, traced);
  }

  const ProbeReading probe_after = run_probe(kProbeSeconds);

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  std::vector<double> sorted = untraced.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> setups_sorted = setup_s;
  std::sort(setups_sorted.begin(), setups_sorted.end());
  const auto p90_rank = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(sorted.size())));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(w->input_digest()));

  std::cout << "{\"meta\": {\"workload\": " << quoted(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << num(args.seconds)
            << ", \"trace\": " << args.trace
            << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"compiler\": " << quoted("g++ " __VERSION__)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"git_sha\": " << quoted(args.git_sha)
            << ", \"input_digest\": " << quoted(digest)
            << ", \"ops\": " << untraced.attempted
            << ", \"agreements_per_op\": " << w->agreements_per_op()
            << ", \"latency_median_ms\": " << num(quantile(sorted, 0.5))
            << ", \"latency_p90_tail_samples\": " << sorted.size() - p90_rank
            << ", \"setup_s_all\": [";
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    std::cout << (k ? ", " : "") << num(setup_s[k]);
  }
  std::cout << "], \"probe_before\": " << probe_json(probe_before)
            << ", \"probe_after\": " << probe_json(probe_after) << "}}\n";

  if (args.trace == 0) {
    metrics = {
        {"latency_mean_ms",
         sorted.empty() ? 0
                        : untraced.latency_sum_ms() /
                              static_cast<double>(sorted.size())},
        {"latency_p90_ms", quantile(sorted, 0.9)},
        {"agreements_per_s",
         static_cast<double>(untraced.agreements) / untraced.wall_s},
        {"honest_bits_per_agreement", w->bits_per_agreement()},
        {"rounds_per_agreement", w->rounds_per_agreement()},
        {"success_rate", 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)},
        {"setup_s", setups_sorted[setups_sorted.size() / 2]},
        {"peak_rss_mb", peak_rss_mib()},
    };
  }
  const MetricList names =
      args.trace == 0 ? end_to_end_metrics() : per_layer_metrics();
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::cout << (k ? ", " : "") << quoted(names[k].first)
              << ": {\"value\": " << num(metrics.at(names[k].first))
              << ", \"unit\": " << quoted(names[k].second) << "}";
  }
  std::cout << "}}" << std::endl;
  if (failed != 0) {
    std::cerr << "coca_perfbench: " << failed << " of " << attempted
              << " ops failed; first: "
              << (untraced.first_error.empty() ? traced.first_error
                                               : untraced.first_error)
              << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return args.selftest ? perfbench::run_selftest() : run(args);
  } catch (const std::exception& e) {
    std::cerr << "coca_perfbench: " << e.what() << "\n";
    return 1;
  }
}
