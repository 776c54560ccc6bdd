#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "adversary/fuzzer.h"
#include "ca/convex_agreement.h"
#include "ca/driver.h"
#include "engine/engine.h"
#include "net/buffer_pool.h"
#include "net/exec_policy.h"
#include "net/round_router.h"
#include "net/sync_network.h"
#include "obs/obs.h"
#include "svc/client.h"
#include "svc/server.h"
#include "util/rng.h"

namespace perfbench {

using namespace coca;

void LayerTotals::add(const Split& s) {
  for (const auto& [name, ns] : s.self_ns) split.self_ns[name] += ns;
  for (const auto& [name, c] : s.calls) split.calls[name] += c;
  split.round_ns += s.round_ns;
  split.slice_ns += s.slice_ns;
  split.slices += s.slices;
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kN = 7;
constexpr int kT = 2;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return Rng::mix64(h ^ Rng::mix64(v));
}

std::uint64_t fold(std::uint64_t h, const BigInt& v) {
  h = fold(h, v.negative() ? 1 : 0);
  for (const std::uint64_t limb : v.magnitude().limbs()) h = fold(h, limb);
  return h;
}

/// A non-negative input of exactly `ell` bits (top bit set), so every
/// agreement runs on inputs of the same length.
BigInt exact_bits_input(Rng& rng, std::size_t ell) {
  return BigInt(rng.nat_below_pow2(ell - 1) + BigNat::pow2(ell - 1), false);
}

std::string error_text(const std::exception& e) {
  return std::string("exception: ") + e.what();
}

/// Agreement, Convex Validity (outputs inside the hull of the inputs of the
/// parties that decided) and the simulator reference's cost.
std::string check_run(const std::vector<std::optional<BigInt>>& outputs,
                      const std::vector<BigInt>& inputs,
                      const net::RunStats& stats, std::uint64_t ref_bits,
                      std::size_t ref_rounds) {
  const BigInt* decided = nullptr;
  const BigInt* lo = nullptr;
  const BigInt* hi = nullptr;
  for (std::size_t id = 0; id < outputs.size(); ++id) {
    if (!outputs[id]) continue;
    if (decided == nullptr) decided = &*outputs[id];
    if (*outputs[id] != *decided) return "agreement violated";
    if (lo == nullptr || inputs[id] < *lo) lo = &inputs[id];
    if (hi == nullptr || *hi < inputs[id]) hi = &inputs[id];
  }
  if (decided == nullptr) return "no party decided";
  if (*decided < *lo || *hi < *decided) return "convex validity violated";
  if (stats.honest_bits() != ref_bits || stats.rounds != ref_rounds) {
    return "bits/rounds differ from the simulator reference";
  }
  return {};
}

void add_run_stats(const net::RunStats& stats, LayerTotals& totals) {
  totals.rounds += stats.rounds;
  totals.honest_messages += stats.honest_messages;
  totals.payload_copies += stats.payload_copies;
  for (const auto& [phase, bytes] : stats.phase_breakdown) {
    totals.phase_bits[phase] += bytes * 8;
  }
}


/// The CPUs the process may use, as it started.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// Moves every thread of the process onto one CPU, the next allowed one,
/// round robin. The single-CPU workloads call it before each op: all their
/// threads (the caller; on wire_uds also the daemon loop and the client
/// reader) share one CPU for the op, and the ops of a run visit every CPU
/// alike, so one vCPU in a slow host state cannot set a whole run.
void next_cpu() {
  static std::size_t turn = 0;
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[turn++ % cpus.size()], &one);
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    ::sched_setaffinity(tid, sizeof(one), &one);  // ESRCH: thread just left
  }
}

/// Lets the calling thread, and the threads it starts, use every allowed
/// CPU again.
void all_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : allowed_cpus()) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// sim_long_inputs

class SimLongInputs final : public Workload {
 public:
  static constexpr std::size_t kEll = std::size_t{1} << 21;
  static constexpr std::size_t kPool = 4;

  explicit SimLongInputs(std::uint64_t seed) {
    Rng rng = Rng::stream(seed, 0x511);
    for (std::size_t k = 0; k < kPool; ++k) {
      Entry e;
      e.cfg.n = kN;
      e.cfg.t = kT;
      e.cfg.threads = 1;
      for (int i = 0; i < kN; ++i) {
        e.cfg.inputs.push_back(exact_bits_input(rng, kEll));
        digest_ = fold(digest_, e.cfg.inputs.back());
      }
      // The byzantine parties are the t highest ids, so every Phase-King
      // king is honest.
      for (int id = kN - kT; id < kN; ++id) {
        e.cfg.corruptions.push_back({id, adv::Kind::kGarbage});
      }
      const ca::SimResult ref = ca::run_simulation(proto_, e.cfg);
      if (!ref.agreement() || !ref.convex_validity(e.cfg.inputs)) {
        throw std::runtime_error("sim_long_inputs: reference run failed");
      }
      e.ref_bits = ref.stats.honest_bits();
      e.ref_rounds = ref.stats.rounds;
      bits_per_agreement_ += static_cast<double>(e.ref_bits) / kPool;
      rounds_per_agreement_ += static_cast<double>(e.ref_rounds) / kPool;
      pool_.push_back(std::move(e));
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const OpResult r = op(i);
      if (!r.error.empty()) {
        throw std::runtime_error("sim_long_inputs warm-up: " + r.error);
      }
    }
  }

  OpResult op(std::size_t i) override { return run(i, nullptr); }

  OpResult traced_op(std::size_t i, LayerTotals& totals) override {
    return run(i, &totals);
  }

 private:
  struct Entry {
    ca::SimConfig cfg;
    std::uint64_t ref_bits = 0;
    std::size_t ref_rounds = 0;
  };

  OpResult run(std::size_t i, LayerTotals* totals) {
    Entry& e = pool_[i % pool_.size()];
    OpResult out{1, 0, {}};
    next_cpu();
    obs::Tracer tracer;
    e.cfg.tracer = totals != nullptr ? &tracer : nullptr;
    try {
      const auto start = Clock::now();
      const ca::SimResult r = ca::run_simulation(proto_, e.cfg);
      const double wall = ns_since(start);
      out.latency_ns = wall;
      out.error = check_run(r.outputs, e.cfg.inputs, r.stats, e.ref_bits,
                            e.ref_rounds);
      if (totals != nullptr) {
        totals->agreements += 1;
        totals->wall_ns += wall;
        add_run_stats(r.stats, *totals);
        totals->add(attribute(collect_spans(tracer)));
      }
    } catch (const std::exception& ex) {
      out.error = error_text(ex);
    }
    e.cfg.tracer = nullptr;
    return out;
  }

  const ca::ConvexAgreement proto_;
  std::vector<Entry> pool_;
};

// ---------------------------------------------------------------------------
// engine_sharded

class EngineSharded final : public Workload {
 public:
  static constexpr std::size_t kEll = std::size_t{1} << 14;
  static constexpr int kWorkers = 3;
  static constexpr std::size_t kPerPath = 32;
  /// Enough that both paths fill with overwhelming probability (the rarer
  /// path is about 44% of draws: 56 +- 6 expected of 128).
  static constexpr std::size_t kCandidates = 128;

  explicit EngineSharded(std::uint64_t seed)
      : engine_(options(kWorkers)), engine_1_(options(1)) {
    all_cpus();  // the engine's workers start from the caller's mask
    // Pi_Z cases end on one of two paths (a short and a long round count)
    // depending on the drawn inputs. Drawing a batch straight from the
    // seed would change the mix, and so the work, with the seed: instead
    // the simulator references sort a fixed number of candidates by round
    // count, and the batch takes the first kPerPath of each of the two
    // paths, interleaved so every worker gets the same mix.
    Rng rng = Rng::stream(seed, 0xE61);
    std::map<std::size_t, std::vector<Ref>> by_rounds;
    for (std::size_t k = 0; k < kCandidates; ++k) {
      adv::FuzzCase c;
      c.protocol = "PiZ";
      c.n = kN;
      c.t = kT;
      c.ell = kEll;
      c.input_seed = rng.next_u64();
      c.threads = 1;
      const adv::FuzzOutcome o = adv::execute_case(c);
      if (!o.terminated || !o.verdict.ok()) {
        throw std::runtime_error("engine_sharded: reference run failed");
      }
      by_rounds[o.stats.rounds].push_back({c, o.stats.honest_bytes,
                                           o.stats.rounds});
    }
    std::vector<std::size_t> full;
    for (const auto& [rounds, refs] : by_rounds) {
      if (refs.size() >= kPerPath) full.push_back(rounds);
    }
    if (full.size() != 2) {
      throw std::runtime_error("engine_sharded: expected two full paths, got " +
                               std::to_string(full.size()));
    }
    for (std::size_t j = 0; j < kPerPath; ++j) {
      for (const std::size_t rounds : full) {
        const Ref& r = by_rounds[rounds][j];
        cases_.push_back(r.c);
        refs_.push_back(r);
        digest_ = fold(digest_, r.c.input_seed);
        bits_per_agreement_ += static_cast<double>(r.bytes * 8);
        rounds_per_agreement_ += static_cast<double>(r.rounds);
      }
    }
    agreements_per_op_ = cases_.size();
    bits_per_agreement_ /= static_cast<double>(cases_.size());
    rounds_per_agreement_ /= static_cast<double>(cases_.size());
    const OpResult warm = op(0);
    if (!warm.error.empty()) {
      throw std::runtime_error("engine_sharded warm-up: " + warm.error);
    }
    reset_counters();
  }

  OpResult op(std::size_t) override {
    OpResult out{agreements_per_op_, 0, {}};
    try {
      const Usage self0 = usage(RUSAGE_SELF);
      const Usage caller0 = usage(RUSAGE_THREAD);
      const auto start = Clock::now();
      const engine::EngineReport report = engine_.run(cases_);
      const double wall = ns_since(start);
      const double caller = usage(RUSAGE_THREAD).busy_ns() - caller0.busy_ns();
      const double self = usage(RUSAGE_SELF).busy_ns() - self0.busy_ns();
      out.latency_ns = wall;
      out.error = check(report);
      batches_ += 1;
      wall_ns_ += wall;
      worker_busy_ns_ += self - caller;
      kernel_flushes_ += report.kernel_batch.flushes;
      kernel_calls_ +=
          report.kernel_batch.rs_calls + report.kernel_batch.merkle_calls;
    } catch (const std::exception& ex) {
      out.error = error_text(ex);
    }
    return out;
  }

  /// Runs the batch's instances one by one outside the engine, each with
  /// its own timing tracer: the engine's own trace mode is canonical
  /// (clock off), and the per-layer split is per instance anyway.
  OpResult traced_op(std::size_t, LayerTotals& totals) override {
    OpResult out{agreements_per_op_, 0, {}};
    for (std::size_t k = 0; k < cases_.size() && out.error.empty(); ++k) {
      try {
        obs::Tracer tracer;
        const auto start = Clock::now();
        const adv::FuzzOutcome o = adv::execute_case(cases_[k], nullptr,
                                                     &tracer);
        const double wall = ns_since(start);
        out.latency_ns += wall;
        out.error = check(o, refs_[k]);
        totals.agreements += 1;
        totals.wall_ns += wall;
        add_run_stats(o.stats, totals);
        totals.add(attribute(collect_spans(tracer)));
      } catch (const std::exception& ex) {
        out.error = error_text(ex);
      }
    }
    return out;
  }

  void reset_counters() override {
    batches_ = 0;
    wall_ns_ = 0;
    worker_busy_ns_ = 0;
    kernel_flushes_ = 0;
    kernel_calls_ = 0;
  }

  LayerReadings layer_readings() override {
    LayerReadings out;
    if (batches_ == 0) return out;
    const double batches = static_cast<double>(batches_);
    // The same batch on one worker, and the instances solo outside the
    // engine (the untraced twin of traced_op).
    constexpr int kBaselineReps = 2;
    double one_worker_ns = 0;
    double solo_ns = 0;
    for (int rep = 0; rep < kBaselineReps; ++rep) {
      auto start = Clock::now();
      check_or_throw(check(engine_1_.run(cases_)));
      one_worker_ns += ns_since(start);
      for (std::size_t k = 0; k < cases_.size(); ++k) {
        start = Clock::now();
        const adv::FuzzOutcome o = adv::execute_case(cases_[k]);
        solo_ns += ns_since(start);
        check_or_throw(check(o, refs_[k]));
      }
    }
    const double mean_wall = wall_ns_ / batches;
    out.metrics["engine.speedup_vs_1_worker"] =
        one_worker_ns / kBaselineReps / mean_wall;
    out.metrics["engine.worker_idle_frac"] =
        1.0 - worker_busy_ns_ / (kWorkers * wall_ns_);
    out.metrics["engine.kernel_batch.flushes"] =
        static_cast<double>(kernel_flushes_) / batches;
    out.metrics["engine.kernel_batch.calls_per_flush"] =
        kernel_flushes_ == 0 ? 0.0
                             : static_cast<double>(kernel_calls_) /
                                   static_cast<double>(kernel_flushes_);
    out.untraced_ms_per_agreement =
        solo_ns / 1e6 / kBaselineReps / static_cast<double>(cases_.size());
    return out;
  }

 private:
  struct Ref {
    adv::FuzzCase c;
    std::uint64_t bytes = 0;
    std::size_t rounds = 0;
  };

  static engine::EngineOptions options(int workers) {
    engine::EngineOptions o;
    o.workers = workers;
    o.record_transcripts = false;
    return o;
  }

  static void check_or_throw(const std::string& error) {
    if (!error.empty()) throw std::runtime_error(error);
  }

  /// Oracle verdict (Agreement, Convex Validity, termination) plus the
  /// simulator reference's cost.
  static std::string check(const adv::FuzzOutcome& o, const Ref& ref) {
    if (!o.terminated) return "instance did not terminate: " + o.failure;
    if (!o.verdict.ok()) return "oracle: " + o.verdict.violations.front();
    if (o.stats.honest_bytes != ref.bytes || o.stats.rounds != ref.rounds) {
      return "bits/rounds differ from the simulator reference";
    }
    return {};
  }

  std::string check(const engine::EngineReport& report) const {
    if (report.instances.size() != refs_.size()) return "instance count";
    for (std::size_t k = 0; k < refs_.size(); ++k) {
      std::string e = check(report.instances[k].outcome, refs_[k]);
      if (!e.empty()) return "instance " + std::to_string(k) + ": " + e;
    }
    return {};
  }

  engine::Engine engine_;
  engine::Engine engine_1_;
  std::vector<adv::FuzzCase> cases_;
  std::vector<Ref> refs_;
  std::uint64_t batches_ = 0;
  double wall_ns_ = 0;
  double worker_busy_ns_ = 0;
  std::uint64_t kernel_flushes_ = 0;
  std::uint64_t kernel_calls_ = 0;
};

// ---------------------------------------------------------------------------
// wire_uds

/// Times every round the wire session carries.
class TimingRouter final : public net::RoundRouter {
 public:
  TimingRouter(net::RoundRouter& inner, std::vector<double>& route_ns)
      : inner_(inner), route_ns_(route_ns) {}

  std::optional<std::vector<net::WireMessage>> route(
      std::size_t round, std::vector<net::WireMessage> staged) override {
    const auto start = Clock::now();
    auto delivered = inner_.route(round, std::move(staged));
    route_ns_.push_back(ns_since(start));
    return delivered;
  }
  std::string failure_reason() const override {
    return inner_.failure_reason();
  }

 private:
  net::RoundRouter& inner_;
  std::vector<double>& route_ns_;
};

/// An abstract-namespace socket name: no file is created, so the
/// workload runs from any working directory.
std::string abstract_socket_name() {
  static int counter = 0;
  return std::string(1, '\0') + "coca-perfbench-" +
         std::to_string(::getpid()) + "-" + std::to_string(++counter);
}

class WireUds final : public Workload {
 public:
  static constexpr std::size_t kEll = std::size_t{1} << 12;
  static constexpr std::size_t kPool = 8;
  static constexpr std::size_t kWarmUp = 8;

  explicit WireUds(std::uint64_t seed) {
    Rng rng = Rng::stream(seed, 0x3D5);
    for (std::size_t k = 0; k < kPool; ++k) {
      Entry e;
      for (int i = 0; i < kN; ++i) {
        e.inputs.push_back(exact_bits_input(rng, kEll));
        digest_ = fold(digest_, e.inputs.back());
      }
      ca::SimConfig cfg;
      cfg.n = kN;
      cfg.t = kT;
      cfg.threads = 1;
      cfg.inputs = e.inputs;
      const ca::SimResult ref = ca::run_simulation(proto_, cfg);
      if (!ref.agreement() || !ref.convex_validity(e.inputs)) {
        throw std::runtime_error("wire_uds: reference run failed");
      }
      e.ref_bits = ref.stats.honest_bits();
      e.ref_rounds = ref.stats.rounds;
      bits_per_agreement_ += static_cast<double>(e.ref_bits) / kPool;
      rounds_per_agreement_ += static_cast<double>(e.ref_rounds) / kPool;
      pool_.push_back(std::move(e));
    }
    next_cpu();  // the daemon and reader threads start on the caller's CPU
    svc::DaemonOptions dopt;
    dopt.uds_path = abstract_socket_name();
    daemon_ = std::make_unique<svc::Daemon>(dopt);
    daemon_->start();
    client_ = svc::WireClient::connect_uds_path(dopt.uds_path);
    for (std::size_t i = 0; i < kWarmUp; ++i) {
      const OpResult r = op(i);
      if (!r.error.empty()) {
        throw std::runtime_error("wire_uds warm-up: " + r.error);
      }
    }
    reset_counters();
  }

  ~WireUds() override {
    client_.reset();
    daemon_->stop();
  }

  OpResult op(std::size_t i) override { return run(i, nullptr); }

  OpResult traced_op(std::size_t i, LayerTotals& totals) override {
    return run(i, &totals);
  }

  void reset_counters() override {
    route_ns_.clear();
    sessions_ = 0;
    open_ns_ = 0;
    op_ns_ = 0;
    payload_copies_ = 0;
    frames0_ = daemon_->stats().frames_received.load();
    bytes0_ = daemon_->stats().bytes_received.load();
    slabs0_ = net::BufferPool::instance().stats().slab_allocs;
  }

  LayerReadings layer_readings() override {
    LayerReadings out;
    if (sessions_ == 0 || route_ns_.empty()) return out;
    const auto rounds = static_cast<double>(route_ns_.size());
    std::vector<double> sorted = route_ns_;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&sorted](double q) {
      return sorted[static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1))];
    };
    double route_total = 0;
    for (const double ns : route_ns_) route_total += ns;
    out.metrics["svc.open_ms"] = open_ns_ / 1e6 / static_cast<double>(sessions_);
    out.metrics["svc.route_us_p50"] = at(0.5) / 1e3;
    out.metrics["svc.route_us_p90"] = at(0.9) / 1e3;
    out.metrics["svc.route_share"] = route_total / op_ns_;
    out.metrics["svc.frames_per_round"] =
        static_cast<double>(daemon_->stats().frames_received.load() -
                            frames0_) /
        rounds;
    out.metrics["svc.bytes_per_round"] =
        static_cast<double>(daemon_->stats().bytes_received.load() - bytes0_) /
        rounds;
    out.metrics["svc.wire_copies_per_round"] =
        static_cast<double>(payload_copies_) / rounds;
    out.metrics["net.pool_slab_allocs_per_round"] =
        static_cast<double>(net::BufferPool::instance().stats().slab_allocs -
                            slabs0_) /
        rounds;
    return out;
  }

 private:
  struct Entry {
    std::vector<BigInt> inputs;
    std::uint64_t ref_bits = 0;
    std::size_t ref_rounds = 0;
  };

  OpResult run(std::size_t i, LayerTotals* totals) {
    const Entry& e = pool_[i % pool_.size()];
    OpResult out{1, 0, {}};
    next_cpu();
    try {
      const std::size_t first_route = route_ns_.size();
      obs::Tracer tracer;
      std::vector<std::optional<BigInt>> outputs(kN);
      const auto op_start = Clock::now();
      const std::unique_ptr<svc::WireSession> session = client_->open(kN, kT);
      open_ns_ += ns_since(op_start);
      TimingRouter router(*session, route_ns_);
      net::SyncNetwork net(kN, kT);
      net.set_exec_policy(net::ExecPolicy::serial());
      net.set_round_router(&router);
      if (totals != nullptr) net.set_tracer(&tracer);
      for (int id = 0; id < kN; ++id) {
        net.set_honest(id, [this, &outputs, &e, id](net::PartyContext& ctx) {
          outputs[static_cast<std::size_t>(id)] =
              proto_.run(ctx, e.inputs[static_cast<std::size_t>(id)]);
        });
      }
      const auto start = Clock::now();
      const net::RunStats stats = net.run();
      const double wall = ns_since(start);
      session->close();
      out.latency_ns = ns_since(op_start);
      op_ns_ += out.latency_ns;
      out.error = check_run(outputs, e.inputs, stats, e.ref_bits,
                            e.ref_rounds);
      sessions_ += 1;
      payload_copies_ += stats.payload_copies;
      if (totals != nullptr) {
        totals->agreements += 1;
        totals->wall_ns += wall;
        for (std::size_t r = first_route; r < route_ns_.size(); ++r) {
          totals->route_ns += route_ns_[r];
        }
        add_run_stats(stats, *totals);
        totals->add(attribute(collect_spans(tracer)));
      }
    } catch (const std::exception& ex) {
      out.error = error_text(ex);
    }
    return out;
  }

  const ca::ConvexAgreement proto_;
  std::vector<Entry> pool_;
  std::unique_ptr<svc::Daemon> daemon_;
  std::unique_ptr<svc::WireClient> client_;
  std::vector<double> route_ns_;
  std::uint64_t sessions_ = 0;
  double open_ns_ = 0;
  double op_ns_ = 0;
  std::uint64_t payload_copies_ = 0;
  std::uint64_t frames0_ = 0;
  std::uint64_t bytes0_ = 0;
  std::uint64_t slabs0_ = 0;
};

}  // namespace

Usage usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 +
           static_cast<double>(tv.tv_usec) * 1e3;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime),
          static_cast<double>(ru.ru_minflt), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_nivcsw)};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim_long_inputs", "engine_sharded", "wire_uds"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sim_long_inputs") return std::make_unique<SimLongInputs>(seed);
  if (name == "engine_sharded") return std::make_unique<EngineSharded>(seed);
  if (name == "wire_uds") return std::make_unique<WireUds>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
