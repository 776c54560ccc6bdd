#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "engine/spsc_ring.h"
#include "net/sync_network.h"
#include "util/rng.h"

namespace coca::engine {

namespace {

/// The lane producer: one per instance, installed as the instance's
/// net::RoundObserver. Runs in the instance's controller context (the
/// worker thread), so the SPSC single-producer contract holds by
/// construction.
class LaneObserver : public net::RoundObserver {
 public:
  LaneObserver(SpscRing<RoundEvent>* lane, std::uint32_t instance)
      : lane_(lane), instance_(instance) {}

  void on_round(std::size_t round, std::uint64_t honest_bytes,
                std::uint64_t honest_messages) override {
    RoundEvent ev;
    ev.instance = instance_;
    ev.round = static_cast<std::uint32_t>(round);
    ev.honest_bytes = honest_bytes;
    ev.honest_messages = honest_messages;
    lane_->push(ev);
  }

  void finish() {
    RoundEvent ev;
    ev.instance = instance_;
    ev.done = true;
    lane_->push(ev);
  }

 private:
  SpscRing<RoundEvent>* lane_;
  std::uint32_t instance_;
};

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  require(options_.workers >= 1, "Engine: need workers >= 1");
  require(options_.lane_capacity >= 1, "Engine: need lane_capacity >= 1");
}

EngineReport Engine::run(const std::vector<adv::FuzzCase>& cases) {
  const std::size_t kk = cases.size();
  const auto& known = adv::known_protocols();
  for (const adv::FuzzCase& c : cases) {
    adv::validate_case(c);
    if (std::find(known.begin(), known.end(), c.protocol) == known.end()) {
      throw Error("Engine: unknown protocol '" + c.protocol + "'");
    }
  }
  EngineReport report;
  report.instances.resize(kk);
  if (kk == 0) return report;
  const auto workers = std::min<std::size_t>(
      static_cast<std::size_t>(options_.workers), kk);

  std::vector<std::unique_ptr<SpscRing<RoundEvent>>> lanes;
  lanes.reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) {
    lanes.push_back(
        std::make_unique<SpscRing<RoundEvent>>(options_.lane_capacity));
  }
  std::vector<std::unique_ptr<obs::Tracer>> tracers(kk);
  if (options_.trace) {
    for (auto& t : tracers) {
      t = std::make_unique<obs::Tracer>(obs::Tracer::Options{.timing = false});
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Workers: instance i runs on worker i % W. All of an instance's
  // protocol work happens on its worker via its own private SyncNetwork;
  // the only cross-thread traffic is the lane. A worker runs its instances
  // one after another.
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t wi = 0; wi < workers; ++wi) {
    pool.emplace_back([&, wi]() {
      const auto run_one = [&](std::size_t i) {
        InstanceResult& res = report.instances[i];
        res.worker = static_cast<int>(wi);
        LaneObserver observer(lanes[i].get(), static_cast<std::uint32_t>(i));
        adv::ExecHooks hooks;
        if (options_.record_transcripts) hooks.transcript = &res.transcript;
        if (tracers[i]) hooks.tracer = tracers[i].get();
        hooks.observer = &observer;
        try {
          res.outcome = adv::execute_case(cases[i], hooks);
        } catch (const std::exception& e) {
          // validate_case passed, so this is unexpected; surface it as a
          // verdict instead of tearing down the whole pool.
          res.outcome.failure = e.what();
          res.outcome.verdict.violations.push_back(
              std::string("crash: engine worker: ") + e.what());
        }
        observer.finish();
      };
      for (std::size_t i = wi; i < kk; i += workers) run_one(i);
    });
  }

  // Collector: this thread is every lane's only consumer. Each sweep
  // drains lanes in canonical instance order 0..K-1; the folds below are
  // commutative sums keyed by (instance, round), so the report is
  // bit-identical for any worker count or interleaving.
  std::size_t done = 0;
  while (done < kk) {
    bool idle = true;
    for (std::size_t i = 0; i < kk; ++i) {
      while (std::optional<RoundEvent> ev = lanes[i]->try_pop()) {
        idle = false;
        if (ev->done) {
          ++done;
          continue;
        }
        ++report.instances[i].rounds_streamed;
        if (report.honest_bytes_by_round.size() <=
            static_cast<std::size_t>(ev->round)) {
          report.honest_bytes_by_round.resize(ev->round + 1, 0);
        }
        report.honest_bytes_by_round[ev->round] += ev->honest_bytes;
      }
    }
    if (idle) std::this_thread::yield();
  }
  for (std::thread& th : pool) th.join();

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const InstanceResult& res : report.instances) {
    report.honest_bytes += res.outcome.stats.honest_bytes;
    report.honest_messages += res.outcome.stats.honest_messages;
    report.rounds += res.outcome.stats.rounds;
  }
  if (options_.trace) {
    std::vector<const obs::Tracer*> ptrs;
    ptrs.reserve(kk);
    for (const auto& t : tracers) ptrs.push_back(t.get());
    report.metrics = obs::merged_metrics_over(ptrs);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Cross-instance isolation.

IsolationReport check_isolation(const adv::FuzzCase& victim,
                                const ShardedCaseOptions& options) {
  require(options.instances >= 2, "check_isolation: need >= 2 instances");
  require(options.workers >= 1, "check_isolation: need >= 1 workers");
  adv::validate_case(victim);

  // Neighbors: honest twins of the victim (same protocol/n/t/ell, derived
  // input seeds, no corruption, no faults). The victim sits mid-pack so
  // lanes on both sides of it are exercised.
  const std::size_t count = static_cast<std::size_t>(options.instances);
  const std::size_t victim_at = count / 2;
  std::vector<adv::FuzzCase> cases(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) {
      cases[i] = victim;
      continue;
    }
    adv::FuzzCase neighbor = victim;
    neighbor.corrupted.clear();
    neighbor.mutation = adv::MutatorConfig{};
    neighbor.mutation.seed =
        Rng::derive_stream_seed(options.neighbor_seed, 2 * i + 1);
    neighbor.faults = net::FaultPlan{};
    neighbor.input_seed = Rng::derive_stream_seed(options.neighbor_seed, 2 * i);
    cases[i] = std::move(neighbor);
  }

  // Solo baselines for every neighbor, each on its own single SyncNetwork.
  std::vector<adv::FuzzOutcome> solo(count);
  std::vector<net::Transcript> solo_tr(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) continue;
    solo[i] = adv::execute_case(cases[i], &solo_tr[i]);
  }

  EngineOptions eo;
  eo.workers = options.workers;
  const EngineReport sharded = Engine(eo).run(cases);

  IsolationReport report;
  report.victim = sharded.instances[victim_at].outcome.verdict;
  for (std::size_t i = 0; i < count; ++i) {
    if (i == victim_at) continue;
    const std::string who = "neighbor " + std::to_string(i);
    const InstanceResult& got = sharded.instances[i];
    if (!(got.transcript == solo_tr[i])) {
      report.violations.push_back("isolation: " + who +
                                  " transcript differs from its solo run");
    }
    const net::RunStats& a = got.outcome.stats;
    const net::RunStats& b = solo[i].stats;
    if (a.honest_bytes != b.honest_bytes ||
        a.honest_messages != b.honest_messages || a.rounds != b.rounds) {
      report.violations.push_back("isolation: " + who +
                                  " honest_bytes/messages/rounds differ");
    }
    if (a.payload_copies != b.payload_copies ||
        a.payload_bytes_copied != b.payload_bytes_copied) {
      report.violations.push_back("isolation: " + who +
                                  " payload_copies/bytes_copied differ");
    }
    if (a.phase_breakdown != b.phase_breakdown) {
      report.violations.push_back("isolation: " + who +
                                  " phase_breakdown differs");
    }
    if (got.outcome.verdict.violations != solo[i].verdict.violations) {
      report.violations.push_back("isolation: " + who +
                                  " oracle verdict differs");
    }
  }
  return report;
}

}  // namespace coca::engine
