// Simulator semantics: lock-step rounds, authenticated delivery, metering,
// rushing byzantine strategies, split-brain equivocation.
#include "net/sync_network.h"

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"
#include "adversary/strategies.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "ca/fixed_length_ca.h"
#include "tests/support.h"
#include "util/wire.h"

namespace coca::net {
namespace {

TEST(SyncNetwork, OneRoundBroadcastDeliversAll) {
  const int n = 5;
  auto run = test::run_parties<int>(
      n, 1, [&](PartyContext& ctx, int id) {
        ctx.send_all(Bytes{static_cast<std::uint8_t>(id)});
        int sum = 0;
        for (const auto& e : ctx.advance()) {
          EXPECT_EQ(e.payload.size(), 1u);
          EXPECT_EQ(e.payload[0], e.from);  // authenticated sender
          sum += e.payload[0];
        }
        return sum;
      });
  for (const auto& out : run.outputs) EXPECT_EQ(out, 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(run.stats.rounds, 1u);
}

TEST(SyncNetwork, InboxOrderedBySender) {
  auto run = test::run_parties<bool>(4, 1, [](PartyContext& ctx, int) {
    ctx.send_all(Bytes{0xAA});
    const auto inbox = ctx.advance();
    for (std::size_t i = 1; i < inbox.size(); ++i) {
      if (inbox[i - 1].from > inbox[i].from) return false;
    }
    return true;
  });
  for (const auto& out : run.outputs) EXPECT_TRUE(*out);
}

TEST(SyncNetwork, MessagesCrossOnlyAtRoundBoundary) {
  // A message sent in round r must not be readable in round r's inbox of a
  // prior advance, and must arrive exactly once.
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    if (id == 0) ctx.send(1, Bytes{1});
    auto in1 = ctx.advance();  // round 0 inbox
    if (id == 0) ctx.send(1, Bytes{2});
    auto in2 = ctx.advance();  // round 1 inbox
    if (id != 1) return -1;
    EXPECT_EQ(in1.size(), 1u);
    EXPECT_EQ(in1[0].payload[0], 1);
    EXPECT_EQ(in2.size(), 1u);
    EXPECT_EQ(in2[0].payload[0], 2);
    return 0;
  });
  EXPECT_EQ(run.outputs[1], 0);
}

TEST(SyncNetwork, SelfDeliveryWorks) {
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    ctx.send(id, Bytes{static_cast<std::uint8_t>(id + 10)});
    for (const auto& e : ctx.advance()) {
      if (e.from == id) return static_cast<int>(e.payload[0]);
    }
    return -1;
  });
  EXPECT_EQ(run.outputs[2], 12);
}

TEST(SyncNetwork, HonestBytesMeterCountsPayloads) {
  SyncNetwork net(3, 0);
  std::uint64_t expected = 0;
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      ctx.send_all(Bytes(10, 0));  // 3 recipients x 10 bytes
      (void)ctx.advance();
      ctx.send(0, Bytes(5, 0));
      (void)ctx.advance();
    });
    expected += 3 * 10 + 5;
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.honest_bytes, expected);
  EXPECT_EQ(stats.honest_messages, 3u * 4u);
  EXPECT_EQ(stats.rounds, 2u);
}

TEST(SyncNetwork, PhaseAttributionNests) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      auto outer = ctx.phase("outer");
      ctx.send_all(Bytes(4, 0));
      {
        auto inner = ctx.phase("inner");
        ctx.send_all(Bytes(2, 0));
      }
      (void)ctx.advance();
    });
  }
  const RunStats stats = net.run();
  // outer sees both sends; inner only its own. Two parties, two recipients.
  EXPECT_EQ(stats.honest_bytes_by_phase.at("outer"), 2u * 2u * (4u + 2u));
  EXPECT_EQ(stats.honest_bytes_by_phase.at("inner"), 2u * 2u * 2u);
}

TEST(SyncNetwork, ByzantineBytesExcludedFromHonestMetric) {
  SyncNetwork net(3, 1);
  net.set_byzantine(2, std::make_shared<adv::Spam>(1000));
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      ctx.send_all(Bytes(1, 0));
      (void)ctx.advance();
    });
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.honest_bytes, 2u * 3u);
  EXPECT_EQ(stats.bytes_by_party[2], 3u * 1000u);
}

TEST(SyncNetwork, RushingStrategySeesCurrentRoundTraffic) {
  // The byzantine party echoes party 0's round-r message within round r.
  class Rusher final : public ByzantineStrategy {
   public:
    void on_round(const RoundView& view,
                  const std::function<void(int, Bytes)>& send) override {
      for (const auto& sent : *view.honest_traffic) {
        if (sent.from == 0 && sent.to == 1) send(1, sent.payload->to_bytes());
      }
    }
  };
  SyncNetwork net(3, 1);
  net.set_byzantine(2, std::make_shared<Rusher>());
  std::vector<Envelope> got;
  net.set_honest(0, [](PartyContext& ctx) {
    ctx.send(1, Bytes{0x42});
    (void)ctx.advance();
  });
  net.set_honest(1, [&got](PartyContext& ctx) { got = ctx.advance(); });
  (void)net.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 0);
  EXPECT_EQ(got[1].from, 2);
  EXPECT_EQ(got[1].payload, Bytes{0x42});  // copied the same round
}

TEST(SyncNetwork, SplitBrainHalvesSeeWholeInboxButSplitRecipients) {
  SyncNetwork net(4, 1);
  // Party 3 equivocates: instance A (sends 0xA0) talks to {0,1}, instance B
  // (sends 0xB0) to {2}.
  const auto instance = [](std::uint8_t tag) {
    return [tag](PartyContext& ctx) {
      ctx.send_all(Bytes{tag});
      (void)ctx.advance();
    };
  };
  net.set_split_brain(3, instance(0xA0), instance(0xB0), {0, 1});
  std::vector<Bytes> from3(3);
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [&from3, id](PartyContext& ctx) {
      ctx.send_all(Bytes{static_cast<std::uint8_t>(id)});
      for (const auto& e : ctx.advance()) {
        if (e.from == 3) from3[static_cast<std::size_t>(id)] = e.payload.owned();
      }
    });
  }
  (void)net.run();
  EXPECT_EQ(from3[0], Bytes{0xA0});
  EXPECT_EQ(from3[1], Bytes{0xA0});
  EXPECT_EQ(from3[2], Bytes{0xB0});
}

TEST(SyncNetwork, UnevenTerminationIsHandled) {
  // Party 0 finishes immediately; the others keep exchanging for 3 rounds.
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    if (id == 0) return 0;
    for (int r = 0; r < 3; ++r) {
      ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
      (void)ctx.advance();
    }
    return 1;
  });
  EXPECT_EQ(run.outputs[0], 0);
  EXPECT_EQ(run.outputs[1], 1);
  EXPECT_EQ(run.stats.rounds, 3u);
}

TEST(SyncNetwork, HonestExceptionPropagates) {
  SyncNetwork net(2, 0);
  net.set_honest(0, [](PartyContext&) { throw Error("boom"); });
  net.set_honest(1, [](PartyContext& ctx) {
    for (int r = 0; r < 100; ++r) (void)ctx.advance();
  });
  EXPECT_THROW(net.run(), Error);
}

TEST(SyncNetwork, RoundLimitEnforced) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      for (;;) (void)ctx.advance();
    });
  }
  EXPECT_THROW(net.run(/*max_rounds=*/50), Error);
}

TEST(SyncNetwork, RolesMustBeAssigned) {
  SyncNetwork net(3, 1);
  net.set_honest(0, [](PartyContext&) {});
  EXPECT_THROW(net.run(), Error);
}

TEST(SyncNetwork, DuplicateRoleRejected) {
  SyncNetwork net(3, 1);
  net.set_honest(0, [](PartyContext&) {});
  EXPECT_THROW(net.set_honest(0, [](PartyContext&) {}), Error);
}

TEST(SyncNetwork, FirstPerSenderDeduplicates) {
  std::vector<Envelope> inbox{{0, Bytes{1}}, {0, Bytes{2}}, {1, Bytes{3}},
                              {2, Bytes{4}}, {2, Bytes{5}}};
  const auto dedup = first_per_sender(inbox);
  ASSERT_EQ(dedup.size(), 3u);
  EXPECT_EQ(dedup[0].payload, Bytes{1});
  EXPECT_EQ(dedup[1].payload, Bytes{3});
  EXPECT_EQ(dedup[2].payload, Bytes{4});
}

TEST(SyncNetwork, DeterministicAcrossRuns) {
  const auto execute = [] {
    auto run = test::run_parties<std::uint64_t>(
        5, 1,
        [](PartyContext& ctx, int id) {
          std::uint64_t acc = 0;
          for (int r = 0; r < 4; ++r) {
            ctx.send_all(Bytes{static_cast<std::uint8_t>(id * 16 + r)});
            for (const auto& e : ctx.advance()) {
              acc = acc * 131 + e.payload[0] + static_cast<unsigned>(e.from);
            }
          }
          return acc;
        },
        {4}, [](int) { return std::make_shared<adv::Garbage>(); });
    return run.outputs;
  };
  EXPECT_EQ(execute(), execute());
}

TEST(SyncNetwork, TranscriptMetersSumToRunTotals) {
  // Per-round honest bytes must add up to the run's honest-byte meter, so
  // "identical per-round metered bits" is the same statement as "identical
  // transcripts" plus this test.
  constexpr std::size_t kEll = 64;
  ba::PhaseKingBinary bin;
  ba::TurpinCoan tc{bin};
  const ca::FixedLengthCA proto{ba::BAKit{&bin, &tc}};
  SyncNetwork net(7, 2);
  Transcript transcript;
  net.set_transcript(&transcript);
  for (int id = 0; id < 7; ++id) {
    if (id == 0 || id == 2) {
      net.set_byzantine(id, std::make_shared<adv::Replay>());
      continue;
    }
    net.set_honest(id, [&proto, id](PartyContext& ctx) {
      Rng rng = Rng::stream(7, static_cast<std::uint64_t>(id));
      Bitstring v = rng.bits(kEll);
      v.set_bit(0, true);  // every party's value has the same length
      (void)proto.run(ctx, kEll, std::move(v));
    });
  }
  const RunStats stats = net.run();
  std::uint64_t sum = 0;
  for (const auto& round : transcript.rounds) sum += round.honest_bytes;
  EXPECT_EQ(sum, stats.honest_bytes);
  EXPECT_GE(transcript.rounds.size(), stats.rounds);
}

TEST(SyncNetwork, ThreadWindowIsRejectedEverywhere) {
  // The serial fiber schedule is the only backend; every surface that
  // still carries a `threads` field accepts 0 or 1 and rejects the rest.
  SyncNetwork net(4, 1);
  EXPECT_NO_THROW(net.set_exec_policy(ExecPolicy::serial()));
  EXPECT_THROW(net.set_exec_policy(ExecPolicy{8}), Error);

  ca::SimConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.inputs.assign(4, BigInt(5));
  cfg.threads = 8;
  EXPECT_THROW((void)ca::run_simulation(ca::ConvexAgreement{}, cfg), Error);

  adv::CorpusEntry entry;
  entry.c.protocol = "PiZ";
  entry.c.n = 4;
  entry.c.t = 1;
  std::string json = adv::to_json(entry);
  EXPECT_NO_THROW((void)adv::corpus_entry_from_json(json));
  const std::string field = "\"threads\": 0";
  const std::size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, field.size(), "\"threads\": 8");
  EXPECT_THROW((void)adv::corpus_entry_from_json(json), Error);
}

}  // namespace
}  // namespace coca::net
