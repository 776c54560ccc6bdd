#include "net/sync_network.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "obs/obs.h"

#include <sys/mman.h>
#include <unistd.h>

// Every party runs as a fiber with its own stack, which the sanitizers
// cannot follow on their own: ASan must be told which stack is live (or it
// reports stack-use-after-scope when an exception unwinds a fiber stack),
// and TSan needs one fiber context per stack. The annotations compile only
// into sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define COCA_SANITIZE_ADDRESS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COCA_SANITIZE_ADDRESS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define COCA_SANITIZE_THREAD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COCA_SANITIZE_THREAD 1
#endif
#endif
#ifdef COCA_SANITIZE_ADDRESS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef COCA_SANITIZE_THREAD
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "coca's fiber switch is written for x86-64 only"
#endif

// The fiber switch: saves the System V callee-saved registers and the
// floating-point control state (MXCSR, x87 control word) on the current
// stack, stores the stack pointer in *save_sp, loads to_sp and restores the
// same set from there. No signal mask is touched, so a switch makes no
// system call. Frame, from the saved stack pointer up:
//   [x87 cw | mxcsr | r15 | r14 | r13 | r12 | rbx | rbp | return address]
// A new fiber's hand-built frame "returns" into coca_fiber_entry, which
// calls r13(r12) on a 16-byte-aligned stack; that call never returns.
extern "C" void coca_fiber_switch(void** save_sp, void* to_sp);
extern "C" void coca_fiber_entry();
asm(R"(
  .text
  .globl coca_fiber_switch
  .hidden coca_fiber_switch
  .type coca_fiber_switch, @function
  .p2align 4
coca_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size coca_fiber_switch, .-coca_fiber_switch

  .globl coca_fiber_entry
  .hidden coca_fiber_entry
  .type coca_fiber_entry, @function
  .p2align 4
coca_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size coca_fiber_entry, .-coca_fiber_entry
)");

namespace coca::net {

namespace {

/// Thrown into protocol code to unwind runner execution contexts when the
/// controller aborts a run. Deliberately outside the coca::Error hierarchy
/// so protocol code cannot accidentally swallow it.
struct AbortSignal {};

/// Thrown into protocol code to unwind a runner when a FaultPlan crash-stop
/// fires; like AbortSignal, outside every catchable hierarchy.
struct CrashSignal {};

/// Exception text for a recorded party error (RunReport evidence).
std::string what_of(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

/// mmap-backed fiber stack with a PROT_NONE guard page at the low end, so
/// a protocol overflowing its stack faults deterministically instead of
/// corrupting a neighbouring fiber.
class FiberStack {
 public:
  static constexpr std::size_t kSize = std::size_t{1} << 20;  // 1 MiB

  FiberStack() {
    page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    base_ = ::mmap(nullptr, kSize + page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ensure(base_ != MAP_FAILED, "fiber stack mmap failed");
    ::mprotect(base_, page_, PROT_NONE);
  }
  ~FiberStack() { ::munmap(base_, kSize + page_); }
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  void* sp() { return static_cast<char*>(base_) + page_; }
  std::size_t size() const { return kSize; }

 private:
  void* base_ = nullptr;
  std::size_t page_ = 0;
};

/// This thread's finished fiber stacks, reused by the next fiber it starts.
/// It holds at most as many stacks as the thread ever ran fibers at once,
/// and frees them at thread exit; a stack never moves to another thread.
std::vector<std::unique_ptr<FiberStack>>& stack_free_list() {
  thread_local std::vector<std::unique_ptr<FiberStack>> free_list;
  return free_list;
}

/// One execution context of the engine: the controller (which runs on the
/// caller's own stack) or a party fiber (which owns a FiberStack), plus what
/// the sanitizers need to follow a swap onto it.
struct Fiber {
  void* sp = nullptr;  // saved stack pointer while switched out
  std::unique_ptr<FiberStack> stack;  // null for the controller
#ifdef COCA_SANITIZE_ADDRESS
  // Bounds of this context's stack. A party's are set when its stack is
  // made; the controller's are learned at each fiber entry.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
#endif
#ifdef COCA_SANITIZE_THREAD
  void* tsan = nullptr;
#endif

  /// Makes this a fresh fiber that runs `entry(arg)` when first switched
  /// in, on a stack from this thread's free list (or a new one). It starts
  /// with the caller's floating-point control state.
  template <class T>
  void start(void (*entry)(T*), T* arg) {
    std::vector<std::unique_ptr<FiberStack>>& free_list = stack_free_list();
    if (free_list.empty()) {
      stack = std::make_unique<FiberStack>();
    } else {
      stack = std::move(free_list.back());
      free_list.pop_back();
    }
#ifdef COCA_SANITIZE_ADDRESS
    // A reused stack keeps the poisoned redzones of the frames its last
    // fiber never returned from.
    __asan_unpoison_memory_region(stack->sp(), stack->size());
#endif
    char* const top = static_cast<char*>(stack->sp()) + stack->size();
    auto* frame = reinterpret_cast<std::uint64_t*>(
        reinterpret_cast<std::uintptr_t>(top) & ~std::uintptr_t{15});
    *--frame = reinterpret_cast<std::uintptr_t>(&coca_fiber_entry);
    *--frame = 0;  // rbp: ends frame-pointer walks
    *--frame = 0;  // rbx
    *--frame = reinterpret_cast<std::uintptr_t>(arg);    // r12
    *--frame = reinterpret_cast<std::uintptr_t>(entry);  // r13
    *--frame = 0;  // r14
    *--frame = 0;  // r15
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
    *--frame = mxcsr;
    *--frame = x87_cw;
    sp = frame;
#ifdef COCA_SANITIZE_ADDRESS
    stack_bottom = stack->sp();
    stack_size = stack->size();
#endif
#ifdef COCA_SANITIZE_THREAD
    tsan = __tsan_create_fiber(0);
#endif
  }

  /// Returns a finished fiber's stack to this thread's free list; called
  /// from the controller.
  void reset() {
#ifdef COCA_SANITIZE_THREAD
    if (tsan != nullptr) __tsan_destroy_fiber(tsan);
    tsan = nullptr;
#endif
    if (stack != nullptr) stack_free_list().push_back(std::move(stack));
  }

  /// The controller's context is the calling thread's own stack.
  void adopt_current_thread() {
#ifdef COCA_SANITIZE_THREAD
    tsan = __tsan_get_current_fiber();
#endif
  }
};

/// Switches from `self` to `to` and returns when `to` switches back. Fibers
/// only ever switch with the controller, so the context resuming `self` is
/// always `to`, and ASan's report of the stack we came back from describes
/// `to`.
void switch_fiber(Fiber& self, Fiber& to) {
#ifdef COCA_SANITIZE_ADDRESS
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, to.stack_bottom, to.stack_size);
#endif
#ifdef COCA_SANITIZE_THREAD
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  coca_fiber_switch(&self.sp, to.sp);
#ifdef COCA_SANITIZE_ADDRESS
  __sanitizer_finish_switch_fiber(fake_stack, &to.stack_bottom, &to.stack_size);
#endif
}

/// First statement of a new fiber: completes the controller's swap onto it.
void enter_fiber(Fiber& controller) {
#ifdef COCA_SANITIZE_ADDRESS
  __sanitizer_finish_switch_fiber(nullptr, &controller.stack_bottom,
                                  &controller.stack_size);
#else
  (void)controller;
#endif
}

/// Last statement of a finished fiber: swaps to the controller for good.
/// ASan drops the dying fiber's fake stack (nullptr save slot).
[[noreturn]] void exit_fiber(Fiber& self, Fiber& controller) {
#ifdef COCA_SANITIZE_ADDRESS
  __sanitizer_start_switch_fiber(nullptr, controller.stack_bottom,
                                 controller.stack_size);
#endif
#ifdef COCA_SANITIZE_THREAD
  __tsan_switch_to_fiber(controller.tsan, 0);
#endif
  coca_fiber_switch(&self.sp, controller.sp);
  std::abort();  // a finished fiber is never resumed
}

}  // namespace

std::vector<Envelope> first_per_sender(const std::vector<Envelope>& inbox) {
  // View copies only (refcount bumps); the rvalue overload does the work.
  return first_per_sender(std::vector<Envelope>(inbox));
}

std::vector<Envelope> first_per_sender(std::vector<Envelope>&& inbox) {
  // Canonicalize by sender id first: engine inboxes already arrive sorted
  // (this is a no-op there), but a FaultPlan inbox shuffle -- or any other
  // delivery-order adversary -- must not change what protocols consume.
  // The stable sort keeps first-delivered-wins within a sender.
  std::stable_sort(inbox.begin(), inbox.end(),
                   [](const Envelope& a, const Envelope& b) {
                     return a.from < b.from;
                   });
  std::size_t kept = 0;
  int last_from = -1;
  for (Envelope& e : inbox) {
    if (e.from != last_from) {
      last_from = e.from;
      if (kept != static_cast<std::size_t>(&e - inbox.data())) {
        inbox[kept] = std::move(e);
      }
      ++kept;
    }
  }
  inbox.resize(kept);
  return std::move(inbox);
}

struct SyncNetwork::Runner {
  int party = -1;
  bool honest = false;  // counts toward honest cost metrics
  // Split-brain recipient filter; nullopt = may talk to everyone.
  std::optional<std::set<int>> allowed;
  // Outgoing-message wrapper for tapped byzantine protocol runners; the
  // local round counter feeds its on_send/on_round_start callbacks. Both
  // are touched only by the runner's own execution context.
  std::shared_ptr<SendTap> tap;
  std::size_t local_round = 0;
  ProtocolFn fn;
  std::unique_ptr<PartyContext> ctx;

  // The runner's cooperative fiber on the controller's thread; releasing
  // it for a round slice is one coca_fiber_switch.
  Fiber fiber;
  Impl* impl = nullptr;  // backpointer for the fiber trampoline

  enum class State { AtBarrier, Running, Finished };
  State state = State::AtBarrier;
  std::exception_ptr error;
  std::vector<Envelope> inbox_next;  // written by controller pre-release

  // ---- FaultPlan plumbing. `crash_unwind` is set by the controller while
  // the runner is parked; the runner observes it at its next release and
  // unwinds with CrashSignal. `crashed_by_plan` / `decided` feed RunReport.
  bool crash_unwind = false;
  bool crashed_by_plan = false;
  bool decided = false;  // protocol function returned normally

  // Runner-local staging and metrics: written only by the runner's own
  // fiber while Running, read by the controller only while the runner is
  // parked at the barrier or finished. The controller merges outboxes in
  // canonical runner-table order at the barrier, which fixes the delivery
  // order independently of how the slices were scheduled.
  struct Staged {
    int to;
    Payload payload;
  };
  std::vector<Staged> outbox;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  /// One open PhaseScope. The counters are its entries in phase_bytes and
  /// phase_leaf_bytes, looked up at the first send that needs them (map
  /// nodes never move), so a send compares no strings and a phase that
  /// sends nothing creates no key.
  struct PhaseFrame {
    std::string name;
    std::uint64_t* bytes = nullptr;
    std::uint64_t* leaf_bytes = nullptr;
  };
  std::vector<PhaseFrame> phase_stack;
  std::map<std::string, std::uint64_t> phase_bytes;
  // Leaf-charged companion to phase_bytes: each send counts only in the
  // innermost open phase (kUnattributedPhase when none), so the values sum
  // exactly to bytes_sent.
  std::map<std::string, std::uint64_t> phase_leaf_bytes;
  PhaseFrame unphased{kUnattributedPhase};  // leaf of sends outside phases
  // Phase stack at the moment an unwind first popped it; seals the "where
  // did this party die" attribution for PartyOutcome::phase. Cleared at
  // every slice start so protocol-internal caught exceptions don't stick.
  std::string fail_phase;

  // ---- Observability (inert unless a tracer is installed for the run).
  int obs_track = -1;        // phase + kernel spans, send charges
  int obs_slice_track = -1;  // one span per executed round slice

  /// Fiber entry point: runs the protocol function inside the fiber and
  /// swaps back to the controller when it finishes (or unwinds).
  static void fiber_trampoline(Runner* r);
};

struct SyncNetwork::Scripted {
  int party = -1;
  std::shared_ptr<ByzantineStrategy> strategy;
  std::vector<Envelope> inbox;
  std::vector<Envelope> inbox_next;  // pooled build buffer, swapped per round
  std::uint64_t bytes_sent = 0;
  Rng rng{0};
};

struct SyncNetwork::Impl {
  int n = 0;
  bool abort = false;
  Fiber controller;
  Transcript* transcript = nullptr;  // optional recording sink
  RoundObserver* round_observer = nullptr;  // optional per-round hook
  RoundRouter* router = nullptr;            // optional round transport
  std::string transport_error;              // reason of a router failure

  // ---- Observability (null tracer = every hook below is one branch).
  obs::Tracer* tracer = nullptr;
  int obs_engine_track = -1;
  // Engine round of the slice currently executing; written by the
  // controller before it releases the round's first fiber.
  std::size_t current_round = 0;

  std::vector<std::unique_ptr<Runner>> runners;
  std::vector<std::unique_ptr<Scripted>> scripted;
  std::vector<int> role_of_party;  // 0 = unset, 1 = honest, 2 = byzantine

  // ---- Environment faults (empty plan = all of this is inert).
  FaultPlan plan;
  FaultStats faults;
  std::vector<char> crash_started;    // parallel to plan.crashes
  std::vector<char> crash_recovered;  // parallel to plan.crashes

  /// One delivered (from, to, payload-view) message on the wire.
  struct Triplet {
    int from;
    int to;
    Payload payload;
  };

  // Pooled per-round scratch: cleared (capacity kept) instead of
  // reallocated every round.
  std::vector<Triplet> wire;
  std::vector<Triplet> byz_wire;
  std::vector<RoundView::Sent> honest_traffic;
  // party id -> indices into runners / scripted (built once per run);
  // routing one round is O(messages), not O(messages * parties).
  std::vector<std::vector<std::size_t>> runners_of_party;
  std::vector<std::vector<std::size_t>> scripted_of_party;
  std::vector<std::size_t> runner_msg_count;
  std::vector<std::size_t> scripted_msg_count;

  void build_routing_index() {
    runners_of_party.assign(static_cast<std::size_t>(n), {});
    scripted_of_party.assign(static_cast<std::size_t>(n), {});
    for (std::size_t i = 0; i < runners.size(); ++i) {
      runners_of_party[static_cast<std::size_t>(runners[i]->party)]
          .push_back(i);
    }
    for (std::size_t i = 0; i < scripted.size(); ++i) {
      scripted_of_party[static_cast<std::size_t>(scripted[i]->party)]
          .push_back(i);
    }
    runner_msg_count.assign(runners.size(), 0);
    scripted_msg_count.assign(scripted.size(), 0);
  }

  /// Updates crash-window bookkeeping for slice `round` and marks runners
  /// whose crash-stop fires: they are released once more and unwind with
  /// CrashSignal. Runners inside a crash-recovery window are simply not
  /// released this slice (see skip_this_slice); their parked stack is the
  /// "persisted state" they resume from.
  void begin_slice_faults(std::size_t round) {
    if (plan.empty()) return;
    for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
      const FaultPlan::Crash& c = plan.crashes[i];
      if (!crash_started[i] && round >= c.from_round) {
        crash_started[i] = 1;
        ++faults.crashes_injected;
      }
      if (c.until_round != kNoRecovery && !crash_recovered[i] &&
          round >= c.until_round) {
        crash_recovered[i] = 1;
        ++faults.recoveries;
      }
    }
    for (auto& rp : runners) {
      if (rp->state == Runner::State::Finished) continue;
      if (plan.crash_stopped(rp->party, round)) {
        rp->crash_unwind = true;
      } else if (plan.crashed(rp->party, round)) {
        ++faults.rounds_missed;  // frozen for this slice
      }
    }
    for (auto& s : scripted) {
      if (plan.crashed(s->party, round) &&
          !plan.crash_stopped(s->party, round)) {
        ++faults.rounds_missed;
      }
    }
  }

  /// True iff `r` sits in a crash-recovery window at `round` and must not
  /// be released this slice. Crash-stop victims are *not* skipped: they get
  /// released exactly once more so their stack unwinds.
  bool skip_this_slice(const Runner& r, std::size_t round) const {
    return !r.crash_unwind && !plan.empty() && plan.crashed(r.party, round);
  }

  /// Removes cut/partitioned traffic from `v` (metering already happened:
  /// the sender pays for bytes the network loses).
  void filter_cut_links(std::vector<Triplet>& v, std::size_t round) {
    if (plan.cuts.empty() && plan.partitions.empty()) return;
    const auto cut = [&](const Triplet& m) {
      return plan.link_cut(m.from, m.to, round);
    };
    const auto first = std::remove_if(v.begin(), v.end(), cut);
    faults.messages_dropped +=
        static_cast<std::uint64_t>(std::distance(first, v.end()));
    v.erase(first, v.end());
  }

  /// Permutes the freshly routed inboxes of shuffle-covered recipients with
  /// a per-(seed, party, round) stream: deterministic, independent of the
  /// schedule, identical for both halves of a split-brain party.
  void apply_shuffles(std::size_t round) {
    if (plan.shuffles.empty()) return;
    const auto permute = [&](std::vector<Envelope>& inbox, int party,
                             std::uint64_t seed) {
      if (inbox.size() < 2) return;
      Rng rng(Rng::derive_stream_seed(
          kShuffleSeedDomain ^ seed,
          (static_cast<std::uint64_t>(round) << 16) |
              static_cast<std::uint64_t>(party)));
      for (std::size_t i = inbox.size() - 1; i > 0; --i) {
        std::swap(inbox[i], inbox[rng.below(i + 1)]);
      }
      ++faults.inboxes_shuffled;
    };
    for (auto& r : runners) {
      if (const auto seed = plan.shuffle_seed(r->party)) {
        permute(r->inbox_next, r->party, *seed);
      }
    }
    for (auto& s : scripted) {
      if (const auto seed = plan.shuffle_seed(s->party)) {
        permute(s->inbox_next, s->party, *seed);
      }
    }
  }

  /// Drains all staged outboxes into `wire` as (from, to, payload) triplets
  /// in canonical order -- runner-table order, send order within a runner --
  /// and sums the bytes/messages honest runners staged. Payloads move; no
  /// copies.
  void drain_outboxes(std::uint64_t* honest_bytes,
                      std::uint64_t* honest_msgs) {
    wire.clear();
    for (auto& r : runners) {
      for (auto& staged : r->outbox) {
        if (r->honest) {
          *honest_bytes += staged.payload.size();
          *honest_msgs += 1;
        }
        wire.push_back({r->party, staged.to, std::move(staged.payload)});
      }
      r->outbox.clear();
    }
  }

  /// Carries the canonically sorted `wire` across the installed
  /// RoundRouter (no-op without one). The transcript and the inboxes
  /// consume the payloads the transport returned, so a daemon that
  /// corrupts bytes surfaces as a transcript mismatch in the conformance
  /// suite. Returns false on transport failure (`transport_error` set);
  /// addressing/order mismatches are treated as transport failures too,
  /// keeping run_report()'s never-throws contract against a buggy daemon.
  bool route_wire(std::size_t round) {
    if (router == nullptr) return true;
    std::vector<WireMessage> staged;
    staged.reserve(wire.size());
    for (Triplet& m : wire) {
      staged.push_back({m.from, m.to, std::move(m.payload)});
    }
    std::optional<std::vector<WireMessage>> routed =
        router->route(round, std::move(staged));
    if (!routed.has_value()) {
      transport_error = router->failure_reason();
      return false;
    }
    if (routed->size() != wire.size()) {
      transport_error = "round router returned " +
                        std::to_string(routed->size()) + " messages, staged " +
                        std::to_string(wire.size());
      return false;
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
      WireMessage& m = (*routed)[i];
      if (m.from != wire[i].from || m.to != wire[i].to) {
        transport_error = "round router reordered or readdressed message " +
                          std::to_string(i);
        return false;
      }
      wire[i].payload = std::move(m.payload);
    }
    return true;
  }

  /// Delivers one round: all runners are parked (or finished), so their
  /// outboxes and metrics are safe to touch. Returns false iff the
  /// installed RoundRouter failed to carry the round (never without one).
  bool deliver_round(std::size_t round) {
    std::uint64_t round_honest_bytes = 0;
    std::uint64_t round_honest_msgs = 0;
    drain_outboxes(&round_honest_bytes, &round_honest_msgs);
    if (tracer != nullptr) {
      // The innermost open engine span is this round's span.
      tracer->charge(obs_engine_track, round_honest_bytes, round_honest_msgs);
    }
    if (round_observer != nullptr) {
      round_observer->on_round(round, round_honest_bytes, round_honest_msgs);
    }
    // Environment link faults sit *below* the adversary: cut traffic
    // vanishes before the rushing adversary observes the round and before
    // the transcript records it.
    filter_cut_links(wire, round);
    honest_traffic.clear();
    for (const Triplet& m : wire) {
      honest_traffic.push_back({m.from, m.to, &m.payload});
    }
    // Scripted byzantine parties act last within the round (rushing).
    // Their sends are staged separately: honest_traffic points into `wire`,
    // which must stay unmodified while strategies run.
    byz_wire.clear();
    for (auto& s : scripted) {
      // A crashed scripted party sends nothing this round.
      if (!plan.empty() && plan.crashed(s->party, round)) continue;
      RoundView view;
      view.round = round;
      view.self = s->party;
      view.n = n;
      view.t = t_for_views;
      view.inbox = &s->inbox;
      view.honest_traffic = &honest_traffic;
      view.rng = &s->rng;
      s->strategy->on_round(view, [&](int to, Bytes payload) {
        require(to >= 0 && to < n,
                "ByzantineStrategy sent to out-of-range recipient");
        s->bytes_sent += payload.size();
        byz_wire.push_back({s->party, to, Payload(std::move(payload))});
      });
    }
    filter_cut_links(byz_wire, round);
    for (auto& m : byz_wire) wire.push_back(std::move(m));
    byz_wire.clear();

    // Route, ordered by sender id (stable within a sender).
    std::stable_sort(wire.begin(), wire.end(),
                     [](const Triplet& a, const Triplet& b) {
                       return a.from < b.from;
                     });
    // Transport seam: the merged round leaves the process here. Everything
    // below -- transcript, inboxes -- consumes what came back off the wire.
    if (!route_wire(round)) {
      wire.clear();
      return false;
    }
    if (transcript != nullptr) {
      Transcript::Round rec;
      rec.honest_bytes = round_honest_bytes;
      rec.messages.reserve(wire.size());
      for (const Triplet& m : wire) {
        rec.messages.push_back({m.from, m.to, m.payload});  // view copy
      }
      transcript->rounds.push_back(std::move(rec));
    }
    // Two-pass routing: count, reserve, fill -- every inbox is one exact
    // allocation and every delivered payload a view of the sender's buffer.
    std::fill(runner_msg_count.begin(), runner_msg_count.end(), 0);
    std::fill(scripted_msg_count.begin(), scripted_msg_count.end(), 0);
    for (const Triplet& m : wire) {
      const auto to = static_cast<std::size_t>(m.to);
      for (const std::size_t i : runners_of_party[to]) ++runner_msg_count[i];
      for (const std::size_t i : scripted_of_party[to]) {
        ++scripted_msg_count[i];
      }
    }
    for (std::size_t i = 0; i < runners.size(); ++i) {
      runners[i]->inbox_next.clear();
      runners[i]->inbox_next.reserve(runner_msg_count[i]);
    }
    for (std::size_t i = 0; i < scripted.size(); ++i) {
      scripted[i]->inbox_next.clear();
      scripted[i]->inbox_next.reserve(scripted_msg_count[i]);
    }
    for (const Triplet& m : wire) {
      const auto to = static_cast<std::size_t>(m.to);
      for (const std::size_t i : runners_of_party[to]) {
        runners[i]->inbox_next.push_back({m.from, m.payload});
      }
      for (const std::size_t i : scripted_of_party[to]) {
        scripted[i]->inbox_next.push_back({m.from, m.payload});
      }
      // A recipient inside a crash window when this delivery would be
      // consumed (slice round+1) never sees it: a frozen runner's
      // inbox_next is overwritten by later rounds, a crash-stopped one is
      // gone. The message stays in the transcript (the network delivered
      // it; the party was dead) -- only the counter records the loss.
      if (!plan.empty() && plan.crashed(m.to, round + 1)) {
        ++faults.messages_dropped;
      }
    }
    if (!plan.empty()) apply_shuffles(round);
    for (auto& s : scripted) {
      std::swap(s->inbox, s->inbox_next);
      s->inbox_next.clear();
    }
    wire.clear();
    return true;
  }

  /// Drains leftover sends (staged after a party's last advance()) into a
  /// trailing transcript round so per-round bytes sum to the run totals.
  void record_leftovers(std::size_t round) {
    if (transcript == nullptr) return;
    std::uint64_t leftover_honest_bytes = 0;
    std::uint64_t leftover_honest_msgs = 0;
    drain_outboxes(&leftover_honest_bytes, &leftover_honest_msgs);
    filter_cut_links(wire, round);
    if (wire.empty()) return;
    std::stable_sort(wire.begin(), wire.end(),
                     [](const Triplet& a, const Triplet& b) {
                       return a.from < b.from;
                     });
    Transcript::Round rec;
    rec.honest_bytes = leftover_honest_bytes;
    for (Triplet& m : wire) {
      rec.messages.push_back({m.from, m.to, std::move(m.payload)});
    }
    transcript->rounds.push_back(std::move(rec));
    wire.clear();
  }

  int t_for_views = 0;  // network t, for RoundView
};

void SyncNetwork::Runner::fiber_trampoline(Runner* r) {
  Fiber& controller = r->impl->controller;
  enter_fiber(controller);
  try {
    r->state = State::Running;
    // A fiber first swapped in during an abort unwind, or with a round-0
    // crash-stop pending, runs zero protocol statements.
    if (r->impl->abort) throw AbortSignal{};
    if (r->crash_unwind) throw CrashSignal{};
    r->fn(*r->ctx);
    r->decided = true;
  } catch (const AbortSignal&) {
    // Controller-initiated unwind; not an error.
  } catch (const CrashSignal&) {
    r->crashed_by_plan = true;  // FaultPlan crash-stop; not an error.
  } catch (...) {
    r->error = std::current_exception();
  }
  r->state = State::Finished;
  exit_fiber(r->fiber, controller);
}

SyncNetwork::SyncNetwork(int n, int t) : n_(n), t_(t) {
  require(n >= 1 && t >= 0 && t < n, "SyncNetwork: need 0 <= t < n");
  impl_ = std::make_unique<Impl>();
  impl_->n = n;
  impl_->t_for_views = t;
  impl_->role_of_party.assign(static_cast<std::size_t>(n), 0);
}

SyncNetwork::~SyncNetwork() = default;

int PartyContext::n() const { return net_.n(); }
int PartyContext::t() const { return net_.t(); }

void PartyContext::send(int to, Bytes payload) {
  net_.runner_send(runner_, to, Payload(std::move(payload)), "unicast");
}

void PartyContext::send(int to, Payload payload) {
  net_.runner_send(runner_, to, std::move(payload), "unicast");
}

void PartyContext::send_all(Payload payload) {
  // One shared buffer for all n recipients: each stage is a refcount bump.
  for (int to = 0; to < n(); ++to) {
    net_.runner_send(runner_, to, payload, "broadcast");
  }
}

std::vector<Envelope> PartyContext::advance() {
  return net_.runner_advance(runner_);
}

PartyContext::PhaseScope::PhaseScope(PartyContext& ctx, std::string name)
    : ctx_(ctx) {
  ctx_.net_.runner_push_phase(ctx_.runner_, std::move(name));
}

PartyContext::PhaseScope::~PhaseScope() {
  ctx_.net_.runner_pop_phase(ctx_.runner_);
}

void SyncNetwork::set_honest(int id, ProtocolFn fn) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_honest: bad or already-assigned id");
  impl_->role_of_party[id] = 1;
  auto r = std::make_unique<Runner>();
  r->party = id;
  r->honest = true;
  r->fn = std::move(fn);
  const std::size_t idx = impl_->runners.size();
  r->ctx.reset(new PartyContext(
      *this, idx, id,
      Rng::derive_stream_seed(kRunnerSeedDomain, runner_stream_key(id, idx))));
  impl_->runners.push_back(std::move(r));
}

void SyncNetwork::set_byzantine(int id,
                                std::shared_ptr<ByzantineStrategy> strategy) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_byzantine: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  auto s = std::make_unique<Scripted>();
  s->party = id;
  s->strategy = std::move(strategy);
  s->rng = Rng::stream(kScriptedSeedDomain, static_cast<std::uint64_t>(id));
  impl_->scripted.push_back(std::move(s));
}

void SyncNetwork::set_byzantine_protocol(int id, ProtocolFn fn) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_byzantine_protocol: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  auto r = std::make_unique<Runner>();
  r->party = id;
  r->honest = false;
  r->fn = std::move(fn);
  const std::size_t idx = impl_->runners.size();
  r->ctx.reset(new PartyContext(
      *this, idx, id,
      Rng::derive_stream_seed(kRunnerSeedDomain, runner_stream_key(id, idx))));
  impl_->runners.push_back(std::move(r));
}

void SyncNetwork::set_byzantine_protocol(int id, ProtocolFn fn,
                                         std::shared_ptr<SendTap> tap) {
  set_byzantine_protocol(id, std::move(fn));
  impl_->runners.back()->tap = std::move(tap);
}

void SyncNetwork::set_split_brain(int id, ProtocolFn a, ProtocolFn b,
                                  std::set<int> recipients_of_a) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_split_brain: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  std::set<int> recipients_of_b;
  for (int p = 0; p < n_; ++p) {
    if (!recipients_of_a.contains(p)) recipients_of_b.insert(p);
  }
  for (int half = 0; half < 2; ++half) {
    auto r = std::make_unique<Runner>();
    r->party = id;
    r->honest = false;
    r->allowed = half == 0 ? recipients_of_a : recipients_of_b;
    r->fn = half == 0 ? std::move(a) : std::move(b);
    const std::size_t idx = impl_->runners.size();
    r->ctx.reset(new PartyContext(*this, idx, id,
                                  Rng::derive_stream_seed(
                                      kRunnerSeedDomain,
                                      runner_stream_key(id, idx))));
    impl_->runners.push_back(std::move(r));
  }
}

void SyncNetwork::set_exec_policy(ExecPolicy policy) {
  require(policy.threads == 0 || policy.threads == 1,
          "SyncNetwork::set_exec_policy: only the serial schedule (threads "
          "0 or 1) exists");
}

void SyncNetwork::set_transcript(Transcript* sink) {
  impl_->transcript = sink;
}

void SyncNetwork::set_round_observer(RoundObserver* observer) {
  impl_->round_observer = observer;
}

void SyncNetwork::set_round_router(RoundRouter* router) {
  impl_->router = router;
}

void SyncNetwork::set_fault_plan(FaultPlan plan) {
  plan.validate(n_);
  impl_->plan = std::move(plan);
}

const FaultPlan& SyncNetwork::fault_plan() const { return impl_->plan; }

void SyncNetwork::set_tracer(obs::Tracer* tracer) { impl_->tracer = tracer; }

void SyncNetwork::runner_send(std::size_t runner_index, int to,
                              Payload payload, const char* kind) {
  Runner& r = *impl_->runners[runner_index];
  if (r.tap != nullptr) {
    r.tap->on_send(r.local_round, to, std::move(payload),
                   [this, runner_index](int tap_to, Payload tap_payload) {
                     runner_stage(runner_index, tap_to,
                                  std::move(tap_payload), "tap");
                   });
    return;
  }
  runner_stage(runner_index, to, std::move(payload), kind);
}

void SyncNetwork::runner_stage(std::size_t runner_index, int to,
                               Payload payload, const char* kind) {
  Runner& r = *impl_->runners[runner_index];
  require(to >= 0 && to < n_, "PartyContext::send: recipient out of range");
  if (r.allowed && !r.allowed->contains(to)) return;  // split-brain filter
  const std::uint64_t size = payload.size();
  r.bytes_sent += size;
  r.messages_sent += 1;
  for (Runner::PhaseFrame& f : r.phase_stack) {
    if (f.bytes == nullptr) f.bytes = &r.phase_bytes[f.name];
    *f.bytes += size;
  }
  Runner::PhaseFrame& leaf =
      r.phase_stack.empty() ? r.unphased : r.phase_stack.back();
  if (leaf.leaf_bytes == nullptr) {
    leaf.leaf_bytes = &r.phase_leaf_bytes[leaf.name];
  }
  *leaf.leaf_bytes += size;
  if (obs::Tracer* tr = impl_->tracer; tr != nullptr) {
    tr->charge(r.obs_track, size, 1);
    // Per-(party, phase, message-kind) attribution; the party is the track.
    std::string key;
    key.reserve(leaf.name.size() + 16);
    key += "bytes.";
    key += leaf.name;
    key += '.';
    key += kind;
    tr->count(r.obs_track, key, size);
    key.replace(0, 5, "msgs");
    tr->count(r.obs_track, key, 1);
    tr->observe(r.obs_track, "send.bytes", size);
  }
  r.outbox.push_back({to, std::move(payload)});
}

void SyncNetwork::runner_push_phase(std::size_t runner_index,
                                    std::string name) {
  Runner& r = *impl_->runners[runner_index];
  if (obs::Tracer* tr = impl_->tracer; tr != nullptr) {
    tr->begin(r.obs_track, name, "phase", impl_->current_round);
  }
  r.phase_stack.push_back({std::move(name)});
}

void SyncNetwork::runner_pop_phase(std::size_t runner_index) {
  Runner& r = *impl_->runners[runner_index];
  ensure(!r.phase_stack.empty(), "phase pop without matching push");
  if (std::uncaught_exceptions() > 0 && r.fail_phase.empty()) {
    // First pop of a stack unwind (protocol exception, AbortSignal or
    // CrashSignal): seal the full phase stack as the failure location.
    for (const Runner::PhaseFrame& f : r.phase_stack) {
      if (!r.fail_phase.empty()) r.fail_phase += '/';
      r.fail_phase += f.name;
    }
  }
  if (obs::Tracer* tr = impl_->tracer; tr != nullptr) {
    tr->end(r.obs_track);
  }
  r.phase_stack.pop_back();
}

std::vector<Envelope> SyncNetwork::runner_advance(std::size_t runner_index) {
  Runner& r = *impl_->runners[runner_index];
  // Cooperative barrier: one fiber switch to the controller, which resumes
  // this fiber at the start of the next round slice. No locks: the whole
  // network runs on one OS thread. Slice spans and the kernel-span thread
  // scope are managed by the controller around the swap.
  r.state = Runner::State::AtBarrier;
  switch_fiber(r.fiber, impl_->controller);
  if (impl_->abort) throw AbortSignal{};
  if (r.crash_unwind) throw CrashSignal{};
  r.state = Runner::State::Running;
  r.fail_phase.clear();
  std::vector<Envelope> inbox = std::exchange(r.inbox_next, {});
  // The runner entered the next round; let a tap flush held-back messages
  // before the wrapped protocol stages its own (staging is runner-local).
  ++r.local_round;
  if (r.tap != nullptr) {
    r.tap->on_round_start(r.local_round,
                          [this, runner_index](int to, Payload payload) {
                            runner_stage(runner_index, to, std::move(payload),
                                         "tap");
                          });
  }
  return inbox;
}

RunStats SyncNetwork::run(std::size_t max_rounds) {
  std::exception_ptr first_error;
  std::string failure_reason;
  RunReport rep = run_impl(max_rounds, /*guarded=*/false, &first_error,
                           &failure_reason);
  if (first_error) std::rethrow_exception(first_error);
  if (!failure_reason.empty()) throw Error(failure_reason);
  return std::move(rep.stats);
}

RunReport SyncNetwork::run_report(std::size_t max_rounds) {
  std::exception_ptr first_error;
  std::string failure_reason;
  return run_impl(max_rounds, /*guarded=*/true, &first_error, &failure_reason);
}

RunReport SyncNetwork::run_impl(std::size_t max_rounds, bool guarded,
                                std::exception_ptr* first_error,
                                std::string* failure_reason) {
  Impl& im = *impl_;
  for (int p = 0; p < n_; ++p) {
    require(im.role_of_party[p] != 0,
            "SyncNetwork::run: every party needs a role before running");
  }
  if (im.transcript) im.transcript->rounds.clear();
  im.build_routing_index();
  im.faults = FaultStats{};
  im.crash_started.assign(im.plan.crashes.size(), 0);
  im.crash_recovered.assign(im.plan.crashes.size(), 0);
  im.current_round = 0;
  if (obs::Tracer* tr = im.tracer; tr != nullptr) {
    // Pre-run track registration (the only time the tracer's track table
    // grows; afterwards each track is written by one execution context).
    im.obs_engine_track = tr->add_track("engine", "engine", false);
    for (auto& rp : im.runners) {
      std::string label = "party " + std::to_string(rp->party);
      if (im.runners_of_party[static_cast<std::size_t>(rp->party)].size() >
          1) {
        // Split-brain halves share a wire id; disambiguate by half.
        const auto& of_party =
            im.runners_of_party[static_cast<std::size_t>(rp->party)];
        const std::size_t self =
            static_cast<std::size_t>(&rp - im.runners.data());
        label += of_party.front() == self ? " (a)" : " (b)";
      }
      rp->obs_track = tr->add_track(label, "party", rp->honest);
      rp->obs_slice_track = tr->add_track(label + " slices", "slices", false);
    }
  }
  // Per-run payload-copy attribution: every fiber runs on the controller's
  // thread, so its thread-local delta covers the whole run and keeps
  // concurrent runs in other threads out.
  const std::uint64_t ctl_copies_before = PayloadMetrics::thread_copies();
  const std::uint64_t ctl_bytes_copied_before =
      PayloadMetrics::thread_bytes_copied();

  im.transport_error.clear();
  std::size_t rounds = 0;
  std::exception_ptr failure;
  bool timed_out = false;
  bool transport_failed = false;
  const auto begin_round_span = [&] {
    if (im.tracer != nullptr) {
      im.tracer->begin(im.obs_engine_track, "round " + std::to_string(rounds),
                       "round", rounds);
    }
  };
  const auto end_round_span = [&] {
    if (im.tracer != nullptr) im.tracer->end(im.obs_engine_track);
  };
  const auto all_finished = [&] {
    return std::all_of(im.runners.begin(), im.runners.end(), [](auto& r) {
      return r->state == Runner::State::Finished;
    });
  };

  // Every runner is a cooperative fiber; the controller swaps into each in
  // canonical order, delivers, repeats.
  im.controller.adopt_current_thread();
  for (auto& rp : im.runners) {
    rp->impl = &im;
    rp->fiber.start(&Runner::fiber_trampoline, rp.get());
  }
  for (;;) {
    im.current_round = rounds;
    im.begin_slice_faults(rounds);
    begin_round_span();
    for (auto& rp : im.runners) {
      if (rp->state == Runner::State::Finished) continue;
      if (im.skip_this_slice(*rp, rounds)) continue;
      if (obs::Tracer* tr = im.tracer; tr != nullptr) {
        tr->begin(rp->obs_slice_track, "slice", "slice", rounds);
        obs::thread_scope() = {tr, rp->obs_track, rounds};
      }
      switch_fiber(im.controller, rp->fiber);
      if (obs::Tracer* tr = im.tracer; tr != nullptr) {
        obs::thread_scope() = {};
        tr->end(rp->obs_slice_track);
      }
    }
    // Guarded mode is the exception barrier: a throwing party is already
    // parked as Finished-with-error and the run simply continues without
    // it. Legacy mode aborts the whole run on the first error.
    if (!guarded) {
      for (auto& r : im.runners) {
        if (r->error && !failure) failure = r->error;
      }
      if (failure) {
        end_round_span();
        break;
      }
    }
    if (all_finished()) {
      end_round_span();
      break;
    }
    if (rounds >= max_rounds) {
      timed_out = true;
      end_round_span();
      break;
    }
    if (!im.deliver_round(rounds)) {
      transport_failed = true;
      timed_out = true;  // stragglers report as TimedOut below
      end_round_span();
      break;
    }
    end_round_span();
    ++rounds;
  }
  if (failure || timed_out) {
    // Unwind every parked fiber so protocol stack frames run their
    // destructors before the stacks are freed.
    im.abort = true;
    for (auto& rp : im.runners) {
      if (rp->state != Runner::State::Finished) {
        switch_fiber(im.controller, rp->fiber);
      }
    }
    im.abort = false;
  } else {
    im.record_leftovers(rounds);
  }
  for (auto& rp : im.runners) rp->fiber.reset();

  // Legacy (non-guarded) failure plumbing: the caller rethrows.
  *first_error = failure;
  if (!guarded && timed_out) {
    *failure_reason =
        transport_failed
            ? "SyncNetwork: transport failure: " + im.transport_error
            : "SyncNetwork: max round count exceeded";
  }

  RunReport rep;
  rep.timed_out = timed_out;
  rep.transport_failed = transport_failed;
  rep.transport_error = im.transport_error;
  RunStats& stats = rep.stats;
  stats.rounds = rounds;
  stats.faults = im.faults;
  stats.payload_copies =
      PayloadMetrics::thread_copies() - ctl_copies_before;
  stats.payload_bytes_copied =
      PayloadMetrics::thread_bytes_copied() - ctl_bytes_copied_before;
  stats.bytes_by_party.assign(static_cast<std::size_t>(n_), 0);
  for (const auto& r : im.runners) {
    stats.bytes_by_party[static_cast<std::size_t>(r->party)] += r->bytes_sent;
    if (r->honest) {
      stats.honest_bytes += r->bytes_sent;
      stats.honest_messages += r->messages_sent;
      for (const auto& [name, bytes] : r->phase_bytes) {
        stats.honest_bytes_by_phase[name] += bytes;
      }
      for (const auto& [name, bytes] : r->phase_leaf_bytes) {
        stats.phase_breakdown[name] += bytes;
      }
    }
  }
  for (const auto& s : im.scripted) {
    stats.bytes_by_party[static_cast<std::size_t>(s->party)] += s->bytes_sent;
  }

  // Per-party outcomes, worst over a party's runners (split-brain owns two).
  rep.outcomes.assign(static_cast<std::size_t>(n_), PartyOutcome{});
  const auto note = [&](int party, Outcome o, std::string ev,
                        std::string phase) {
    PartyOutcome& po = rep.outcomes[static_cast<std::size_t>(party)];
    if (static_cast<int>(o) > static_cast<int>(po.outcome)) {
      po.outcome = o;
      po.evidence = std::move(ev);
      po.phase = std::move(phase);
    }
  };
  for (const auto& r : im.runners) {
    if (r->error) {
      note(r->party, Outcome::kAborted, what_of(r->error), r->fail_phase);
    } else if (r->crashed_by_plan) {
      note(r->party, Outcome::kCrashed, "fault-plan crash-stop",
           r->fail_phase);
    } else if (!r->decided) {
      note(r->party, Outcome::kTimedOut,
           "still running after round " + std::to_string(rounds),
           r->fail_phase);
    }
  }
  for (const auto& s : im.scripted) {
    if (!im.plan.empty() && im.plan.crash_stopped(s->party, rounds)) {
      note(s->party, Outcome::kCrashed, "fault-plan crash-stop", "");
    }
  }

  if (obs::Tracer* tr = im.tracer; tr != nullptr) {
    // Whole-run counters on the engine track; wall.ns is 0 in canonical
    // (timing-off) mode, keeping the metrics export schedule-deterministic.
    tr->count(im.obs_engine_track, "rounds", stats.rounds);
    tr->count(im.obs_engine_track, "honest.bytes", stats.honest_bytes);
    tr->count(im.obs_engine_track, "honest.messages", stats.honest_messages);
    tr->count(im.obs_engine_track, "payload.copies", stats.payload_copies);
    tr->count(im.obs_engine_track, "payload.bytes_copied",
              stats.payload_bytes_copied);
    tr->count(im.obs_engine_track, "wall.ns", tr->now_ns());
  }
  return rep;
}

}  // namespace coca::net
