// Compatibility residue of the removed round-engine schedule knob.
//
// SyncNetwork has a single backend: every party is a fiber, released one at
// a time in canonical order (see net/sync_network.h). `ExecPolicy` survives
// only so that existing callers -- the benchmark harness among them --
// still compile: `SyncNetwork::set_exec_policy` accepts `threads` 0 or 1 and
// rejects every other value. Removed together with those callers in the
// next benchmark change.
#pragma once

namespace coca::net {

struct ExecPolicy {
  int threads = 0;  // 0 or 1: the serial fiber schedule

  static ExecPolicy serial() { return {1}; }
};

}  // namespace coca::net
