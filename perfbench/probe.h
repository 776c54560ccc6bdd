// Host-drift probe: three frozen kernels that exercise the host, not coca.
//
// The benchmark's timings move when the code changes and also when the
// host's shared caches or page-fault path get slower (other tenants, THP
// compaction, frequency changes). The probe times fixed work on each of
// those resources before set-up and again after the measured loop, so a
// noisy set shows which one moved. It is never gated.
//
// The kernels are frozen: changing one invalidates every earlier reading.
// This file and probe.cpp include nothing from the coca library.
#pragma once

namespace perfbench {

struct ProbeReading {
  double alu_ns_per_iter = 0;     // dependent xorshift chain, registers only
  double fault_us_per_mib = 0;    // 8 MiB anonymous mmap, touch, munmap
  double chase_ns_per_load = 0;   // random cycle over a 24 MiB array
};

/// Times each kernel for about `budget_s / 3` seconds.
ProbeReading run_probe(double budget_s);

}  // namespace perfbench
