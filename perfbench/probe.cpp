#include "probe.h"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double alu_ns_per_iter(double budget_s) {
  constexpr std::uint64_t kChunk = 1u << 20;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      asm volatile("" : "+r"(x));
    }
    iters += kChunk;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(iters);
}

double fault_us_per_mib(double budget_s) {
  constexpr std::size_t kMib = 8;
  constexpr std::size_t kBytes = kMib << 20;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::uint64_t rounds = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) std::abort();
    auto* bytes = static_cast<volatile unsigned char*>(p);
    for (std::size_t off = 0; off < kBytes; off += page) bytes[off] = 1;
    ::munmap(p, kBytes);
    ++rounds;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return elapsed * 1e6 / static_cast<double>(rounds * kMib);
}

double chase_ns_per_load(double budget_s) {
  constexpr std::size_t kSlots = (std::size_t{24} << 20) / sizeof(std::size_t);
  constexpr std::uint64_t kChunk = 1u << 20;
  // Sattolo's shuffle with a fixed seed: one cycle through every slot, the
  // same cycle on every run.
  void* mem = ::mmap(nullptr, kSlots * sizeof(std::size_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (mem == MAP_FAILED) std::abort();
  auto* next = static_cast<std::size_t*>(mem);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t s = 0xC0CA5EEDULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t j = static_cast<std::size_t>((s >> 33) % i);
    std::swap(next[i], next[j]);
  }
  std::size_t at = 0;
  std::uint64_t loads = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (std::uint64_t i = 0; i < kChunk; ++i) at = next[at];
    asm volatile("" : "+r"(at));
    loads += kChunk;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  ::munmap(mem, kSlots * sizeof(std::size_t));
  return elapsed * 1e9 / static_cast<double>(loads);
}

}  // namespace

ProbeReading run_probe(double budget_s) {
  // The kernels run in a forked child, so their 24 MiB array and page
  // churn stay out of the benchmark's own peak RSS and fault counts. The
  // child allocates only through mmap and leaves through _exit.
  void* shared = ::mmap(nullptr, sizeof(ProbeReading), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) std::abort();
  const pid_t pid = ::fork();
  if (pid < 0) std::abort();
  if (pid == 0) {
    const double each = budget_s / 3;
    ProbeReading r;
    r.alu_ns_per_iter = alu_ns_per_iter(each);
    r.fault_us_per_mib = fault_us_per_mib(each);
    r.chase_ns_per_load = chase_ns_per_load(each);
    std::memcpy(shared, &r, sizeof r);
    ::_exit(0);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ProbeReading r;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    std::memcpy(&r, shared, sizeof r);
  }
  ::munmap(shared, sizeof(ProbeReading));
  return r;
}

}  // namespace perfbench
