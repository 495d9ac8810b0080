#include "reference.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace cbpsbench {

namespace {

struct KernelData {
  std::vector<std::shared_ptr<std::array<std::uint64_t, 6>>> pool =
      std::vector<std::shared_ptr<std::array<std::uint64_t, 6>>>(1 << 18);
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::uint64_t state = 88172645463325252ull;  // xorshift64

  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

KernelData& data() {
  static KernelData d = [] {
    KernelData k;
    for (std::uint64_t i = 0; i < 200000; ++i) {
      k.hashed[k.next() % 1000000] = i;
      k.ordered[k.next() % 1000000] = i;
    }
    return k;
  }();
  return d;
}

// Results feed this so the kernel cannot be optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_kernel_s() {
  KernelData& d = data();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> heap;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    auto& slot = d.pool[d.next() & (d.pool.size() - 1)];
    slot = std::make_shared<std::array<std::uint64_t, 6>>();
    (*slot)[0] = i;
    if (auto it = d.hashed.find(d.next() % 1000000); it != d.hashed.end()) {
      sum += it->second;
    }
    if (auto it = d.ordered.lower_bound(d.next() % 1000000);
        it != d.ordered.end()) {
      sum += it->second;
    }
    heap.push_back(d.next());
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 1000) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = g_sink + sum;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace cbpsbench
