// Global operator new override for the benchmark binary: counts every
// heap allocation per thread, so a pass can report allocations per
// committed transaction (the pattern of tests/cluster_test.cc's counter).

#include <cstdint>
#include <cstdlib>
#include <new>

#include "mixes.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

namespace perfbench {
uint64_t ThreadAllocations() { return t_allocations; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
