// Global allocation counter for the zero-alloc steady-state tests: counting
// replacements of operator new/delete, and g_allocs, the number of
// allocations so far.  Define them once per test binary: include this
// header from exactly one translation unit.
//
// Sanitizer builds own operator new themselves (interceptors +
// annotations), so the counting overrides - and the tests that depend on
// them, guarded by CG_ALLOC_COUNTING - compile out there; the alloc
// contract is pinned by the plain Release/Debug ctest runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CG_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CG_ALLOC_COUNTING 0
#endif
#endif
#ifndef CG_ALLOC_COUNTING
#define CG_ALLOC_COUNTING 1
#endif

#if CG_ALLOC_COUNTING

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // CG_ALLOC_COUNTING
