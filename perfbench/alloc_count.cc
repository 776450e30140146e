// Replacement global allocation operators for the benchmark binary: every
// operator new is counted (calls and bytes requested) per thread, so
// allocation counts come from outside the program without changing it.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "perfbench/harness.h"

namespace {

thread_local uint64_t tl_calls = 0;
thread_local uint64_t tl_bytes = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  ++tl_calls;
  tl_bytes += size;
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

void* CountedOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace perfbench {
AllocCount AllocsNow() { return AllocCount{tl_calls, tl_bytes}; }
}  // namespace perfbench

void* operator new(std::size_t size) { return CountedOrThrow(size, 0); }
void* operator new[](std::size_t size) { return CountedOrThrow(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
