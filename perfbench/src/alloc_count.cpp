#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

// Constant-initialized, so touching them from operator new is safe at any
// point of a thread's life.
thread_local int t_scope = 0;
thread_local std::uint64_t t_counts[3] = {0, 0, 0};

}  // namespace

void note_allocation() { ++t_counts[t_scope]; }

Counts counts() { return Counts{t_counts[1], t_counts[2]}; }

void reset() { t_counts[1] = t_counts[2] = 0; }

ScopeGuard::ScopeGuard(Scope scope) : previous_(t_scope) {
  t_scope = static_cast<int>(scope);
}

ScopeGuard::~ScopeGuard() { t_scope = previous_; }

}  // namespace perfbench::alloc

// The array, nothrow and sized forms of the standard library forward to
// these two, so every C++ heap allocation in the process passes here.
void* operator new(std::size_t size) {
  perfbench::alloc::note_allocation();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::alloc::note_allocation();
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (::posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
