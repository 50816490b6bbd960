/**
 * @file
 * Counting replacement of the global allocation functions, linked into
 * the benchmark binary only. Each thread counts its own calls to
 * operator new, so a probe on the calling thread reads an exact
 * allocation count (ppl.allocs_per_grad) without contending with pool
 * workers. libstdc++'s nothrow forms forward to these, so they are
 * counted too; the over-aligned forms are not (only the obs registry's
 * cache-line-padded metrics use them, once per metric).
 */
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

thread_local std::uint64_t tAllocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++tAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
perfbench::threadAllocations()
{
    return tAllocations;
}

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
