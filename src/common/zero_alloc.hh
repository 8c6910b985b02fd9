/**
 * @file
 * Allocator for tables whose reset state is all-zero bytes: storage
 * comes from calloc, and value-initializing an element writes nothing.
 *
 * calloc writes nothing to memory the process gets fresh from the
 * kernel, whose pages are mapped zeroed on first touch, and clears
 * only memory it reuses. So a fresh process faults in only the parts
 * of a table its run reads or writes: a one-instruction job touches a
 * few pages of the caches, BTB and confidence table instead of all of
 * them. Two conditions keep the elements at their default value:
 *  - all-zero bytes are the element type's value-initialized state
 *    (`ZeroAllocator.ZeroBytesAreEveryStoredTypesDefault` in
 *    tests/test_common.cc pins this for every type stored);
 *  - a vector using it grows only from empty: a resize() after a
 *    shrink would re-expose the old bytes instead of zeroing them.
 */

#ifndef STSIM_COMMON_ZERO_ALLOC_HH
#define STSIM_COMMON_ZERO_ALLOC_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace stsim
{

template <typename T>
class ZeroAllocator
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "calloc'd bytes are only an object of a trivially "
                  "copyable type");

  public:
    using value_type = T;

    ZeroAllocator() = default;
    template <typename U>
    ZeroAllocator(const ZeroAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (void *p = std::calloc(n, sizeof(T)))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }

    void deallocate(T *p, std::size_t) noexcept { std::free(p); }

    /** Value-initialization: the calloc'd zero bytes already are it. */
    template <typename U>
    void
    construct(U *) noexcept
    {
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        std::construct_at(p, std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const ZeroAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A table whose elements start as all-zero bytes. */
template <typename T>
using ZeroVector = std::vector<T, ZeroAllocator<T>>;

} // namespace stsim

#endif // STSIM_COMMON_ZERO_ALLOC_HH
