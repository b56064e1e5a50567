// The untraced binary keeps the stock allocator: no counting.
#include "common.hpp"

namespace fnobench {
std::uint64_t alloc_count() noexcept { return 0; }
void set_alloc_counting(bool) noexcept {}
}  // namespace fnobench
