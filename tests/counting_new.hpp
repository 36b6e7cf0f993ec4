#pragma once

// Counting replacement of the global allocator. Link counting_new.cpp into
// a test binary to let its tests assert how often a code path reaches the
// heap; binaries that do not link it keep the standard allocator.

#include <cstdint>

namespace wtr::counting_new {

/// Allocations made through any form of `operator new`, by any thread,
/// since the process started.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace wtr::counting_new
