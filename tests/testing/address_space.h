// Support for death tests that prove an oversized allocation is refused
// rather than attempted: the child process caps its own address space a
// little above its current size, so a huge reservation throws
// std::bad_alloc at once instead of paging the host.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <fstream>

// Sanitizers reserve terabytes of shadow memory up front, so an address-space
// cap cannot be applied under them; tests skip when this is defined.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DPTD_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DPTD_TEST_SANITIZED 1
#endif
#endif

namespace dptd::testing {

/// Lowers this process's RLIMIT_AS to its current size plus `headroom` bytes
/// (never above the hard limit). Call only in a death-test child.
inline void cap_address_space(rlim_t headroom) {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  rlimit limit{};
  getrlimit(RLIMIT_AS, &limit);
  const rlim_t cap =
      pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) + headroom;
  limit.rlim_cur =
      limit.rlim_max == RLIM_INFINITY ? cap : std::min(cap, limit.rlim_max);
  setrlimit(RLIMIT_AS, &limit);
}

}  // namespace dptd::testing
