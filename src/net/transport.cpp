#include "net/transport.h"

#include <algorithm>

#include "common/check.h"

namespace dptd::net {

Payload Payload::shared(std::vector<std::uint8_t> bytes) {
  Payload payload;
  payload.shared_ =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  return payload;
}

std::vector<std::uint8_t>& Payload::mutable_bytes() {
  if (shared_) {
    owned_ = *shared_;
    shared_.reset();
  }
  return owned_;
}

bool operator==(const Payload& payload, std::span<const std::uint8_t> bytes) {
  return std::equal(payload.begin(), payload.end(), bytes.begin(),
                    bytes.end());
}

void RpcPolicy::validate() const {
  DPTD_REQUIRE(op_timeout_seconds > 0.0,
               "RpcPolicy: op_timeout_seconds must be positive");
}

std::size_t Transport::drain_for(double seconds) {
  std::size_t delivered = 0;
  const double until = now() + seconds;
  while (now() < until) delivered += poll(until);
  return delivered;
}

}  // namespace dptd::net
