// Compact binary wire format for the simulated crowd sensing protocol:
// little-endian fixed-width ints, LEB128 varints with zigzag for signed,
// IEEE-754 doubles, length-prefixed strings/vectors.
//
// Decoding is defensive: malformed input throws DecodeError, never UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dptd {

/// Sanity cap on any decoded container's element count.
inline constexpr std::size_t kMaxContainerLength = std::size_t{1} << 28;

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_varint(std::uint64_t v);
  void write_signed_varint(std::int64_t v);  // zigzag
  void write_double(double v);
  void write_string(const std::string& s);
  void write_doubles(std::span<const double> xs);
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Appends `bytes` as they are, with no length prefix.
  void write_raw(std::span<const std::uint8_t> bytes);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  /// Empties the buffer but keeps its capacity for the next message.
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::uint64_t read_varint();
  std::int64_t read_signed_varint();
  double read_double();
  std::string read_string();
  std::vector<double> read_doubles();
  std::vector<std::uint8_t> read_bytes();  // mirror of write_bytes
  /// A container's element count. Refused above kMaxContainerLength, or when
  /// the bytes left cannot hold that many elements of at least
  /// `min_element_bytes` each, so a hostile count never reserves memory.
  std::size_t read_count(std::size_t min_element_bytes = 1);
  /// The next `n` bytes as a view into the decoded buffer (no copy).
  std::span<const std::uint8_t> read_span(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dptd
