#include "common/serialize.h"

#include <bit>
#include <limits>

namespace dptd {

void Encoder::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Encoder::write_signed_varint(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  write_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Encoder::write_double(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void Encoder::write_string(const std::string& s) {
  write_varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::write_doubles(std::span<const double> xs) {
  write_varint(xs.size());
  for (double x : xs) write_double(x);
}

void Encoder::write_bytes(std::span<const std::uint8_t> bytes) {
  write_varint(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Encoder::write_raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Decoder::need(std::size_t n) const {
  if (data_.size() - pos_ < n) throw DecodeError("truncated message");
}

std::uint8_t Decoder::read_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Decoder::read_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Decoder::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::span<const std::uint8_t> Decoder::read_span(std::size_t n) {
  need(n);
  const std::span<const std::uint8_t> view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::uint64_t Decoder::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("varint overflow");
    need(1);
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
  }
}

std::int64_t Decoder::read_signed_varint() {
  const std::uint64_t u = read_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double Decoder::read_double() { return std::bit_cast<double>(read_u64()); }

std::size_t Decoder::read_count(std::size_t min_element_bytes) {
  const std::uint64_t count = read_varint();
  if (count > kMaxContainerLength) throw DecodeError("container too long");
  if (count > remaining() / min_element_bytes) {
    throw DecodeError("container count exceeds the bytes left");
  }
  return static_cast<std::size_t>(count);
}

std::string Decoder::read_string() {
  const std::span<const std::uint8_t> bytes = read_span(read_count());
  return std::string(bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> Decoder::read_bytes() {
  const std::span<const std::uint8_t> bytes = read_span(read_count());
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

std::vector<double> Decoder::read_doubles() {
  const std::size_t len = read_count(sizeof(double));
  std::vector<double> xs;
  xs.reserve(len);
  for (std::size_t i = 0; i < len; ++i) xs.push_back(read_double());
  return xs;
}

}  // namespace dptd
