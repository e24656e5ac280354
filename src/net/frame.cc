#include "net/frame.h"

#include <cstring>

#include "common/string_util.h"

namespace ltc {
namespace net {

namespace {

void PutU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(bytes, 4);
}

std::uint32_t GetU32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

bool KnownFrameType(std::uint8_t byte) {
  switch (static_cast<FrameType>(byte)) {
    case FrameType::kHello:
    case FrameType::kEvents:
    case FrameType::kFinish:
    case FrameType::kAck:
    case FrameType::kStats:
      return true;
  }
  return false;
}

bool KnownStatusCode(std::uint8_t byte) {
  return byte <= static_cast<std::uint8_t>(StatusCode::kUnavailable);
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(5 + frame.payload.size());
  PutU32(&out, static_cast<std::uint32_t>(1 + frame.payload.size()));
  out.push_back(static_cast<char>(frame.type));
  out += frame.payload;
  return out;
}

StatusOr<bool> FrameDecoder::Next(Frame* frame) {
  if (buffer_.size() < 4) return false;
  const std::uint32_t length = GetU32(buffer_.data());
  if (length < 1 || length > 1 + kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("wire: frame length %u out of range", length));
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return false;
  const auto type_byte = static_cast<std::uint8_t>(buffer_[4]);
  if (!KnownFrameType(type_byte)) {
    return Status::InvalidArgument(
        StrFormat("wire: unknown frame type 0x%02x", type_byte));
  }
  frame->type = static_cast<FrameType>(type_byte);
  frame->payload.assign(buffer_, 5, length - 1);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return true;
}

std::string EncodeAckPayload(const Ack& ack) {
  std::string out;
  out.reserve(9 + ack.message.size());
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(ack.code)));
  PutU64(&out, ack.admitted);
  out += ack.message;
  return out;
}

StatusOr<Ack> DecodeAckPayload(const std::string& payload) {
  if (payload.size() < 9) {
    return Status::InvalidArgument("wire: ack payload too short");
  }
  const auto code_byte = static_cast<std::uint8_t>(payload[0]);
  if (!KnownStatusCode(code_byte)) {
    return Status::InvalidArgument(
        StrFormat("wire: unknown ack status code %u", code_byte));
  }
  Ack ack;
  ack.code = static_cast<StatusCode>(code_byte);
  ack.admitted = GetU64(payload.data() + 1);
  ack.message = payload.substr(9);
  return ack;
}

Status AckToStatus(const Ack& ack) {
  if (ack.code == StatusCode::kOk) return Status::OK();
  return Status(ack.code, ack.message.empty() ? "rejected by server"
                                              : ack.message);
}

std::string EncodeEventsPayload(const std::vector<io::Event>& events) {
  std::string out;
  for (const io::Event& e : events) {
    out += io::FormatEventRecord(e);
  }
  return out;
}

StatusOr<std::vector<io::Event>> DecodeEventsPayload(
    const std::string& payload) {
  return io::ParseEventRecords(payload, "wire events");
}

}  // namespace net
}  // namespace ltc
