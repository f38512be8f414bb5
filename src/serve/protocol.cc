#include "serve/protocol.h"

#include <cstring>

namespace conservation::serve {
namespace {

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

double GetF64(const char* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Backpatches the u32 length prefix reserved at `len_at` once the payload
// between it and out->size() is complete.
void FinishFrame(size_t len_at, std::string* out) {
  const uint32_t payload = static_cast<uint32_t>(out->size() - len_at - 4);
  (*out)[len_at] = static_cast<char>(payload & 0xff);
  (*out)[len_at + 1] = static_cast<char>((payload >> 8) & 0xff);
  (*out)[len_at + 2] = static_cast<char>((payload >> 16) & 0xff);
  (*out)[len_at + 3] = static_cast<char>((payload >> 24) & 0xff);
}

size_t BeginFrame(std::string* out) {
  const size_t len_at = out->size();
  out->append(4, '\0');
  return len_at;
}

}  // namespace

const char* AckStatusName(AckStatus status) {
  switch (status) {
    case AckStatus::kOk:
      return "ok";
    case AckStatus::kBackpressure:
      return "backpressure";
    case AckStatus::kShuttingDown:
      return "shutting_down";
    case AckStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

void EncodeAppend(uint64_t tenant_id, const double* a, const double* b,
                  int64_t m, std::string* out) {
  const size_t len_at = BeginFrame(out);
  PutU8(static_cast<uint8_t>(FrameType::kAppend), out);
  PutU64(tenant_id, out);
  PutU32(static_cast<uint32_t>(m), out);
  for (int64_t k = 0; k < m; ++k) PutF64(a[k], out);
  for (int64_t k = 0; k < m; ++k) PutF64(b[k], out);
  FinishFrame(len_at, out);
}

void EncodeAck(const AckFrame& ack, std::string* out) {
  const size_t len_at = BeginFrame(out);
  PutU8(static_cast<uint8_t>(FrameType::kAck), out);
  PutU64(ack.tenant_id, out);
  PutU8(static_cast<uint8_t>(ack.status), out);
  PutU32(ack.accepted_ticks, out);
  PutU64(ack.queued_ticks, out);
  FinishFrame(len_at, out);
}

void EncodePing(std::string* out) {
  const size_t len_at = BeginFrame(out);
  PutU8(static_cast<uint8_t>(FrameType::kPing), out);
  FinishFrame(len_at, out);
}

void EncodeStatsRequest(std::string* out) {
  const size_t len_at = BeginFrame(out);
  PutU8(static_cast<uint8_t>(FrameType::kStats), out);
  FinishFrame(len_at, out);
}

void EncodeStatsReply(const StatsReplyFrame& stats, std::string* out) {
  const size_t len_at = BeginFrame(out);
  PutU8(static_cast<uint8_t>(FrameType::kStatsReply), out);
  PutU64(stats.tenants, out);
  PutU64(stats.ticks_ingested, out);
  PutU64(stats.ticks_processed, out);
  PutU64(stats.batches_rejected, out);
  FinishFrame(len_at, out);
}

void FrameReader::Feed(const char* data, size_t size) {
  if (failed_) return;
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameReader::Violation(const std::string& message) {
  failed_ = true;
  error_ = message;
  buffer_.clear();
  consumed_ = 0;
  return false;
}

bool FrameReader::Next(Frame* frame) {
  if (failed_) return false;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return false;
  const char* base = buffer_.data() + consumed_;
  const uint32_t payload_len = GetU32(base);
  if (payload_len < 1 || payload_len > kMaxFramePayload) {
    return Violation("bad frame length " + std::to_string(payload_len));
  }
  if (avail < 4 + static_cast<size_t>(payload_len)) return false;
  const char* p = base + 4;
  const char* end = p + payload_len;
  const uint8_t type = static_cast<uint8_t>(*p++);
  *frame = Frame();
  switch (type) {
    case static_cast<uint8_t>(FrameType::kAppend): {
      frame->type = FrameType::kAppend;
      if (end - p < 12) return Violation("short append header");
      frame->append.tenant_id = GetU64(p);
      p += 8;
      const uint32_t m = GetU32(p);
      p += 4;
      if (m == 0 || m > kMaxAppendTicks) {
        return Violation("bad append tick count " + std::to_string(m));
      }
      if (static_cast<size_t>(end - p) != static_cast<size_t>(m) * 16) {
        return Violation("append body size mismatch");
      }
      frame->append.a.resize(m);
      frame->append.b.resize(m);
      for (uint32_t k = 0; k < m; ++k, p += 8) frame->append.a[k] = GetF64(p);
      for (uint32_t k = 0; k < m; ++k, p += 8) frame->append.b[k] = GetF64(p);
      break;
    }
    case static_cast<uint8_t>(FrameType::kAck): {
      frame->type = FrameType::kAck;
      if (end - p != 8 + 1 + 4 + 8) return Violation("bad ack size");
      frame->ack.tenant_id = GetU64(p);
      p += 8;
      const uint8_t status = static_cast<uint8_t>(*p++);
      if (status > static_cast<uint8_t>(AckStatus::kInvalid)) {
        return Violation("bad ack status");
      }
      frame->ack.status = static_cast<AckStatus>(status);
      frame->ack.accepted_ticks = GetU32(p);
      p += 4;
      frame->ack.queued_ticks = GetU64(p);
      p += 8;
      break;
    }
    case static_cast<uint8_t>(FrameType::kPing): {
      frame->type = FrameType::kPing;
      if (p != end) return Violation("ping carries a body");
      break;
    }
    case static_cast<uint8_t>(FrameType::kStats): {
      frame->type = FrameType::kStats;
      if (p != end) return Violation("stats request carries a body");
      break;
    }
    case static_cast<uint8_t>(FrameType::kStatsReply): {
      frame->type = FrameType::kStatsReply;
      if (end - p != 32) return Violation("bad stats reply size");
      frame->stats.tenants = GetU64(p);
      frame->stats.ticks_ingested = GetU64(p + 8);
      frame->stats.ticks_processed = GetU64(p + 16);
      frame->stats.batches_rejected = GetU64(p + 24);
      break;
    }
    default:
      return Violation("unknown frame type " + std::to_string(type));
  }
  consumed_ += 4 + payload_len;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

}  // namespace conservation::serve
